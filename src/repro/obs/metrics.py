"""Pipeline observability: stage timers, counters, and structured events.

The generation pipeline (parse -> verify -> clear -> replay -> frame
selection -> emit) is instrumented with *stages*: named spans whose wall
time and context are recorded as :class:`StageEvent` objects on the
:class:`Metrics` registry active in the current context.  Counters track
scalar totals (frames written, cache hits, bytes emitted); timers
aggregate per-stage statistics (count/total/min/max).

Activation is opt-in and scoped: library code always reports through
:func:`current_metrics`, which resolves to a do-nothing :class:`NullMetrics`
unless a caller has entered :func:`use_metrics`::

    from repro.obs import Metrics, use_metrics

    m = Metrics()
    with use_metrics(m):
        jpg.make_partial(...)
    print(m.timers["jpg.emit"].total, m.counters["jpg.frames_written"])

Scoping uses a :class:`contextvars.ContextVar`, so concurrent batch
workers can each bind the same (or different) registries explicitly; the
registry itself is thread-safe.  A pluggable *sink* — any callable taking
a :class:`StageEvent` — observes events as they happen (live progress,
structured logging); recorded events also stay on ``Metrics.events``
unless ``keep_events=False``.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TypeVar


@dataclass(frozen=True)
class StageEvent:
    """One completed pipeline stage: what ran, for how long, with what."""

    stage: str
    seconds: float
    detail: Mapping[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"{self.stage} {1e3 * self.seconds:.2f}ms{' ' + extra if extra else ''}"


#: A sink receives every StageEvent the registry records.
Sink = Callable[[StageEvent], None]


@dataclass
class TimerStats:
    """Aggregate of every recording of one named timer."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = seconds if seconds < self.min else self.min
        self.max = seconds if seconds > self.max else self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class GaugeStats:
    """Last/extreme values of a sampled quantity (queue depth, pool size)."""

    last: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    updates: int = 0

    def set(self, value: float) -> None:
        self.last = value
        self.min = value if value < self.min else self.min
        self.max = value if value > self.max else self.max
        self.updates += 1


class ReservoirHistogram:
    """Bounded-memory value distribution with quantile export.

    Timers (:class:`TimerStats`) only keep totals and extremes, which is
    useless for tail latency: a p99 needs the *distribution*.  This class
    keeps a uniform random sample of at most ``capacity`` observations
    (Vitter's Algorithm R), so memory stays constant however many values
    stream through, while ``count``/``min``/``max``/``total`` stay exact.
    Quantiles are computed over the reservoir with linear interpolation —
    exact below ``capacity`` observations, a tight estimate above.

    The seeded private RNG keeps replacement deterministic for a given
    observation sequence (reproducible reports).  Instances are *not*
    internally locked; :class:`Metrics` serializes access under its own
    registry lock.
    """

    __slots__ = ("capacity", "count", "min", "max", "total", "_samples", "_rng")

    def __init__(self, capacity: int = 512, *, seed: int = 0):
        self.capacity = capacity
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")
        self.total = 0.0
        self._samples: list[float] = []
        self._rng = random.Random(seed)

    def record(self, value: float) -> None:
        """Observe one value (reservoir-sampled past ``capacity``)."""
        self.count += 1
        self.total += value
        self.min = value if value < self.min else self.min
        self.max = value if value > self.max else self.max
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of every observation."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the sampled distribution (0.0 when
        empty); ``quantile(0.5)`` is the median, ``quantile(0.99)`` the p99."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        pos = min(max(q, 0.0), 1.0) * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def quantiles(self, qs: Iterable[float] = (0.5, 0.95, 0.99)) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for the given fractions."""
        return {f"p{round(100 * q) if q < 1 else 100}": self.quantile(q) for q in qs}

    def samples(self) -> list[float]:
        """A copy of the current reservoir (for snapshots)."""
        return list(self._samples)


class Metrics:
    """Thread-safe registry of counters, timers, gauges, and stage events."""

    def __init__(self, *, sink: Sink | None = None, keep_events: bool = True):
        self._lock = threading.Lock()
        self.sink = sink
        self.keep_events = keep_events
        self.counters: dict[str, int] = {}
        self.timers: dict[str, TimerStats] = {}
        self.gauges: dict[str, GaugeStats] = {}
        self.histograms: dict[str, ReservoirHistogram] = {}
        self.events: list[StageEvent] = []

    # -- counters -------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero on first use)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self.counters.get(name, 0)

    # -- gauges ---------------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Sample gauge ``name`` at ``value`` (tracks last/min/max)."""
        with self._lock:
            _slot(self.gauges, name, GaugeStats).set(value)

    def gauge_value(self, name: str) -> float:
        """Last sampled value of gauge ``name`` (0.0 if never sampled)."""
        with self._lock:
            g = self.gauges.get(name)
            return g.last if g is not None else 0.0

    # -- histograms -----------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Feed one value into histogram ``name`` (latency, sizes, depths)
        for later quantile export — independent of any timer."""
        with self._lock:
            _slot(self.histograms, name, ReservoirHistogram).record(value)

    def quantile(self, name: str, q: float) -> float:
        """The ``q``-quantile of histogram ``name`` (0.0 if never observed)."""
        with self._lock:
            h = self.histograms.get(name)
            return h.quantile(q) if h is not None else 0.0

    def latency_summary(self, prefix: str = "") -> dict[str, dict[str, float]]:
        """``{name: {count, mean, p50, p95, p99, max}}`` for every histogram
        whose name starts with ``prefix`` — the quantile view ``stats``
        endpoints export."""
        with self._lock:
            items = [(k, h) for k, h in sorted(self.histograms.items())
                     if k.startswith(prefix)]
            return {
                k: {"count": h.count, "mean": h.mean, **h.quantiles(),
                    "max": h.max if h.count else 0.0}
                for k, h in items
            }

    # -- timers / stages ------------------------------------------------------

    def record(self, stage: str, seconds: float, **detail: object) -> None:
        """Record a completed stage: updates the timer, feeds the stage's
        latency histogram (p50/p95/p99 export), and emits an event."""
        event = StageEvent(stage, seconds, detail)
        with self._lock:
            _slot(self.timers, stage, TimerStats).record(seconds)
            _slot(self.histograms, stage, ReservoirHistogram).record(seconds)
            if self.keep_events:
                self.events.append(event)
            sink = self.sink
        if sink is not None:
            sink(event)

    @contextlib.contextmanager
    def stage(self, name: str, **detail: object) -> Iterator[None]:
        """Time a pipeline stage: ``with metrics.stage("jpg.emit"): ...``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start, **detail)

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """A plain-dict copy of every counter and timer (for reports)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {
                    k: {"count": t.count, "total": t.total, "min": t.min,
                        "max": t.max, "mean": t.mean}
                    for k, t in self.timers.items()
                },
                "gauges": {
                    k: {"last": g.last, "min": g.min, "max": g.max,
                        "updates": g.updates}
                    for k, g in self.gauges.items()
                },
                "histograms": {
                    k: {"count": h.count, "total": h.total, "min": h.min,
                        "max": h.max, "samples": h.samples(), **h.quantiles()}
                    for k, h in self.histograms.items()
                },
            }

    def stage_table(self) -> list[tuple[str, int, str, str]]:
        """Rows (stage, count, total, mean) sorted by total time, descending
        — ready for :func:`repro.utils.format_table`."""
        with self._lock:
            items = sorted(self.timers.items(), key=lambda kv: -kv[1].total)
        return [
            (name, t.count, f"{1e3 * t.total:.1f} ms", f"{1e3 * t.mean:.2f} ms")
            for name, t in items
        ]


T = TypeVar("T")


def _slot(table: dict[str, T], name: str, make: Callable[[], T]) -> T:
    """``table[name]``, made on first use.  Not ``setdefault``, which would
    build (and, for a histogram, seed an RNG for) a throwaway default on
    every call."""
    item = table.get(name)
    if item is None:
        item = table[name] = make()
    return item


class NullMetrics(Metrics):
    """The default registry: accepts everything, stores nothing."""

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def record(self, stage: str, seconds: float, **detail: object) -> None:
        pass

    @contextlib.contextmanager
    def stage(self, name: str, **detail: object) -> Iterator[None]:
        yield


#: Process-wide fallback; never holds data.
NULL_METRICS = NullMetrics()

_current: ContextVar[Metrics] = ContextVar("repro_metrics", default=NULL_METRICS)


def current_metrics() -> Metrics:
    """The registry instrumented library code should report to."""
    return _current.get()


@contextlib.contextmanager
def use_metrics(metrics: Metrics) -> Iterator[Metrics]:
    """Bind ``metrics`` as the current registry for this context.

    Worker threads do not inherit the caller's context automatically;
    pool-based code must re-enter ``use_metrics`` inside each task (the
    batch engine does).
    """
    token = _current.set(metrics)
    try:
        yield metrics
    finally:
        _current.reset(token)


def recording_sink(into: list[StageEvent]) -> Sink:
    """A sink that appends events to ``into`` (handy in tests and demos)."""
    return into.append
