"""Spans recorded from outside the program, and their self times.

The benchmark wraps each call it makes into a layer's public function in a
span (``with tracer.span("flow.run_flow"): ...``).  The stages the program
already times through :mod:`repro.obs` become spans too: the registry the
benchmark binds is a :class:`~repro.obs.Metrics` whose ``stage()`` also
records the interval it times.  (A sink would see only each stage's
duration, and rebuilding its start from the sink's clock misplaces it
whenever the thread is held between the stage's end and the sink.)
Nothing inside ``src/`` is instrumented for the benchmark.

A span's parent is the innermost span on the same thread whose interval
encloses it; its self time is its duration minus the time its children
cover.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import threading
import time
from collections import defaultdict
from collections.abc import Iterator

from repro.obs import Metrics

#: Stage events renamed onto the benchmark's layer names.
STAGE_LAYERS = {
    "jpg.init_base": "jbits.init_base",
    "jpg.parse_xdl": "core.parse_xdl",
    "jpg.verify": "core.verify",
    "jpg.clear_region": "core.clear_region",
    "jpg.replay": "core.replay",
    "jpg.frame_select": "core.frame_select",
    "jpg.emit": "core.emit",
    "assemble.full_stream": "bitstream.full_stream",
    "assemble.partial_stream": "bitstream.partial_stream",
    "bitgen.generate_frames": "bitstream.generate_frames",
}

#: Name of the span the harness opens around each timed operation.
OP = "op"

#: Slack when testing interval containment: span files round times to
#: 0.1 microseconds.
_TOLERANCE_S = 1e-6

# span tuple layout
NAME, START, END, THREAD, OP_ID, PHASE = range(6)


class Tracer:
    """Collects spans and per-call values for one run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.values: dict[tuple[str, str], list[float]] = defaultdict(list)
        #: the run phase new spans are tagged with: inputs/setup/timed/oracle
        self.phase = "inputs"
        #: operation id given to spans opened on the harness thread
        self.op: object = None

    @contextlib.contextmanager
    def span(self, name: str, op: object = None) -> Iterator[None]:
        """Time the enclosed call as one span of layer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter(), threading.get_ident(),
                               self.op if op is None else op, self.phase))

    def add(self, name: str, start: float, end: float, lane: object, op: object) -> None:
        """Record an already-measured interval (pipelined requests, whose
        intervals overlap on one thread, each get their own ``lane``)."""
        self.spans.append((name, start, end, lane, op, self.phase))

    def note(self, name: str, value: float) -> None:
        """Record one per-call value (a count or ratio) for ``name``."""
        self.values[(self.phase, name)].append(value)

    def add_stage(self, name: str, start: float, end: float, detail: dict) -> None:
        """Record one stage the program timed."""
        self.spans.append((STAGE_LAYERS.get(name, name), start, end, threading.get_ident(),
                           detail.get("module", self.op), self.phase))
        if name == "assemble.partial_stream":
            self.values[(self.phase, "bitstream.frames_per_partial")].append(
                float(detail.get("frames", 0)))

    def registry(self) -> Metrics | None:
        """A registry whose stages land here as spans (bind it with
        ``use_metrics`` or pass it as ``metrics=``)."""
        return _SpanMetrics(self)

    def dump(self, path: str, **header: object) -> None:
        """Write every span, gzip-compressed JSON."""
        lanes: dict[object, int] = {}
        rows = [[s[NAME], round(s[START], 7), round(s[END], 7),
                 lanes.setdefault(s[THREAD], len(lanes)),
                 s[OP_ID] if isinstance(s[OP_ID], (int, str)) else None, s[PHASE]]
                for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump({**header, "spans": rows}, f)


class _SpanMetrics(Metrics):
    """A :class:`~repro.obs.Metrics` that also hands every stage it times,
    with its exact start and end, to a :class:`Tracer`."""

    def __init__(self, tracer: Tracer):
        super().__init__(keep_events=False)
        self._tracer = tracer

    @contextlib.contextmanager
    def stage(self, name: str, **detail: object) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._tracer.add_stage(name, start, end, detail)
            self.record(name, end - start, **detail)


class NullTracer(Tracer):
    """Tracing off: spans cost one attribute lookup, and the library keeps
    its default (no-op) metrics registry."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, op: object = None) -> Iterator[None]:
        yield

    def add(self, name: str, start: float, end: float, lane: object, op: object) -> None:
        pass

    def note(self, name: str, value: float) -> None:
        pass

    def registry(self) -> Metrics | None:
        return None


def load_spans(path: str) -> dict:
    """Read a span file written by :meth:`Tracer.dump`."""
    with gzip.open(path, "rt", encoding="utf-8") as f:
        return json.load(f)


def self_times(spans: list) -> list[float]:
    """Self time of every span: its duration minus the time covered by
    its children (the spans it directly encloses on the same thread)."""
    child_time = [0.0] * len(spans)
    by_thread: dict[object, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_thread[s[THREAD]].append(i)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i][START], -spans[i][END]))
        stack: list[int] = []
        for i in indices:
            start, end = spans[i][START], spans[i][END]
            while stack and not (start >= spans[stack[-1]][START] - _TOLERANCE_S
                                 and end <= spans[stack[-1]][END] + _TOLERANCE_S):
                stack.pop()
            if stack:
                child_time[stack[-1]] += end - start
            stack.append(i)
    return [max(0.0, s[END] - s[START] - c) for s, c in zip(spans, child_time)]


def layer_table(spans: list, phase: str | None = None) -> dict[str, tuple[int, float]]:
    """``{layer: (calls, total self seconds)}`` over the spans of
    ``phase`` (every phase when ``None``); operation spans excluded."""
    selfs = self_times(spans)
    table: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s, own in zip(spans, selfs):
        if s[NAME] == OP or (phase is not None and s[PHASE] != phase):
            continue
        row = table[s[NAME]]
        row[0] += 1
        row[1] += own
    return {name: (n, total) for name, (n, total) in table.items()}


def coverage(spans: list) -> tuple[int, float, float]:
    """``(ops, op seconds, covered share)``: how much of the timed
    operations' wall time falls inside spans of the program's layers."""
    selfs = self_times(spans)
    ops = [(s, own) for s, own in zip(spans, selfs) if s[NAME] == OP]
    total = sum(s[END] - s[START] for s, _ in ops)
    uncovered = sum(own for _, own in ops)
    return len(ops), total, (1.0 - uncovered / total) if total else 0.0
