"""What a workload gets to run with, and what it hands back.

:class:`Context` carries the run's seed, length, tracer and host-speed
samples, and wraps the library calls every workload makes (flow, bitgen,
source writing, JPG generation, downloads) so each one is a span and its
counts are noted in one place.  :class:`Outcome` is a workload's
measurements; the harness turns it into metrics.
"""

from __future__ import annotations

import contextlib
import random
import resource
import statistics
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.bitstream.bitfile import BitFile
from repro.bitstream.bitgen import bitgen
from repro.core.jpg import Jpg, PartialResult
from repro.flow import FlowResult, run_flow
from repro.flow.floorplan import Constraints
from repro.hwsim import DownloadReport
from repro.jbits import SimulatedXhwif
from repro.ucf.parser import UcfFile, parse_ucf, write_ucf
from repro.xdl.writer import write_xdl

from .pace import Pace
from .tracer import OP, Tracer


@dataclass
class Outcome:
    """One workload run's measurements.  Times are seconds and rates per
    second on the reference host (pace.py)."""

    setup_s: list[float]
    op_s: list[float]                 # each timed operation
    item_s: list[float]               # each item (partial, combination, request)
    tail_q: float                     # the item percentile reported as the tail
    items_per_s: float
    output_ratio: float               # output bytes / complete-bitstream bytes
    peak_rss_mb: float
    oracles: list[str] = field(default_factory=list)
    #: per-layer values only some workloads have (batch and serve ratios)
    layer_values: dict[str, float] = field(default_factory=dict)
    #: extra numbers for the run record (not printed to the driver)
    details: dict[str, object] = field(default_factory=dict)


@dataclass
class Context:
    """Seed, run length, tracer, host-speed samples and scratch space of
    one workload run."""

    seed: int
    seconds: float
    setups: int
    tracer: Tracer
    workdir: Path
    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        self.paces: dict[str, Pace] = {}

    def pace(self, phase: str) -> Pace:
        """The host-speed samples of run phase ``phase``."""
        return self.paces.setdefault(phase, Pace())

    def rng_for(self, label: str) -> random.Random:
        """An independent stream of the run's seed (oracle samples stay
        the same whatever the timed phase consumed)."""
        return random.Random(f"{self.seed}:{label}")

    # -- phases ---------------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Tag spans opened inside with run phase ``name``."""
        previous, self.tracer.phase = self.tracer.phase, name
        self.tracer.op = None
        try:
            yield
        finally:
            self.tracer.phase = previous

    def span(self, name: str, op: object = None):
        return self.tracer.span(name, op)

    def op(self, op_id: object):
        """Span one timed operation (the unit coverage is measured on)."""
        self.tracer.op = op_id
        return self.tracer.span(OP, op_id)

    def repeat_setup(self, build: Callable[[], object],
                     teardown: Callable[[object], None] | None = None,
                     ) -> tuple[list[float], object]:
        """Run ``build`` :attr:`setups` times, timing each; every result but
        the last is torn down.  Returns the times, scaled to the reference
        host, and the last result."""
        pace = self.pace("setup")
        times: list[float] = []
        result = None
        with self.phase("setup"):
            for i in range(self.setups):
                if result is not None and teardown is not None:
                    teardown(result)
                start = time.perf_counter()
                result = build()
                times.append(time.perf_counter() - start)
                pace.keep_up(times[-1])
        return pace.scaled(times), result

    def until(self, seconds: float) -> Iterator[int]:
        """Yield operation numbers until ``seconds`` have passed, sampling
        the host's speed (phase ``timed``) between operations."""
        pace = self.pace("timed")
        deadline = time.perf_counter() + seconds
        n = 0
        busy = 0.0
        while n == 0 or time.perf_counter() < deadline:
            pace.keep_up(busy)
            start = time.perf_counter()
            yield n
            busy = time.perf_counter() - start
            n += 1

    # -- library calls, each one a span -------------------------------------

    def run_flow(self, netlist, part: str, constraints: Constraints, **kwargs) -> FlowResult:
        with self.span("flow.run_flow"):
            result = run_flow(netlist, part, constraints, **kwargs)
        t = self.tracer
        if t.enabled:
            place, route = result.place_stats, result.route_stats
            t.note("flow.place_moves", place.moves_attempted)
            t.note("flow.place_accepted", place.moves_accepted)
            t.note("flow.route_iterations", route.iterations)
            t.note("flow.route_nodes_popped", route.nodes_popped)
            t.note("flow.route_rip_ups", route.rip_ups)
            t.note("flow.route_nets", route.nets)
            t.note("flow.nets_reused", route.nets_reused)
        return result

    def bitgen(self, design) -> BitFile:
        with self.span("bitstream.bitgen"):
            return bitgen(design)

    def write_sources(self, design, constraints: Constraints) -> tuple[str, str]:
        """The ``.xdl`` and ``.ucf`` text phase 2 hands to JPG."""
        with self.span("xdl.write"):
            xdl = write_xdl(design)
        with self.span("ucf.write"):
            ucf = write_ucf(UcfFile(constraints))
        return xdl, ucf

    def jpg_generate(self, part: str, base: BitFile, xdl: str, ucf: str) -> PartialResult:
        """What ``jpg generate`` does: a fresh tool on the base, one partial."""
        with self.span("core.jpg_init"):
            jpg = Jpg(part, base)
        with self.span("ucf.parse"):
            constraints = parse_ucf(ucf)
        with self.span("core.make_partial"):
            return jpg.make_partial(xdl, ucf=constraints)

    def download(self, xhwif: SimulatedXhwif, data: bytes) -> DownloadReport:
        with self.span("hwsim.download"):
            report = xhwif.send_report(data)
        self.tracer.note("hwsim.download_cclk_cycles", report.cycles)
        return report


def quantile(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values, q: float) -> float:
    """The ``q``-quantile of ``values`` (in time order) as the median over
    consecutive windows each large enough to leave ten samples beyond it,
    so one stall moves one window, not the run's result."""
    n = len(values)
    k = max(1, n // round(10 / (1 - q)))
    return statistics.median(quantile(values[i * n // k:(i + 1) * n // k], q)
                             for i in range(k))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
