"""Flow driver: the "Xilinx Foundation tools" entry point.

``run_flow`` takes a logical netlist through mapping, packing, placement
and routing, returning the finished :class:`NcdDesign` plus per-phase
runtimes and statistics — the numbers the paper's P&R-time argument is
about.  The flow works on a :meth:`Netlist.copy`, so callers can re-run
the flow with different constraints (the phase-2 module re-implementation
of JPG's methodology).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..netlist.logical import Netlist
from ..obs import current_metrics
from .floorplan import Constraints
from .ncd import NcdDesign
from .pack import PackStats, pack
from .place import PlacementStats, place
from .route import RoutingStats, route
from .techmap import TechmapStats, techmap
from .timing import TimingReport, analyze


@dataclass
class FlowResult:
    """Everything one flow run produced."""

    design: NcdDesign
    techmap_stats: TechmapStats
    pack_stats: PackStats
    place_stats: PlacementStats
    route_stats: RoutingStats
    timing: TimingReport
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def summary(self) -> str:
        d, t = self.design.stats(), self.phase_seconds
        return (
            f"{self.design.name} on {self.design.part}: "
            f"{d['slices']} slices, {d['nets']} nets, {d['pips']} PIPs; "
            f"fmax {self.timing.fmax_mhz:.1f} MHz; "
            f"map {t['techmap'] + t['pack']:.2f}s, place {t['place']:.2f}s, "
            f"route {t['route']:.2f}s, sta {t['timing']:.2f}s"
        )


def run_flow(
    netlist: Netlist,
    part: str,
    constraints: Constraints | None = None,
    *,
    guide: NcdDesign | None = None,
    seed: int | None = 0,
    effort: float = 1.0,
    engine: str = "array",
    router_opts: dict | None = None,
) -> FlowResult:
    """Run map -> pack -> place -> route -> STA on a copy of ``netlist``.

    ``engine`` selects the placer/router cost engine (``"array"`` or
    ``"scalar"``); both produce identical results for a given seed.
    """
    netlist = netlist.copy()
    times: dict[str, float] = {}
    metrics = current_metrics()

    t = time.perf_counter()
    with metrics.stage("flow.techmap"):
        tm_stats = techmap(netlist)
    times["techmap"] = time.perf_counter() - t

    t = time.perf_counter()
    with metrics.stage("flow.pack"):
        design, pk_stats = pack(netlist, part)
    times["pack"] = time.perf_counter() - t

    t = time.perf_counter()
    with metrics.stage("flow.place"):
        pl_stats = place(
            design, constraints, guide=guide, seed=seed, effort=effort, engine=engine
        )
    times["place"] = time.perf_counter() - t

    t = time.perf_counter()
    opts = dict(router_opts or {})
    opts.setdefault("guide", guide)
    opts.setdefault("engine", engine)
    with metrics.stage("flow.route"):
        rt_stats = route(design, seed=seed, **opts)
    times["route"] = time.perf_counter() - t

    t = time.perf_counter()
    with metrics.stage("flow.timing"):
        timing = analyze(design)
    times["timing"] = time.perf_counter() - t
    return FlowResult(design, tm_stats, pk_stats, pl_stats, rt_stats, timing, times)
