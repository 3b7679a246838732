"""Flow driver: the "Xilinx Foundation tools" entry point.

``run_flow`` takes a logical netlist through mapping, packing, placement
and routing, returning the finished :class:`NcdDesign` plus per-phase
runtimes and statistics — the numbers the paper's P&R-time argument is
about.  The flow works on a :meth:`Netlist.copy`, so callers can re-run
the flow with different constraints (the phase-2 module re-implementation
of JPG's methodology).

A design loop re-implements the same module sources again and again, so
``run_flow`` keeps a process-local, content-addressed cache of its
results: a flow whose inputs were all seen before is rebuilt from the
stored NCD bytes instead of being placed and routed again.
"""

from __future__ import annotations

import hashlib
import inspect
import pickle
import time
from dataclasses import dataclass, field

from ..netlist.logical import Netlist
from ..obs import current_metrics
from ..utils import LruStore
from .floorplan import Constraints
from .ncd import NcdDesign
from .pack import PackStats, pack
from .place import PlacementStats, place
from .route import Router, RoutingStats, route
from .techmap import TechmapStats, techmap
from .timing import TimingReport, analyze

_PHASES = ("techmap", "pack", "place", "route", "timing")

_FLOW_CACHE_MAX = 64  # not-a-frame-count: ~4.4 KB NCD per full-chip XCV100 entry
_flow_cache = LruStore(_FLOW_CACHE_MAX)

#: Router keyword defaults: ``router_opts`` spelling out a default share a
#: cache key with ones leaving it out.
_ROUTER_DEFAULTS = {
    name: p.default for name, p in inspect.signature(Router).parameters.items()
    if p.default is not p.empty and name not in ("seed", "guide")
}


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
    #: served from the flow cache: no phase ran, so ``phase_seconds`` are
    #: all zero while the stats describe the run that made the design
    cached: bool = False

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
    router_opts: dict | None = None,
) -> FlowResult:
    """Run map -> pack -> place -> route -> STA on a copy of ``netlist``.

    A flow whose inputs (netlist, part, constraints, guide, seed, effort
    and router options) match a recent call is served from the
    process's flow cache: a fresh copy of that call's design and stats,
    with ``cached`` set and every phase time zero.  ``seed=None`` draws a
    new seed each call, so such calls are never cached.
    """
    opts = dict(router_opts or {})
    opts.setdefault("guide", guide)
    metrics = current_metrics()
    key = None
    if seed is not None:
        key = _flow_key(netlist, part, constraints, guide, seed, effort, opts)
        entry = _flow_cache.get(key)
        if entry is not None:
            metrics.count("flow.cache.hits")
            design_bytes, stats_bytes = entry
            return FlowResult(NcdDesign.from_bytes(design_bytes),
                              *pickle.loads(stats_bytes),
                              dict.fromkeys(_PHASES, 0.0), cached=True)
        metrics.count("flow.cache.misses")

    netlist = netlist.copy()
    times: dict[str, float] = {}

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
        pl_stats = place(design, constraints, guide=guide, seed=seed, effort=effort)
    times["place"] = time.perf_counter() - t

    t = time.perf_counter()
    with metrics.stage("flow.route"):
        rt_stats = route(design, seed=seed, **opts)
    times["route"] = time.perf_counter() - t

    t = time.perf_counter()
    with metrics.stage("flow.timing"):
        timing = analyze(design)
    times["timing"] = time.perf_counter() - t
    stats = (tm_stats, pk_stats, pl_stats, rt_stats, timing)
    if key is not None:
        _flow_cache.put(key, (design.to_bytes(),
                              pickle.dumps(stats, pickle.HIGHEST_PROTOCOL)))
    return FlowResult(design, *stats, times)


def clear_flow_cache() -> None:
    """Drop every cached flow result and zero the cache's counts."""
    _flow_cache.clear()


def _flow_key(
    netlist: Netlist,
    part: str,
    constraints: Constraints | None,
    guide: NcdDesign | None,
    seed: int,
    effort: float,
    router_opts: dict,
) -> str:
    """sha256 over a canonical encoding of everything the flow reads.

    Netlist cells, nets and ports go in insertion order with every field
    (the order steers packing and placement), group order is kept, and
    the prohibited tiles, a set, are sorted.  Guides are keyed by their
    NCD bytes; a router guide that is the placement guide is not encoded
    twice.
    """
    h = hashlib.sha256()
    h.update(repr((
        netlist.name,
        [(c.name, c.kind.value, c.params, c.pins) for c in netlist.cells.values()],
        [(n.name, n.driver, n.sinks) for n in netlist.nets.values()],
        [(p.name, p.direction, p.buffer_cell) for p in netlist.ports.values()],
    )).encode())
    if constraints is None:
        cons = None
    else:
        cons = (
            constraints.locs,
            [(g.name, g.patterns, g.range) for g in constraints.groups],
            sorted(constraints.prohibited),
        )
    route_guide = router_opts["guide"]
    opts = {**_ROUTER_DEFAULTS, **router_opts}
    del opts["guide"]
    h.update(repr((part, cons, sorted(opts.items()), seed, effort,
                   guide is None, route_guide is None, route_guide is guide)).encode())
    if guide is not None:
        h.update(guide.to_bytes())
    if route_guide is not None and route_guide is not guide:
        h.update(route_guide.to_bytes())
    return h.hexdigest()
