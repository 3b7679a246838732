"""Placer and router behaviour the golden digests do not spell out.

Same-seed reproducibility, the rip-up count, guide adoption, the A*
sink heuristic, the unroutable-error message and the flow metrics.  The
placements and routings themselves are pinned by
``test_place_golden.py`` and ``test_route_golden.py``.
"""

import pytest

from repro.devices import wires as W
from repro.flow import run_flow
from repro.flow.pack import pack
from repro.flow.place import place
from repro.flow.route import Router, _tile_heuristic, route
from repro.flow.techmap import techmap
from repro.obs import Metrics, use_metrics
from tests.conftest import build_counter_netlist


def packed_design(width=4):
    nl, _ = build_counter_netlist(width)
    techmap(nl)
    design, _ = pack(nl, "XCV50")
    return design


def placement_of(design):
    sites = {n: c.site for n, c in design.slices.items()}
    sites.update({n: str(c.site) for n, c in design.iobs.items()})
    return sites


class TestPlacementEquivalence:
    def test_same_engine_reproducible(self):
        a, b = packed_design(), packed_design()
        place(a, seed=9)
        place(b, seed=9)
        assert placement_of(a) == placement_of(b)


class TestRoutingEquivalence:
    def test_rip_up_stat_counts_reroutes(self):
        design = packed_design(8)
        place(design, seed=1)
        st = route(design, seed=1)
        # width-8 at this seed needs multiple PathFinder iterations, so
        # some established trees must have been torn down and re-routed
        assert st.iterations > 1
        assert st.rip_ups > 0


class TestFlowEquivalence:
    def test_guide_adoption_unaffected_by_engine(self):
        nl, _ = build_counter_netlist(6)
        base = run_flow(nl, "XCV50", seed=2)
        res = run_flow(nl, "XCV50", guide=base.design, seed=2)
        assert res.design.routed()
        assert res.route_stats.nets_reused > 0


class TestSinkHeuristic:
    def test_multi_tile_candidates_use_nearest(self):
        """Regression: the A* heuristic assumed all sink candidates share
        a tile; with candidates in different tiles it must lower-bound
        against the *nearest* one to stay admissible."""
        design = packed_design()
        place(design, seed=1)
        router = Router(design, seed=1)
        dev = router.device
        w = W.wire_index("S0_F1")   # tile-local wire (no canonicalization)
        near = dev.node_id(0, 1, w)
        far = dev.node_id(10, 10, w)
        h = _tile_heuristic(router._sink_tiles((far, near)))
        # a node one tile from `near` must be bounded by that distance,
        # not by its distance to the first-listed candidate
        assert h(0, 0) == pytest.approx(1 * 0.20)
        assert h(0, 1) == 0.0

    def test_single_tile_unchanged(self):
        design = packed_design()
        place(design, seed=1)
        router = Router(design, seed=1)
        dev = router.device
        cands = tuple(
            dev.node_id(3, 4, W.wire_index(f"S0_F{k}")) for k in range(1, 5)
        )
        h = _tile_heuristic(router._sink_tiles(cands))
        assert h(3, 9) == pytest.approx(5 * 0.20)


class TestUnroutableMessage:
    def _router(self):
        design = packed_design()
        place(design, seed=1)
        return Router(design, seed=1)

    def test_short_list_not_elided(self):
        router = self._router()
        err = router._unroutable(list(range(3)))
        assert "3 overused nodes" in str(err)
        assert "..." not in str(err)

    def test_long_list_elided(self):
        router = self._router()
        err = router._unroutable(list(range(12)))
        assert "12 overused nodes" in str(err)
        assert str(err).rstrip(")").endswith("...")
        # only the first 8 are spelled out
        assert str(err).count("R1C1.") <= 8


class TestFlowMetrics:
    def test_flow_counters_and_stage_timers(self):
        nl, _ = build_counter_netlist()
        metrics = Metrics()
        with use_metrics(metrics):
            run_flow(nl, "XCV50", seed=1)
        assert metrics.counter("flow.place.moves_attempted") > 0
        assert metrics.counter("flow.place.moves_accepted") > 0
        assert metrics.counter("flow.place.temperatures") > 0
        assert metrics.counter("flow.route.searches") > 0
        assert metrics.counter("flow.route.astar_pops") > 0
        for stage in ("flow.techmap", "flow.pack", "flow.place",
                      "flow.route", "flow.timing"):
            assert stage in metrics.timers, stage
