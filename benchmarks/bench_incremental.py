"""INCR — incremental design support for the conventional baseline.

Paper §4.1, on the 36 conventional runs: "(The runs may not be independent
— they could take advantage of incremental design support if present in
the tools used.)"  Our flow has that support: a run guided by a previous
combination's NCD locks matching placements and **adopts matching routes**
(guide files, Figure 2).  This bench quantifies how much of a combination
run is saved when only one region's module changes — and shows the gap to
JPG's approach remains, because the incremental run still produces a full
bitstream that must be stored and downloaded whole.
"""

import pytest

from repro.baselines.fullflow import build_combination_netlist
from repro.flow import clear_flow_cache, run_flow
from repro.workloads import figure4_plan

from .conftest import BENCH_PART


@pytest.fixture(scope="module")
def plans():
    return figure4_plan(BENCH_PART)


@pytest.fixture(scope="module")
def first_combo(plans):
    from repro.core.project import JpgProject

    project = JpgProject("incr", BENCH_PART)
    for plan in plans:
        project.add_region(plan.name, plan.rect)
    cons = project.constraints()
    choice = {"r1": "up", "r2": "taps_a", "r3": "1111"}
    nl = build_combination_netlist("combo_a", plans, choice)
    return cons, run_flow(nl, BENCH_PART, cons, seed=5)


class TestIncrementalReuse:
    def test_neighbour_combination_reuses_static_regions(self, plans, first_combo):
        cons, base = first_combo
        # change only r3's module; r1/r2 logic is name-identical
        choice = {"r1": "up", "r2": "taps_a", "r3": "1010"}
        nl = build_combination_netlist("combo_b", plans, choice)
        res = run_flow(nl, BENCH_PART, cons, guide=base.design, seed=6)
        assert res.design.routed()
        assert res.route_stats.nets_reused > 0
        # the static regions' slices sit exactly where the guide had them
        for name, comp in res.design.slices.items():
            if name.startswith(("r1/", "r2/")) and name in base.design.slices:
                assert comp.site == base.design.slices[name].site

    def test_incremental_faster_than_cold(self, plans, first_combo):
        cons, base = first_combo
        choice = {"r1": "up", "r2": "taps_a", "r3": "1010"}
        nl = build_combination_netlist("combo_b", plans, choice)
        cold = run_flow(nl, BENCH_PART, cons, seed=6)
        warm = run_flow(nl, BENCH_PART, cons, guide=base.design, seed=6)
        # placement has far fewer movables and routing adopts nets
        assert warm.place_stats.movable < cold.place_stats.movable
        assert warm.route_stats.searches < cold.route_stats.searches

    def test_behaviour_identical_cold_vs_warm(self, plans, first_combo):
        from repro.bitstream.bitgen import bitgen
        from repro.hwsim import Board, DesignHarness

        cons, base = first_combo
        choice = {"r1": "up", "r2": "taps_a", "r3": "1010"}
        nl = build_combination_netlist("combo_b", plans, choice)
        cold = run_flow(nl, BENCH_PART, cons, seed=6)
        warm = run_flow(nl, BENCH_PART, cons, guide=base.design, seed=6)
        boards = []
        for flow in (cold, warm):
            b = Board(BENCH_PART)
            b.download(bitgen(flow.design))
            boards.append(DesignHarness(b, flow.design))
        outs = [f"r1_o{i}" for i in range(4)] + ["r3_match"]
        for _ in range(10):
            assert boards[0].outputs() == boards[1].outputs()
            for h in boards:
                h.clock()


class TestIncrementalTiming:
    def test_cold_combination_run(self, benchmark, plans, first_combo):
        cons, _ = first_combo
        choice = {"r1": "up", "r2": "taps_a", "r3": "1010"}
        nl = build_combination_netlist("combo_b", plans, choice)

        def cold():
            return run_flow(nl, BENCH_PART, cons, seed=6)

        result = benchmark.pedantic(
            cold, setup=clear_flow_cache, rounds=3, iterations=1)
        assert result.design.routed()

    def test_incremental_combination_run(self, benchmark, plans, first_combo):
        cons, base = first_combo
        choice = {"r1": "up", "r2": "taps_a", "r3": "1010"}
        nl = build_combination_netlist("combo_b", plans, choice)

        def warm():
            return run_flow(nl, BENCH_PART, cons, guide=base.design, seed=6)

        result = benchmark.pedantic(
            warm, setup=clear_flow_cache, rounds=3, iterations=1)
        assert result.route_stats.nets_reused > 0
