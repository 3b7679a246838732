"""Flow driver tests."""

from repro.flow import clear_flow_cache, run_flow
from repro.workloads import build_module_netlist, figure4_plan
from tests.conftest import build_counter_netlist
from tests.flow.test_route_golden import design_digest


def netlist_snapshot(nl):
    """Everything a flow could disturb in a caller's netlist."""
    return (
        nl.stats(),
        {n: (c.kind, dict(c.params), dict(c.pins)) for n, c in nl.cells.items()},
        {n: (net.driver, list(net.sinks)) for n, net in nl.nets.items()},
        {n: (p.direction, p.buffer_cell) for n, p in nl.ports.items()},
    )


class TestRunFlow:
    def test_phases_timed(self, counter_flow):
        times = counter_flow.phase_seconds
        assert set(times) == {"techmap", "pack", "place", "route", "timing"}
        assert all(t >= 0 for t in times.values())
        assert counter_flow.total_seconds == sum(times.values())

    def test_sta_phase_timed(self, counter_flow):
        # regression: analyze() used to run outside the timed phases, so
        # total_seconds under-reported the flow's cost
        assert counter_flow.phase_seconds["timing"] > 0

    def test_summary_text(self, counter_flow):
        text = counter_flow.summary()
        assert "XCV50" in text and "slices" in text and "MHz" in text
        assert "sta " in text

    def test_input_netlist_untouched(self):
        nl, _ = build_counter_netlist()
        cells_before = set(nl.cells)
        run_flow(nl, "XCV50", seed=1)
        assert set(nl.cells) == cells_before  # flow works on a copy

    def test_rerun_on_one_netlist_is_identical(self):
        plan = figure4_plan("XCV100")[1]
        nl = build_module_netlist("taps", plan.name, plan.variants[0])
        before = netlist_snapshot(nl)
        first = run_flow(nl, "XCV100", seed=3)
        assert netlist_snapshot(nl) == before
        clear_flow_cache()  # the second run must place and route again
        second = run_flow(nl, "XCV100", seed=3)
        assert not second.cached
        assert netlist_snapshot(nl) == before
        assert design_digest(first.design) == design_digest(second.design)

    def test_stats_chain(self, counter_flow):
        assert counter_flow.techmap_stats.luts_after <= counter_flow.techmap_stats.luts_before
        assert counter_flow.pack_stats.slices == len(counter_flow.design.slices)
        assert counter_flow.route_stats.routed == counter_flow.route_stats.nets

    def test_seeds_vary_placement(self):
        nl, _ = build_counter_netlist(6)
        r1 = run_flow(nl, "XCV50", seed=1)
        r2 = run_flow(nl, "XCV50", seed=2)
        sites1 = {n: c.site for n, c in r1.design.slices.items()}
        sites2 = {n: c.site for n, c in r2.design.slices.items()}
        assert sites1 != sites2

    def test_larger_parts_accepted(self):
        nl, _ = build_counter_netlist(4)
        res = run_flow(nl, "XCV100", seed=1)
        assert res.design.part == "XCV100"
        assert res.design.routed()
