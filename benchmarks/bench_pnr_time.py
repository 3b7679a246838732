"""PNR — §4.1: module-only place-and-route vs full-design place-and-route.

"the physical-design time involved in creating partial bitstreams
(mapping, placement and routing time) is significantly less than that for
the complete bitstream" — measured here on the real annealer + PathFinder:
one sub-module re-implemented in its region vs the full multi-module base
design, plus the scaling of P&R time with design size.
"""

import pytest

from repro.flow import clear_flow_cache, run_flow
from repro.workloads import (
    ModuleSpec,
    build_base_netlist,
    build_module_netlist,
    figure4_plan,
)

from .conftest import BENCH_PART


@pytest.fixture(scope="module")
def plans():
    return figure4_plan(BENCH_PART)


class TestModuleVsFullDesign:
    def test_full_design_flow(self, benchmark, plans):
        base = build_base_netlist("base", plans)

        def full():
            return run_flow(base, BENCH_PART, seed=5)

        result = benchmark.pedantic(
            full, setup=clear_flow_cache, rounds=3, iterations=1)
        assert result.design.routed()

    def test_single_module_flow(self, benchmark, plans):
        nl = build_module_netlist("mod", "r1", plans[0].variants[1])

        def module():
            return run_flow(nl, BENCH_PART, seed=5)

        result = benchmark.pedantic(
            module, setup=clear_flow_cache, rounds=3, iterations=1)
        assert result.design.routed()

    def test_module_flow_is_faster(self, plans):
        """The headline §4.1 inequality, asserted directly."""
        base = build_base_netlist("base", plans)
        module = build_module_netlist("mod", "r1", plans[0].variants[1])
        clear_flow_cache()  # real place-and-route on both sides
        t_full = run_flow(base, BENCH_PART, seed=5).total_seconds
        t_mod = run_flow(module, BENCH_PART, seed=5).total_seconds
        assert t_mod < t_full


class TestScaling:
    @pytest.mark.parametrize("width", [4, 8, 16])
    def test_runtime_grows_with_design_size(self, benchmark, width):
        nl = build_module_netlist("m", "r1", ModuleSpec("counter", width, "up"))

        def flow():
            return run_flow(nl, BENCH_PART, seed=1)

        result = benchmark.pedantic(
            flow, setup=clear_flow_cache, rounds=2, iterations=1)
        assert result.design.routed()

