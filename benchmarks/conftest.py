"""Shared benchmark fixtures.

Everything expensive (flow runs, the Figure-4 project) is session-scoped.
Benchmarks default to XCV100 — a mid-size part the paper's scenario fits
comfortably — with sweeps over other family members where the experiment
calls for it.
"""

from __future__ import annotations

import pytest

from repro.bitstream.bitgen import bitgen, generate_frames
from repro.flow import clear_flow_cache, run_flow
from repro.workloads import ModuleSpec, build_module_netlist, figure4_plan, make_project

BENCH_PART = "XCV100"


@pytest.fixture(autouse=True)
def _fresh_flow_cache():
    """Start every benchmark with an empty flow cache."""
    clear_flow_cache()


@pytest.fixture(scope="session")
def fig4_project():
    """The paper's 3x(3,3,4) scenario, fully implemented."""
    return make_project("fig4", BENCH_PART, figure4_plan(BENCH_PART), seed=5)


@pytest.fixture(scope="session")
def fig4_partials(fig4_project):
    return fig4_project.generate_all_partials()


@pytest.fixture(scope="session")
def module_flow():
    """A single-module implementation (the phase-2 workload)."""
    nl = build_module_netlist("mod", "r1", ModuleSpec("counter", 8, "up"))
    return run_flow(nl, BENCH_PART, seed=1)


@pytest.fixture(scope="session")
def module_frames(module_flow):
    return generate_frames(module_flow.design)


@pytest.fixture(scope="session")
def module_bitfile(module_flow):
    return bitgen(module_flow.design)
