"""Shared fixtures.

Flow runs are the expensive part of this suite, so placed/routed designs
and the two-region project are session-scoped and shared; tests must treat
them as read-only (clone frame memories before mutating).
"""

from __future__ import annotations

import pytest

from repro.bitstream.bitgen import bitgen, generate_frames
from repro.devices import get_device
from repro.flow import clear_flow_cache, run_flow
from repro.netlist import NetlistBuilder
from repro.workloads import ModuleSpec, RegionPlan, make_project, slab_regions
from repro.workloads.generators import attach_module


def build_counter_netlist(width: int = 4, prefix: str = "u1", name: str = "counter"):
    """An up-counter with outputs, the suite's standard small design."""
    b = NetlistBuilder(name)
    clk = b.clock("clk")
    gen = attach_module(b, prefix, ModuleSpec("counter", width, "up"), clk)
    return b.finish(), gen


def build_comb_netlist(name: str = "comb"):
    """A purely combinational design (no clock)."""
    b = NetlistBuilder(name)
    a, c, d = b.input("a"), b.input("c"), b.input("d")
    b.output("y", b.xor_(b.and_(a, c), d))
    b.output("z", b.or_(a, b.not_(d)))
    return b.finish()


@pytest.fixture(autouse=True)
def _fresh_flow_cache():
    """Start every test with an empty flow cache, so a flow a test runs
    is placed and routed unless the test itself repeats it."""
    clear_flow_cache()


@pytest.fixture(scope="session")
def xcv50():
    return get_device("XCV50")


@pytest.fixture(scope="session")
def xcv300():
    return get_device("XCV300")


@pytest.fixture(scope="session")
def counter_netlist():
    return build_counter_netlist()[0]


@pytest.fixture(scope="session")
def counter_flow(counter_netlist):
    """Placed and routed 4-bit counter on XCV50."""
    return run_flow(counter_netlist, "XCV50", seed=1)


@pytest.fixture(scope="session")
def counter_frames(counter_flow):
    return generate_frames(counter_flow.design)


@pytest.fixture(scope="session")
def counter_bitfile(counter_flow):
    return bitgen(counter_flow.design)


@pytest.fixture(scope="session")
def comb_flow():
    return run_flow(build_comb_netlist(), "XCV50", seed=2)


@pytest.fixture(scope="session")
def two_region_plans():
    rects = slab_regions("XCV50", ["r1", "r2"])
    return [
        RegionPlan(
            "r1", rects[0],
            ModuleSpec("counter", 4, "up"),
            (ModuleSpec("counter", 4, "up"), ModuleSpec("counter", 4, "down")),
        ),
        RegionPlan(
            "r2", rects[1],
            ModuleSpec("ring", 4, "left"),
            (ModuleSpec("ring", 4, "left"), ModuleSpec("ring", 4, "right")),
        ),
    ]


@pytest.fixture(scope="session")
def demo_project(two_region_plans):
    """The standard two-region JPG project on XCV50 (base + 4 versions)."""
    return make_project("demo", "XCV50", two_region_plans, seed=3)


# -- device-family parametrization (the `families` marker) --------------------

#: The deliberately-irregular declarative variants every family-parametrized
#: suite runs over: asymmetric BRAM (one side / swapped), non-default clock
#: and IOB frame counts, spare CLB minors, 128-bit BRAM content interleave.
FAMILY_PARTS = ("XCVT24", "XCVW12", "XCVZ8")

_family_projects: dict = {}


def family_project(part: str):
    """A small one-region project on ``part`` (session-cached per part).

    Works for catalog parts, the shipped variants, and seeded random
    devices alike — anything :func:`repro.devices.get_device` resolves.
    """
    if part not in _family_projects:
        rects = slab_regions(part, ["r1"])
        plans = [RegionPlan(
            "r1", rects[0],
            ModuleSpec("counter", 4, "up"),
            (ModuleSpec("counter", 4, "up"), ModuleSpec("counter", 4, "down")),
        )]
        _family_projects[part] = make_project(f"fam-{part}", part, plans, seed=7)
    return _family_projects[part]


def random_family_project(seed: int):
    """Register the seeded random device and build a project on it."""
    from repro.devices import random_device

    device = random_device(seed)
    return family_project(device.name)
