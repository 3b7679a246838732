"""Golden routing fixture on the XCV100 Figure-4 scenario.

Each digest is a sha256 over one flow result: every slice and IOB site,
every net's sorted PIPs, and every sink's physical pin and delay.  The
designs are the Figure-4 base (seed 0), its 10 guided module versions,
and three full-chip combinations at seeds 0, 1 and 2 — the same builds
the fig4-e2e and fullchip-flow benchmark workloads run.  A change to the
placer, the router or the device graph that alters any of them fails
here, whichever engine it touches.
"""

import hashlib

import pytest

from repro.baselines.fullflow import build_combination_netlist, enumerate_combinations
from repro.flow import run_flow
from repro.workloads import (
    build_base_netlist,
    build_module_netlist,
    figure4_plan,
    flow_constraints,
    version_name,
)

PART = "XCV100"

GOLDEN = {
    "base": "df73a4cbd840c9811121afffef90ab613abbe1602470905e3a38514c940b0138",
    "r1/up": "c358bf2760123db6f1ebaa7fa75514ad013dd192bba3d3532cd3a848c1d3aa05",
    "r1/down": "6cc6a3968f26eb419a323d2a5293c78d2ab027f2a14e0ac374e692e7af7d3577",
    "r1/step3": "ee2c415d7b832012fa79a53681a5aa726a63e5211c4fc0c01a2c15744a517ea3",
    "r2/taps_a": "9dd1b40809f16bbd8316c9043853b70eb50e087430266c704637fbf1e2b28717",
    "r2/taps_b": "f393164533debc8e2ae298fc5dad042ebdaf9128b768af396579619d2eecf4db",
    "r2/taps_c": "65b14fa2b6f1d70c35150f6fab499acea81a99e1b6684ad28894e3f14490e4c2",
    "r3/1111": "a81a1ef671d521d6556f7ec24d91d678e3a4ee59f47373908f1a691cf0831a28",
    "r3/1010": "a81a1ef671d521d6556f7ec24d91d678e3a4ee59f47373908f1a691cf0831a28",
    "r3/0101": "a81a1ef671d521d6556f7ec24d91d678e3a4ee59f47373908f1a691cf0831a28",
    "r3/1000": "a81a1ef671d521d6556f7ec24d91d678e3a4ee59f47373908f1a691cf0831a28",
    "full/r1-up_r2-taps_c_r3-1010/seed0": "db3f6e49da1a600af871b33e6d3df17507b461ef036df4137474da407e641693",
    "full/r1-down_r2-taps_b_r3-0101/seed1": "4c7d62d93677c89560574c903cb4708b7b8d20837de590d491361a21738c327b",
    "full/r1-step3_r2-taps_c_r3-1000/seed2": "a7ff7c05aee892d4737cd0de9d4bc9c4ebb1e4de23b6e71e6d8fc10b7392e75f",
}


def design_digest(design) -> str:
    """sha256 over a routed design's sites, PIPs and sink pins/delays."""
    h = hashlib.sha256()
    for name in sorted(design.slices):
        h.update(f"S {name} {design.slices[name].site}\n".encode())
    for name in sorted(design.iobs):
        h.update(f"I {name} {design.iobs[name].site}\n".encode())
    for name in sorted(design.nets):
        net = design.nets[name]
        h.update(f"N {name} {sorted(net.pips)}\n".encode())
        for sink in net.sinks:
            h.update(f"  {sink.ref.comp}.{sink.ref.pin} {sink.phys_pin} "
                     f"{sink.delay_ns!r}\n".encode())
    return h.hexdigest()


def golden_designs():
    """Yield (label, routed design) for every design the fixture pins."""
    plans = figure4_plan(PART)
    constraints = flow_constraints(plans)
    base = run_flow(build_base_netlist("xcv100_base", plans), PART, constraints,
                    seed=0).design
    yield "base", base
    for plan in plans:
        for spec in plan.variants:
            version = version_name(spec)
            netlist = build_module_netlist(f"{plan.name}_{version}", plan.name, spec)
            flow = run_flow(netlist, PART, flow_constraints([plan]), guide=base, seed=0)
            yield f"{plan.name}/{version}", flow.design
    combos = enumerate_combinations(plans)
    picks = (len(combos) // 4, len(combos) // 2, len(combos) - 1)
    for seed, index in enumerate(picks):
        choice = combos[index]
        label = "_".join(f"{r}-{v}" for r, v in sorted(choice.items()))
        netlist = build_combination_netlist(f"combo_{label}", plans, choice)
        flow = run_flow(netlist, PART, constraints, seed=seed)
        yield f"full/{label}/seed{seed}", flow.design


@pytest.fixture(scope="module")
def digests():
    return {label: design_digest(design) for label, design in golden_designs()}


def test_fixture_covers_every_design(digests):
    assert sorted(digests) == sorted(GOLDEN)
    assert len(GOLDEN) == 1 + 10 + 3


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_routing_matches_golden(digests, label):
    assert digests[label] == GOLDEN[label]


if __name__ == "__main__":  # print the table to paste into GOLDEN
    for label, design in golden_designs():
        print(f"    {label!r}: {design_digest(design)!r},")
