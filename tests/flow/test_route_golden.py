"""Golden routing fixtures.

Each digest is a sha256 over one flow result: every slice and IOB site,
every net's sorted PIPs, and every sink's physical pin and delay.

* ``GOLDEN`` — the XCV100 Figure-4 base (seed 0), its 10 guided module
  versions, and three full-chip combinations at seeds 0, 1 and 2: the
  same builds the fig4-e2e and fullchip-flow benchmark workloads run.
* ``GOLDEN_XCV50`` — width-8 counters at three seeds and a width-6 flow
  with its guided re-run, on XCV50.  ``GOLDEN_XCV50_STATS`` also pins
  each run's search effort (PathFinder iterations, rip-ups, A* searches
  and nodes popped).
* ``GOLDEN_FLOW_CASES`` — :func:`repro.workloads.flow_cases` (the
  Figure-4 XCV100 base and the XCV1000 scale base) at seed 5;
  slow-marked.

The slow tests also rebuild ``GOLDEN`` and ``GOLDEN_FLOW_CASES`` a second
time, served from the flow cache, and hold that pass to the same digests.

A change to the placer, the router or the device graph that alters any
of them fails here.  Print the tables with
``PYTHONPATH=src python -m tests.flow.test_route_golden`` — but paste
them in only when a routing change is intended.
"""

import hashlib

import pytest

from repro.baselines.fullflow import build_combination_netlist, enumerate_combinations
from repro.flow import run_flow
from repro.flow.pack import pack
from repro.flow.place import place
from repro.flow.route import route
from repro.flow.techmap import techmap
from repro.workloads import (
    build_base_netlist,
    build_module_netlist,
    figure4_plan,
    flow_cases,
    flow_constraints,
    version_name,
)
from tests.conftest import build_counter_netlist

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

GOLDEN_XCV50 = {
    "counter8/seed1": "fe393a64904c3025f742b6b48c3e64a802e358d33f2c2785e5350c7034c28d01",
    "counter8/seed4": "5942b237d0ee072e9805b6301b3819ca7162fbdd8d2da2ec71bff684c756b7d1",
    "counter8/seed42": "515a03d94cace80bc269a12bce66adbad4b5ae616ae84243f7e9199ba2b06520",
    "flow6/seed2": "38776ee34d8b75cbb7ff5fbc88aeeeea55d980f4987af434820870575f321835",
    "flow6/guided/seed2": "38776ee34d8b75cbb7ff5fbc88aeeeea55d980f4987af434820870575f321835",
}

#: ``(iterations, rip_ups, searches, nodes_popped)`` of each XCV50 routing
#: run: the search effort behind the ``GOLDEN_XCV50`` digests.
GOLDEN_XCV50_STATS = {
    "counter8/seed1": (3, 8, 56, 5802),
    "counter8/seed4": (3, 5, 49, 6848),
    "counter8/seed42": (4, 12, 66, 5799),
    "flow6/seed2": (2, 5, 37, 3443),
    "flow6/guided/seed2": (0, 0, 0, 0),
}

#: Seed of the flow-case fixture.
FLOW_CASE_SEED = 5

GOLDEN_FLOW_CASES = {
    "fig4-XCV100/seed5": "2eabfe50462ad30e6bd11f8c560c0be4182e51e1ae4d4cfb6c597111c191cf66",
    "scale-XCV1000/seed5": "04d4c53a17b0d60474172fb03b90bed394600c6961b84a11153f361fbae00a6e",
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


def golden_designs(flow=run_flow):
    """Yield (label, routed design) for every design the fixture pins,
    running each flow through ``flow``."""
    plans = figure4_plan(PART)
    constraints = flow_constraints(plans)
    base = flow(build_base_netlist("xcv100_base", plans), PART, constraints,
                seed=0).design
    yield "base", base
    for plan in plans:
        for spec in plan.variants:
            version = version_name(spec)
            netlist = build_module_netlist(f"{plan.name}_{version}", plan.name, spec)
            result = flow(netlist, PART, flow_constraints([plan]), guide=base, seed=0)
            yield f"{plan.name}/{version}", result.design
    combos = enumerate_combinations(plans)
    picks = (len(combos) // 4, len(combos) // 2, len(combos) - 1)
    for seed, index in enumerate(picks):
        choice = combos[index]
        label = "_".join(f"{r}-{v}" for r, v in sorted(choice.items()))
        netlist = build_combination_netlist(f"combo_{label}", plans, choice)
        result = flow(netlist, PART, constraints, seed=seed)
        yield f"full/{label}/seed{seed}", result.design


def xcv50_designs():
    """Yield (label, routed design, routing stats) for the XCV50 designs."""
    for seed in (1, 4, 42):
        nl, _ = build_counter_netlist(8)
        techmap(nl)
        design = pack(nl, "XCV50")[0]
        place(design, seed=seed)
        stats = route(design, seed=seed)
        yield f"counter8/seed{seed}", design, stats
    nl, _ = build_counter_netlist(6)
    base = run_flow(nl, "XCV50", seed=2)
    yield "flow6/seed2", base.design, base.route_stats
    guided = run_flow(nl, "XCV50", guide=base.design, seed=2)
    yield "flow6/guided/seed2", guided.design, guided.route_stats


def search_stats(stats) -> tuple[int, int, int, int]:
    """The PathFinder effort a routing run reports."""
    return stats.iterations, stats.rip_ups, stats.searches, stats.nodes_popped


def flow_case_designs(flow=run_flow):
    """Yield (label, routed design) for every ``flow_cases()`` design."""
    for label, part, netlist, constraints in flow_cases():
        result = flow(netlist, part, constraints, seed=FLOW_CASE_SEED)
        yield f"{label}/seed{FLOW_CASE_SEED}", result.design


@pytest.fixture(scope="module")
def digests():
    return {label: design_digest(design) for label, design in golden_designs()}


def test_fixture_covers_every_design(digests):
    assert sorted(digests) == sorted(GOLDEN)
    assert len(GOLDEN) == 1 + 10 + 3


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_routing_matches_golden(digests, label):
    assert digests[label] == GOLDEN[label]


def test_xcv50_routing_matches_golden():
    got = {label: design_digest(d) for label, d, _ in xcv50_designs()}
    assert got == GOLDEN_XCV50


def test_xcv50_routing_stats_match_golden():
    got = {label: search_stats(st) for label, _, st in xcv50_designs()}
    assert got == GOLDEN_XCV50_STATS


def _served_from_cache(*args, **kwargs):
    result = run_flow(*args, **kwargs)
    assert result.cached
    return result


@pytest.mark.slow
def test_cached_pass_matches_golden():
    fresh = {label: design_digest(d) for label, d in golden_designs()}
    cached = {label: design_digest(d) for label, d in golden_designs(_served_from_cache)}
    assert fresh == GOLDEN
    assert cached == GOLDEN


@pytest.mark.slow
def test_flow_cases_match_golden():
    got = {label: design_digest(d) for label, d in flow_case_designs()}
    assert got == GOLDEN_FLOW_CASES
    cached = {label: design_digest(d)
              for label, d in flow_case_designs(_served_from_cache)}
    assert cached == GOLDEN_FLOW_CASES


if __name__ == "__main__":  # print the tables to paste above
    for title, rows in (("GOLDEN", golden_designs()),
                        ("GOLDEN_XCV50", ((l, d) for l, d, _ in xcv50_designs())),
                        ("GOLDEN_FLOW_CASES", flow_case_designs())):
        print(f"{title} = {{")
        for label, design in rows:
            print(f'    "{label}": "{design_digest(design)}",')
        print("}\n")
    print("GOLDEN_XCV50_STATS = {")
    for label, _, stats in xcv50_designs():
        print(f'    "{label}": {search_stats(stats)},')
    print("}")
