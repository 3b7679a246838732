"""The flow-result cache behind ``run_flow``.

A repeated flow is served from stored NCD bytes and serialised stats
instead of being placed and routed again.  These tests pin what a hit
must preserve (the bytes of a fresh run, independence between callers)
and what must never hit (any changed input, ``seed=None``).
"""

import sys
import threading

import pytest

from repro.flow import (
    AreaGroup,
    Constraints,
    NcdDesign,
    RegionRect,
    clear_flow_cache,
    run_flow,
)
from repro.flow import driver
from repro.obs import Metrics, use_metrics
from repro.xdl import write_xdl
from tests.conftest import build_comb_netlist, build_counter_netlist

PART = "XCV50"


def _constraints(rect=RegionRect(0, 2, 15, 7), prohibited=((3, 4),)):
    return Constraints(groups=[AreaGroup("AG", ["u1/*"], rect)],
                       prohibited=set(prohibited))


@pytest.fixture(scope="module")
def guide():
    """A constrained counter flow at another seed: the guide design."""
    nl, _ = build_counter_netlist(4)
    return run_flow(nl, PART, _constraints(), seed=2).design


def flow_args(guide=None, **overrides):
    args = dict(netlist=build_counter_netlist(4)[0], part=PART,
                constraints=_constraints(), guide=guide, seed=1)
    args.update(overrides)
    return args


def run(args):
    args = dict(args)
    return run_flow(args.pop("netlist"), args.pop("part"), args.pop("constraints"), **args)


def stats_of(result):
    return (result.techmap_stats, result.pack_stats, result.place_stats,
            result.route_stats, result.timing)


class TestHitsAreFreshRuns:
    @pytest.mark.parametrize("guided", [False, True], ids=["unguided", "guided"])
    def test_hit_bytes_equal_the_miss_and_an_uncached_run(self, guide, guided):
        args = flow_args(guide if guided else None)
        miss = run(args)
        hit = run(args)
        clear_flow_cache()
        fresh = run(args)
        assert (miss.cached, hit.cached, fresh.cached) == (False, True, False)
        assert hit.design.to_bytes() == miss.design.to_bytes() == fresh.design.to_bytes()
        assert write_xdl(hit.design) == write_xdl(fresh.design)
        assert stats_of(hit) == stats_of(miss)
        assert hit.design is not miss.design

    def test_hit_reports_no_phase_time(self):
        args = flow_args()
        miss = run(args)
        hit = run(args)
        assert miss.total_seconds > 0
        assert hit.phase_seconds == dict.fromkeys(miss.phase_seconds, 0.0)
        assert hit.total_seconds == 0.0
        assert "slices" in hit.summary()

    def test_mutating_a_result_leaves_the_next_hit_unchanged(self):
        args = flow_args()
        miss = run(args)
        expected = miss.design.to_bytes()
        moves = miss.place_stats.moves_attempted
        for result in (miss, run(args)):
            result.design.nets.clear()
            next(iter(result.design.slices.values())).site = None
            result.place_stats.moves_attempted = -1
            result.timing.endpoints.clear()
            hit = run(args)
            assert hit.cached
            assert hit.design.to_bytes() == expected
            assert hit.place_stats.moves_attempted == moves
            assert hit.timing.endpoints


def _flip_init(args):
    cell = next(c for c in args["netlist"].cells.values() if c.kind.is_lut)
    cell.params["INIT"] ^= 1


def _flip_sink_order(args):
    net = next(n for n in args["netlist"].nets.values() if len(n.sinks) > 1)
    net.sinks.reverse()


def _flip_guide_pip(args):
    guide = NcdDesign.from_bytes(args["guide"].to_bytes())
    net = next(n for n in guide.nets.values() if n.pips and not n.is_clock)
    row, col, pip = net.pips[-1]
    net.pips[-1] = (row, col, pip ^ 1)
    args["guide"] = guide


FLIPS = {
    "lut_init_bit": _flip_init,
    "sink_order": _flip_sink_order,
    "group_range": lambda a: a.update(constraints=_constraints(rect=RegionRect(0, 2, 15, 8))),
    "prohibited_tile": lambda a: a.update(constraints=_constraints(prohibited=((3, 4), (9, 1)))),
    "guide_pip": _flip_guide_pip,
    "seed": lambda a: a.update(seed=2),
    "effort": lambda a: a.update(effort=0.5),
    "router_option": lambda a: a.update(router_opts={"hist_fac": 0.5}),
    "router_guide": lambda a: a.update(router_opts={"guide": None}),
}


class TestKey:
    @pytest.mark.parametrize("flip", sorted(FLIPS))
    def test_changing_one_input_misses(self, guide, flip):
        run(flow_args(guide))
        args = flow_args(guide)
        FLIPS[flip](args)
        assert not run(args).cached
        assert driver._flow_cache.misses == 2

    def test_unchanged_inputs_in_new_objects_hit(self, guide):
        run(flow_args(guide))
        again = flow_args(NcdDesign.from_bytes(guide.to_bytes()))
        assert run(again).cached

    def test_router_options_spelling_out_defaults_hit(self):
        run(flow_args())
        assert run(flow_args(router_opts={"max_iterations": 30})).cached

    def test_unseeded_flows_are_never_stored(self):
        nl = build_comb_netlist()
        for _ in range(2):
            assert not run_flow(nl, PART, seed=None).cached
        assert len(driver._flow_cache) == 0
        assert driver._flow_cache.hits == driver._flow_cache.misses == 0


class TestStore:
    def test_the_entry_past_the_cap_evicts_the_least_recently_used(self):
        nl = build_comb_netlist()
        cache = driver._flow_cache
        run_flow(nl, PART, seed=0)
        run_flow(nl, PART, seed=1)
        for i in range(driver._FLOW_CACHE_MAX - 2):   # fill with stand-ins
            cache.put(f"filler {i}", (b"", b""))
        assert run_flow(nl, PART, seed=0).cached     # seed 0 is now the newest
        run_flow(nl, PART, seed=2)                    # the 65th entry: seed 1 goes
        assert len(cache) == driver._FLOW_CACHE_MAX
        assert cache.evictions == 1
        assert run_flow(nl, PART, seed=0).cached
        assert not run_flow(nl, PART, seed=1).cached

    def test_threads_running_one_flow_get_identical_bytes(self, guide):
        args = flow_args(guide)
        start = threading.Barrier(4)
        results = [[] for _ in range(4)]
        errors = []

        def worker(i):
            try:
                start.wait(timeout=30)
                for _ in range(3):
                    results[i].append(run(args).design.to_bytes())
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        cache = driver._flow_cache
        assert cache.hits + cache.misses == 12   # no count was lost
        assert len(cache) == 1
        clear_flow_cache()
        assert [b for r in results for b in r] == [run(args).design.to_bytes()] * 12

    def test_counters(self):
        args = flow_args()
        miss_metrics, hit_metrics = Metrics(), Metrics()
        with use_metrics(miss_metrics):
            run(args)
        with use_metrics(hit_metrics):
            run(args)
            run(args)
        assert miss_metrics.counter("flow.cache.misses") == 1
        assert miss_metrics.counter("flow.cache.hits") == 0
        assert "flow.place" in miss_metrics.timers
        assert hit_metrics.counter("flow.cache.hits") == 2
        assert hit_metrics.counter("flow.cache.misses") == 0
        # a hit ran no stage and did no placement or routing work
        assert not [t for t in hit_metrics.timers if t.startswith("flow.")]
        assert set(hit_metrics.counters) == {"flow.cache.hits"}
        assert (driver._flow_cache.hits, driver._flow_cache.misses) == (2, 1)
        clear_flow_cache()
        assert (driver._flow_cache.hits, driver._flow_cache.misses) == (0, 0)
