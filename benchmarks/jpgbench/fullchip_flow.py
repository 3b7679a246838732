"""fullchip-flow: the conventional baseline JPG is measured against.

Closed loop.  Each of the 36 Figure-4 combinations goes through the
full-chip flow and ``bitgen``, in a seeded order, with a new flow seed each
round of 36: the phase-1 cost the paper's "36 runs of the CAD tool flow"
refers to.  Place-and-route does almost all the work and JPG none; no
input repeats, so caching flow results should not move it.

Round r uses flow seed r, so every run builds nearly the same population
of (combination, seed) pairs and only the order is the run's: with a
seed drawn per build, the p90 moved 20% between runs.
"""

from __future__ import annotations

import statistics
import time

from repro.errors import ReproError
from repro.workloads import version_name

from .context import Context, Outcome, peak_rss_mb
from .oracles import behaviour
from .scenarios import Scenario

#: Combinations the reverse behavioural oracle checks.
ORACLE_COMBINATIONS = 2
#: Builds each set-up runs before the timed phase.
WARM_UP_BUILDS = 3


def _label(choice: dict[str, str]) -> str:
    return "+".join(f"{region}/{version}" for region, version in sorted(choice.items()))


def run(ctx: Context) -> Outcome:
    sc = Scenario.figure4()
    rng = ctx.rng
    combinations = sc.combinations()

    def setup():
        for choice in combinations[:WARM_UP_BUILDS]:
            sc.reference(ctx, choice, 0)        # timed rounds use seeds 1, 2, ...

    setup_s, _ = ctx.repeat_setup(setup)

    builds = {}
    item_s: list[float] = []
    order: list[dict[str, str]] = []
    rounds = 0
    with ctx.phase("timed"):
        for n in ctx.until(ctx.seconds):
            if not order:
                rounds += 1
                order = list(combinations)
                rng.shuffle(order)
            choice = order.pop()
            ctx.attempted += 1
            start = time.perf_counter()
            try:
                with ctx.op(n):
                    build = sc.reference(ctx, choice, rounds)
            except ReproError:
                ctx.failed += 1
                continue
            item_s.append(time.perf_counter() - start)
            builds[_label(choice)] = (choice, build)
    rss = peak_rss_mb()

    with ctx.phase("oracle"):
        # the same oracle in reverse: the conventional builds above are the
        # subject, base plus JPG partials built here the reference
        orng = ctx.rng_for("oracle")
        base = sc.implement_base(ctx)
        sampled = orng.sample(sorted(builds), min(ORACLE_COMBINATIONS, len(builds)))
        by_name = {(plan.name, version_name(spec)): (plan, spec) for plan, spec in sc.versions}
        for label in sampled:
            choice, build = builds[label]
            partials = []
            for region, version in sorted(choice.items()):
                plan, spec = by_name[(region, version)]
                src = sc.implement_version(ctx, plan, spec, base)
                partials.append(ctx.jpg_generate(sc.part, base.bitfile, src.xdl, src.ucf).data)
            behaviour(ctx, label, sc.part, base, partials, build, orng)

    full = len(base.bitfile.config_bytes)
    item_s = ctx.pace("timed").scaled(item_s)
    return Outcome(
        setup_s=setup_s,
        op_s=item_s,
        item_s=item_s,
        tail_q=0.90,
        items_per_s=1 / statistics.median(item_s),
        output_ratio=sum(len(b.bitfile.config_bytes) for _, b in builds.values())
        / (full * len(builds)),
        peak_rss_mb=rss,
        oracles=["behaviour"],
    )
