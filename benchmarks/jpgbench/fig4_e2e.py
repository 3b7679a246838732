"""fig4-e2e: the paper's §4.1 path, from module source to downloaded partial.

Closed loop, one caller.  Each round takes the 10 Figure-4 versions on an
XCV100 in a seeded order and, for each one, runs what ``jpg generate``
sits in: module netlist -> guided ``run_flow`` -> XDL + UCF text -> a
fresh ``Jpg`` on the base ``.bit`` -> ``make_partial`` -> download to a
live simulated board.  Rounds repeat the same sources (same flow seed),
so a cache of flow results would show here.
"""

from __future__ import annotations

import statistics
import time

from repro.errors import ReproError
from repro.hwsim import Board
from repro.jbits import SimulatedXhwif

from .context import Context, Outcome, peak_rss_mb
from .oracles import OracleError, behaviour
from .scenarios import Scenario

#: Combinations the behavioural oracle checks.
ORACLE_COMBINATIONS = 3


def run(ctx: Context) -> Outcome:
    sc = Scenario.figure4()
    rng = ctx.rng

    def one_version(plan, spec, base, xhwif):
        src = sc.implement_version(ctx, plan, spec, base)
        result = ctx.jpg_generate(sc.part, base.bitfile, src.xdl, src.ucf)
        ctx.download(xhwif, result.data)
        return src.label, result

    def setup():
        base = sc.implement_base(ctx)
        xhwif = SimulatedXhwif(Board(sc.part))
        ctx.download(xhwif, base.bitfile.config_bytes)
        for plan, spec in sc.versions:          # warm-up round
            one_version(plan, spec, base, xhwif)
        return base, xhwif

    setup_s, (base, xhwif) = ctx.repeat_setup(setup)

    order = list(sc.versions)
    rounds: list[float] = []
    items: list[float] = []
    latest = {}
    with ctx.phase("timed"):
        for _ in ctx.until(ctx.seconds):
            rng.shuffle(order)
            round_start = time.perf_counter()
            for plan, spec in order:
                ctx.attempted += 1
                start = time.perf_counter()
                try:
                    with ctx.op(f"{plan.name}/{spec.variant}"):
                        label, result = one_version(plan, spec, base, xhwif)
                except ReproError:
                    ctx.failed += 1
                    continue
                items.append(time.perf_counter() - start)
                latest[label] = result
            rounds.append(time.perf_counter() - round_start)
    rss = peak_rss_mb()

    with ctx.phase("oracle"):
        orng = ctx.rng_for("oracle")
        for choice in orng.sample(sc.combinations(), ORACLE_COMBINATIONS):
            labels = [f"{region}/{version}" for region, version in sorted(choice.items())]
            missing = [label for label in labels if label not in latest]
            if missing:
                raise OracleError("behaviour", f"no partial generated for {missing}")
            orng.shuffle(labels)
            reference = sc.reference(ctx, choice, orng.randrange(1 << 16))
            behaviour(ctx, "+".join(labels), sc.part, base,
                      [latest[label].data for label in labels], reference, orng)

    pace = ctx.pace("timed")
    rounds = pace.scaled(rounds)
    return Outcome(
        setup_s=setup_s,
        op_s=rounds,
        item_s=pace.scaled(items),
        tail_q=0.90,
        items_per_s=len(sc.versions) / statistics.median(rounds),
        output_ratio=statistics.fmean(r.ratio for r in latest.values()),
        peak_rss_mb=rss,
        oracles=["behaviour"],
    )
