"""xcv1000-batch: generation only, 108 partials per batch on an XCV1000.

Closed loop.  The 12 regions x 9 versions are implemented once (inputs,
not timed, not set-up); the timed loop re-runs one warm ``BatchJpg`` over
all 108 XDL texts.  ``Jpg`` start-up is paid once per batch engine, and the
108 distinct XDL texts exceed the program's 64-entry parse cache, so the
working set does not fit its parse LRU.

The oracles here check bytes and that a partial loads; the behavioural
oracle fails on this plan: its 7-column slabs let base routing cross
into neighbouring slabs, which a partial then clears (README, "Findings";
``test_jpgbench.py`` keeps it as an expected failure).
"""

from __future__ import annotations

import statistics
import time

from repro.batch.engine import BatchItem, BatchJpg

from .context import Context, Outcome, peak_rss_mb
from .oracles import OracleError, configures, same_bytes
from .scenarios import Scenario


def run(ctx: Context) -> Outcome:
    sc = Scenario.xcv1000()
    rng = ctx.rng
    with ctx.phase("inputs"):
        base = sc.implement_base(ctx)
        sources = [sc.implement_version(ctx, plan, spec, base) for plan, spec in sc.versions]
    rng.shuffle(sources)
    items = [BatchItem(name=src.label, module=src.xdl, region=src.rect, ucf=src.ucf)
             for src in sources]

    def setup():
        with ctx.span("batch.init"):
            # one worker: with two threads on two CPUs the GIL makes batch
            # times swing by 15% run to run, and they are no faster
            engine = BatchJpg(sc.part, base.bitfile, metrics=ctx.tracer.registry(),
                              max_workers=1)
        with ctx.span("batch.run"):
            report = engine.run(items)
        return engine, report

    setup_s, (engine, first) = ctx.repeat_setup(setup)
    if not first.ok:
        raise OracleError("batch-ok", f"{len(first.failures)} item(s) failed: "
                                      f"{first.failures[0].error}")
    partials = first.partials()
    expected = {name: partial.data for name, partial in partials.items()}

    batches: list[float] = []
    item_s: list[float] = []
    with ctx.phase("timed"):
        for n in ctx.until(ctx.seconds):
            start = time.perf_counter()
            with ctx.op(n), ctx.span("batch.run"):
                report = engine.run(items)
            batches.append(time.perf_counter() - start)
            for r in report.results:
                ctx.attempted += 1
                if not r.ok:
                    ctx.failed += 1
                    continue
                item_s.append(r.seconds)
                same_bytes("batch-repeat", r.item.name, expected[r.item.name], r.result.data)
    rss = peak_rss_mb()
    # cumulative over the engine's life: take away the set-up batch
    hits = report.cache_stats.hits - first.cache_stats.hits
    misses = report.cache_stats.misses - first.cache_stats.misses

    with ctx.phase("oracle"):
        orng = ctx.rng_for("oracle")
        src = orng.choice(sources)
        direct = ctx.jpg_generate(sc.part, base.bitfile, src.xdl, src.ucf)
        same_bytes("batch-vs-sequential", src.label, direct.data, expected[src.label])
        configures(ctx, src.label, sc.part, base, expected[src.label],
                   len(partials[src.label].frames))

    pace = ctx.pace("timed")
    batches, item_s = pace.scaled(batches), pace.scaled(item_s)
    return Outcome(
        setup_s=setup_s,
        op_s=batches,
        item_s=item_s,
        tail_q=0.90,
        items_per_s=len(items) / statistics.median(batches),
        output_ratio=statistics.fmean(p.ratio for p in partials.values()),
        peak_rss_mb=rss,
        oracles=["batch-ok", "batch-repeat", "batch-vs-sequential", "configures"],
        layer_values={
            "batch.framecache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "exec.concurrency": sum(item_s) / sum(batches),
        },
    )
