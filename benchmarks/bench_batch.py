"""BATCH — sequential vs. batched generation of the Figure-4 manifest.

The paper's §4.1 scenario needs 10 partial bitstreams against one base.
Driving ``Jpg.make_partial`` once per module re-parses the base bitstream,
re-measures the complete stream, and re-clears each region every time;
the batch engine (:mod:`repro.batch`) does each of those once and shares
cleared-region frames through a content-keyed cache.

Claims measured here:
* batched output is **byte-identical** to 10 sequential runs;
* the frame cache hits for every repeated region footprint
  (7 hits / 3 misses over the 3x(3,3,4) manifest);
* batching wins wall-clock over sequential generation.

jpgbench (``benchmarks/jpgbench``) is the repository's end-to-end
benchmark; this module only checks the paper's batching claims.

``pytest benchmarks/bench_batch.py --benchmark-only`` times both flows.
"""

import time

from repro.batch import BatchJpg, FrameCache, items_from_project
from repro.core import Jpg
from repro.obs import Metrics
from repro.ucf.parser import parse_ucf
from repro.xdl.parser import parse_xdl


def generate_sequential(project):
    """The baseline: one fresh Jpg + make_partial per module version."""
    out = {}
    for (region, version), mv in project.versions.items():
        if version == "base":
            continue
        jpg = Jpg(project.part, project.base_bitfile, base_design=project.base_flow.design)
        out[f"{region}/{version}"] = jpg.make_partial(
            parse_xdl(mv.xdl),
            region=project.regions[region],
            ucf=parse_ucf(mv.ucf),
        )
    return out


def generate_batched(project):
    engine = BatchJpg(
        project.part,
        project.base_bitfile,
        base_design=project.base_flow.design,
        cache=FrameCache(),
        metrics=Metrics(keep_events=False),
    )
    report = engine.run(items_from_project(project))
    assert report.ok, [r.error for r in report.failures]
    return report


class TestEquivalence:
    def test_batch_matches_sequential_bytes(self, fig4_project):
        """Every batched partial must be byte-identical to its sequential
        twin — caching changes cost, never content."""
        sequential = generate_sequential(fig4_project)
        report = generate_batched(fig4_project)
        batched = report.partials()
        assert set(batched) == set(sequential)
        for name, partial in batched.items():
            assert partial.data == sequential[name].data, name
            assert partial.frames == sequential[name].frames, name

    def test_cache_hits_on_repeated_regions(self, fig4_project):
        """3 regions x (3,3,4) versions: one clear per region is computed,
        the other 7 generations reuse it."""
        report = generate_batched(fig4_project)
        stats = report.cache_stats
        assert stats.misses == 3
        assert stats.hits == 7
        assert stats.hit_rate > 0.5
        assert report.plan.expected_cache_hits == stats.hits


class TestWallClock:
    def test_batch_beats_sequential(self, fig4_project):
        """Record the wall-clock win (shared base parse + full-stream
        measurement + cached clears)."""
        t0 = time.perf_counter()
        sequential = generate_sequential(fig4_project)
        t_seq = time.perf_counter() - t0

        t0 = time.perf_counter()
        report = generate_batched(fig4_project)
        t_batch = time.perf_counter() - t0

        print(f"\nsequential: {t_seq:.3f} s for {len(sequential)} partials")
        print(f"batched:    {t_batch:.3f} s ({t_seq / t_batch:.1f}x) — "
              f"{report.cache_stats.hits} cache hits")
        print(report.table())
        assert t_batch < t_seq

    def test_sequential_generation(self, benchmark, fig4_project):
        results = benchmark.pedantic(
            lambda: generate_sequential(fig4_project), rounds=3, iterations=1
        )
        assert len(results) == 10

    def test_batch_generation(self, benchmark, fig4_project):
        report = benchmark.pedantic(
            lambda: generate_batched(fig4_project), rounds=3, iterations=1
        )
        assert len(report.partials()) == 10
