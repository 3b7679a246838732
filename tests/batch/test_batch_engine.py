"""Batch engine tests: determinism, planning, failure isolation, metrics."""

import pytest

from repro.batch import BatchItem, BatchJpg, FrameCache, fingerprint, items_from_project
from repro.core import Jpg, JpgOptions
from repro.obs import Metrics
from repro.ucf import parse_ucf
from repro.xdl import parse_xdl


def sequential_partials(project):
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


@pytest.fixture()
def engine(demo_project):
    return BatchJpg(
        demo_project.part,
        demo_project.base_bitfile,
        base_design=demo_project.base_flow.design,
        metrics=Metrics(),
    )


class TestManifest:
    def test_items_from_project(self, demo_project):
        items = items_from_project(demo_project)
        assert {i.name for i in items} == {"r1/up", "r1/down", "r2/left", "r2/right"}
        for item in items:
            assert item.region is not None
            assert isinstance(item.module, str) and "design" in item.module

    def test_plan_groups_by_region(self, demo_project, engine):
        plan = engine.plan(items_from_project(demo_project))
        assert plan.total == 4
        assert len(plan.groups) == 2
        assert plan.expected_cache_misses == 2
        assert plan.expected_cache_hits == 2

    def test_plan_region_from_ucf(self, demo_project, engine):
        """Planner resolves the footprint from the UCF when no explicit
        region is on the item."""
        mv = demo_project.versions[("r1", "down")]
        plan = engine.plan([BatchItem("x", mv.xdl, ucf=mv.ucf)])
        assert plan.expected_cache_misses == 1

    def test_plan_unclears_excluded(self, demo_project, engine):
        mv = demo_project.versions[("r1", "down")]
        item = BatchItem(
            "x", mv.xdl, region=demo_project.regions["r1"],
            options=JpgOptions(clear_region=False),
        )
        plan = engine.plan([item])
        assert plan.expected_cache_misses == 0


class TestRun:
    def test_byte_identical_to_sequential(self, demo_project, engine):
        expected = sequential_partials(demo_project)
        report = engine.run(items_from_project(demo_project))
        assert report.ok
        got = report.partials()
        assert set(got) == set(expected)
        for name, partial in got.items():
            assert partial.data == expected[name].data, name
            assert partial.frames == expected[name].frames, name
            assert partial.full_size == expected[name].full_size, name

    def test_results_in_input_order(self, demo_project, engine):
        items = items_from_project(demo_project)
        report = engine.run(items)
        assert [r.item.name for r in report.results] == [i.name for i in items]

    def test_deterministic_across_worker_counts(self, demo_project, engine):
        """``max_workers`` is accepted and ignored: any count emits the
        same bytes as the default engine."""
        items = items_from_project(demo_project)

        def run(e):
            return {k: v.data for k, v in e.run(items).partials().items()}

        expected = run(engine)
        for workers in (1, 2):
            other = BatchJpg(demo_project.part, demo_project.base_bitfile,
                             base_design=demo_project.base_flow.design,
                             max_workers=workers)
            assert run(other) == expected, workers

    def test_cache_shared_across_items(self, demo_project, engine):
        report = engine.run(items_from_project(demo_project))
        assert report.cache_stats.misses == 2
        assert report.cache_stats.hits == 2
        assert report.cache_stats.hit_rate == 0.5

    def test_empty_manifest(self, engine):
        report = engine.run([])
        assert report.ok and report.results == []

    def test_failure_isolated(self, demo_project, engine):
        """One bad item reports its error; the rest still generate."""
        items = items_from_project(demo_project)
        bad = BatchItem("bad", demo_project.versions[("r1", "down")].xdl)  # no region
        report = engine.run([bad] + items)
        assert not report.ok
        assert len(report.failures) == 1
        assert report.failures[0].item.name == "bad"
        assert "region" in report.failures[0].error
        assert len(report.partials()) == 4
        assert "error" in report.table()

    def test_metrics_aggregated_across_pool(self, demo_project, engine):
        report = engine.run(items_from_project(demo_project))
        m = report.metrics
        assert m.counter("jpg.partials") == 4
        assert m.counter("batch.partials") == 4
        assert m.counter("framecache.hit") == 2
        assert m.timers["jpg.emit"].count == 4
        assert m.timers["batch.load_base"].count == 1
        # the complete stream's size comes from the geometry: never serialized
        assert "assemble.full_stream" not in m.timers

    def test_report_rendering(self, demo_project, engine):
        report = engine.run(items_from_project(demo_project))
        table = report.table()
        for name in ["r1/up", "r1/down", "r2/left", "r2/right"]:
            assert name in table
        assert "frames" in table and "partial" in table
        assert "hit rate" in report.summary()

    def test_explicit_cache_reused_across_runs(self, demo_project):
        cache = FrameCache()
        items = items_from_project(demo_project)
        e1 = BatchJpg(demo_project.part, demo_project.base_bitfile, cache=cache)
        e1.run(items)
        e2 = BatchJpg(demo_project.part, demo_project.base_bitfile, cache=cache)
        report = e2.run(items)
        assert report.ok
        # second run clears nothing: every region state is already cached
        assert cache.stats.misses == 2
        assert cache.stats.hits == 6

    def test_default_registry_keeps_no_events(self, demo_project):
        """A long-lived engine keeps aggregates only: repeated runs do not
        grow memory with one StageEvent per stage."""
        import tracemalloc

        engine = BatchJpg(demo_project.part, demo_project.base_bitfile)
        assert engine.metrics.keep_events is False
        items = items_from_project(demo_project)
        engine.run(items)  # warm every cache and registry slot
        tracemalloc.start()
        try:
            engine.run(items)
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                engine.run(items)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert engine.metrics.events == []
        assert engine.metrics.counter("jpg.partials") == 28
        # keeping events, 5 runs x 4 items grow ~60 KB (7 KB without)
        assert grown < 16_000

    def test_full_size_matches_complete_stream(self, demo_project, engine):
        assert engine.full_size == len(
            Jpg(demo_project.part, demo_project.base_bitfile).full_bitstream()
        )

    def test_base_key_is_the_base_fingerprint(self, engine):
        assert engine.base_key == fingerprint(engine.base_frames)

    def test_service_reads_the_engine_key(self, demo_project):
        from repro.serve import GenerationService

        service = GenerationService("XCV50", demo_project.base_bitfile)
        assert service.base_key == service.engine.base_key
        assert service.base_key == fingerprint(service.engine.base_frames)
