"""Observability layer tests: registry semantics and pipeline coverage."""

import threading

import pytest

from repro.core import Jpg
from repro.obs import (
    NULL_METRICS,
    Metrics,
    NullMetrics,
    StageEvent,
    current_metrics,
    recording_sink,
    use_metrics,
)


class TestCounters:
    def test_count_and_read(self):
        m = Metrics()
        m.count("a")
        m.count("a", 4)
        assert m.counter("a") == 5
        assert m.counter("never") == 0

    def test_thread_safety(self):
        m = Metrics()

        def work():
            for _ in range(1000):
                m.count("n")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n") == 8000


class TestStages:
    def test_stage_records_timer_and_event(self):
        m = Metrics()
        with m.stage("compile", module="m1"):
            pass
        with m.stage("compile", module="m2"):
            pass
        stats = m.timers["compile"]
        assert stats.count == 2
        assert stats.total >= stats.max >= stats.min >= 0
        assert stats.mean == pytest.approx(stats.total / 2)
        assert [e.stage for e in m.events] == ["compile", "compile"]
        assert m.events[0].detail["module"] == "m1"

    def test_stage_records_on_exception(self):
        m = Metrics()
        with pytest.raises(ValueError):
            with m.stage("boom"):
                raise ValueError("x")
        assert m.timers["boom"].count == 1

    def test_keep_events_off(self):
        m = Metrics(keep_events=False)
        with m.stage("s"):
            pass
        assert m.events == []
        assert m.timers["s"].count == 1

    def test_sink_sees_every_event(self):
        seen: list[StageEvent] = []
        m = Metrics(sink=recording_sink(seen))
        m.record("s", 0.5, k=1)
        assert len(seen) == 1
        assert seen[0].seconds == 0.5
        assert "0.5" not in str(seen[0].detail)  # detail holds k, not seconds
        assert "500.00ms" in str(seen[0])

    def test_stage_table_sorted_by_total(self):
        m = Metrics()
        m.record("fast", 0.001)
        m.record("slow", 1.0)
        table = m.stage_table()
        assert [row[0] for row in table] == ["slow", "fast"]

    def test_snapshot_plain_data(self):
        m = Metrics()
        m.count("c", 3)
        m.record("t", 0.25)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["timers"]["t"]["count"] == 1


class TestScoping:
    def test_default_is_null(self):
        assert isinstance(current_metrics(), NullMetrics)

    def test_null_metrics_stores_nothing(self):
        NULL_METRICS.count("x", 100)
        with NULL_METRICS.stage("y"):
            pass
        NULL_METRICS.record("z", 1.0)
        assert NULL_METRICS.counters == {}
        assert NULL_METRICS.timers == {}
        assert NULL_METRICS.events == []

    def test_use_metrics_binds_and_restores(self):
        m = Metrics()
        with use_metrics(m) as bound:
            assert bound is m
            assert current_metrics() is m
            inner = Metrics()
            with use_metrics(inner):
                assert current_metrics() is inner
            assert current_metrics() is m
        assert isinstance(current_metrics(), NullMetrics)


class TestPipelineInstrumentation:
    """The stages threaded through jpg/bitgen/assembler actually report."""

    def test_make_partial_emits_stage_events(self, demo_project):
        m = Metrics()
        mv = demo_project.versions[("r1", "down")]
        with use_metrics(m):
            jpg = Jpg(demo_project.part, demo_project.base_bitfile,
                      base_design=demo_project.base_flow.design)
            jpg.make_partial(mv.design, region=demo_project.regions["r1"])
        stages = {e.stage for e in m.events}
        assert {"jpg.init_base", "jpg.verify", "jpg.clear_region", "jpg.replay",
                "jpg.frame_select", "jpg.emit", "bitgen.generate_frames",
                "assemble.partial_stream"} <= stages
        # the complete stream's size comes from the geometry, not a serialization
        assert "assemble.full_stream" not in stages
        assert m.counter("jpg.partials") == 1
        assert m.counter("jpg.frames_written") > 0
        assert m.counter("jpg.partial_bytes") > 0
        assert m.counter("partial.clb_columns_spanned") > 0

    def test_uninstrumented_run_records_nothing_globally(self, demo_project):
        mv = demo_project.versions[("r1", "down")]
        jpg = Jpg(demo_project.part, demo_project.base_bitfile)
        jpg.make_partial(mv.design, region=demo_project.regions["r1"],)
        assert NULL_METRICS.counters == {}
        assert NULL_METRICS.events == []


class TestReservoirHistogram:
    def test_exact_quantiles_under_capacity(self):
        from repro.obs import ReservoirHistogram

        h = ReservoirHistogram(capacity=512)
        for v in range(1, 101):          # 1..100 ms
            h.record(v / 1000)
        q = h.quantiles()
        assert q["p50"] == pytest.approx(0.0505, abs=0.001)
        assert q["p95"] == pytest.approx(0.095, abs=0.002)
        assert q["p99"] == pytest.approx(0.099, abs=0.002)
        assert h.count == 100
        assert h.mean == pytest.approx(0.0505)
        assert h.min == pytest.approx(0.001) and h.max == pytest.approx(0.1)

    def test_bounded_memory_past_capacity(self):
        from repro.obs import ReservoirHistogram

        h = ReservoirHistogram(capacity=64, seed=1)
        for v in range(10_000):
            h.record(float(v))
        assert len(h.samples()) == 64     # reservoir never grows
        assert h.count == 10_000
        assert h.min == 0.0 and h.max == 9999.0
        # quantiles stay statistically sane on a uniform stream
        assert 3000 < h.quantile(0.5) < 7000

    def test_empty_histogram(self):
        from repro.obs import ReservoirHistogram

        h = ReservoirHistogram()
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0
        assert h.quantiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_deterministic_given_seed(self):
        from repro.obs import ReservoirHistogram

        def build():
            h = ReservoirHistogram(capacity=16, seed=7)
            for v in range(1000):
                h.record(float(v))
            return h.samples()

        assert build() == build()


class TestMetricsHistograms:
    def test_observe_and_latency_summary(self):
        m = Metrics()
        for v in (0.010, 0.020, 0.030):
            m.observe("serve.handle", v)
        m.observe("other.thing", 1.0)
        summary = m.latency_summary("serve.")
        assert set(summary) == {"serve.handle"}
        row = summary["serve.handle"]
        assert row["count"] == 3
        assert row["mean"] == pytest.approx(0.020)
        assert row["p50"] == pytest.approx(0.020)
        assert row["max"] == pytest.approx(0.030)
        assert m.quantile("serve.handle", 0.5) == pytest.approx(0.020)

    def test_stage_records_feed_histograms(self):
        m = Metrics()
        with m.stage("serve.generate"):
            pass
        assert m.histograms["serve.generate"].count == 1

    def test_snapshot_reports_histograms(self):
        m = Metrics()
        for v in (0.3, 0.4):
            m.observe("lat", v)
        row = m.snapshot()["histograms"]["lat"]
        assert row["count"] == 2
        assert row["min"] == pytest.approx(0.3)
        assert row["max"] == pytest.approx(0.4)

    def test_null_metrics_observe_is_noop(self):
        NULL_METRICS.observe("x", 1.0)  # must not raise or record


class TestStatsCreatedOnFirstUse:
    """Each named timer, gauge and histogram is built once, on its first
    use — not once per call, as ``setdefault(name, Stats())`` would."""

    @pytest.fixture()
    def constructions(self, monkeypatch):
        from repro.obs import metrics as metrics_module

        made: dict[str, int] = {}

        def counting(cls):
            class Counted(cls):
                def __init__(self, *args, **kwargs):
                    made[cls.__name__] = made.get(cls.__name__, 0) + 1
                    super().__init__(*args, **kwargs)
            monkeypatch.setattr(metrics_module, cls.__name__, Counted)

        for cls in (metrics_module.TimerStats, metrics_module.GaugeStats,
                    metrics_module.ReservoirHistogram):
            counting(cls)
        return made

    def test_one_construction_per_name(self, constructions):
        m = Metrics()
        for i in range(50):
            m.record("jpg.replay", 0.001 * i)
            with m.stage("jpg.emit"):
                pass
            m.observe("serve.wire", 0.5)
            m.gauge("serve.queue_depth", i)
        # timers: replay, emit; histograms: replay, emit, serve.wire
        assert constructions == {"TimerStats": 2, "ReservoirHistogram": 3,
                                 "GaugeStats": 1}
        assert m.timers["jpg.replay"].count == 50
        assert m.histograms["jpg.emit"].count == 50
        assert m.gauges["serve.queue_depth"].updates == 50
