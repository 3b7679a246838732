"""Load harness pieces and the loopback-fleet end-to-end runs.

The e2e tests spawn real ``jpg serve`` worker processes (the same code a
distributed deployment runs), replay a zipf-skewed stream through their
fleet file (client-side routing), and assert the acceptance properties
directly: zero lost requests (including with a worker SIGKILLed mid-replay), warm-pass
disk hits, and byte identity against direct generation.
"""

import collections
import threading

import numpy as np
import pytest

from repro.cluster import LocalFleet, loadgen
from repro.cluster.loadgen import (
    KeySpec, ReplayStats, Workload, replay, verify_keys, zipf_sequence,
)

pytestmark = [pytest.mark.cluster, pytest.mark.serve]


class TestZipf:
    def test_deterministic_and_in_range(self):
        a = zipf_sequence(16, 1000, skew=1.1, seed=4)
        b = zipf_sequence(16, 1000, skew=1.1, seed=4)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 16

    def test_skew_concentrates_popularity(self):
        seq = zipf_sequence(64, 5000, skew=1.3, seed=0)
        counts = collections.Counter(seq.tolist())
        top = sum(n for _, n in counts.most_common(6))
        assert top > 0.4 * len(seq)               # head keys dominate

    def test_zero_skew_is_roughly_uniform(self):
        seq = zipf_sequence(8, 8000, skew=0.0, seed=0)
        counts = collections.Counter(seq.tolist())
        assert all(700 < n < 1300 for n in counts.values())


class TestReplayStats:
    def test_entry_shape_and_ratios(self):
        stats = ReplayStats(target="t")
        stats.ok, stats.errors, stats.seconds = 8, 2, 2.0
        stats.requests = 10
        stats.sources = {"disk": 6, "generated": 2}
        for v in (0.01, 0.02, 0.03, 0.04):
            stats.histogram.record(v)
        entry = stats.to_entry()
        assert entry["rps"] == pytest.approx(5.0)
        assert entry["hit_disk"] == pytest.approx(0.75)
        assert entry["generated"] == pytest.approx(0.25)
        assert entry["errors"] == 2
        assert entry["p50_ms"] == pytest.approx(25.0, abs=1.0)


def demo_workload(demo_project, keys=8):
    """Expand the session demo project into a salted key space (the
    fixture equivalent of :func:`loadgen.build_workload`)."""
    templates = [
        (region, version, mv)
        for (region, version), mv in sorted(demo_project.versions.items())
        if version != "base"
    ]
    specs = []
    for i in range(keys):
        region, version, mv = templates[i % len(templates)]
        specs.append(KeySpec(
            name=f"{region}/{version}#k{i}",
            xdl=mv.xdl, ucf=mv.ucf,
            region=demo_project.regions[region].to_ucf(),
        ))
    return Workload("demo", "XCV50", demo_project, specs)


@pytest.fixture(scope="module")
def live_fleet(demo_project, tmp_path_factory):
    """A running 3-node loopback fleet over the demo base, addressed by
    its fleet file."""
    tmp = tmp_path_factory.mktemp("fleet")
    base_path = str(tmp / "base.bit")
    demo_project.base_bitfile.save(base_path)
    fleet = LocalFleet("XCV50", base_path, nodes=3, workdir=str(tmp / "work"))
    fleet.start()
    yield {"fleet": fleet, "address": fleet.fleet_file}
    fleet.stop()


class TestFleetEndToEnd:
    def test_replay_cold_then_warm(self, demo_project, live_fleet):
        wl = demo_workload(demo_project, keys=6)
        seq = zipf_sequence(len(wl.keys), 36, skew=1.1, seed=1)
        cold = replay(live_fleet["address"], wl.keys, seq,
                      target="cold", concurrency=3)
        assert cold.requests == 36 and cold.errors == 0
        assert cold.sources.get("generated", 0) >= 1
        warm = replay(live_fleet["address"], wl.keys, seq,
                      target="warm", concurrency=3)
        assert warm.errors == 0
        # every key generated at most once fleet-wide: the warm pass is
        # served entirely from the tiered cache
        assert warm.sources.get("generated", 0) == 0
        assert warm.sources.get("disk", 0) + warm.sources.get("peer", 0) == 36
        assert warm.rps > 0 and warm.histogram.count == 36

    def test_byte_identity_against_direct_generation(self, demo_project,
                                                     live_fleet):
        wl = demo_workload(demo_project, keys=4)
        seq = zipf_sequence(len(wl.keys), 12, skew=1.0, seed=2)
        stats = replay(live_fleet["address"], wl.keys, seq, concurrency=2)
        assert stats.errors == 0
        verdict = verify_keys(wl, stats, sample=3)
        assert verdict["ok"], verdict
        assert verdict["identical"] == verdict["sampled"] == 3

    def test_kill_one_worker_mid_replay_loses_zero_requests(
            self, demo_project, tmp_path):
        """The acceptance chaos case: SIGKILL a worker while the stream is
        in flight; the clients fail its requests over to the next owner
        and see every response."""
        base_path = str(tmp_path / "base.bit")
        demo_project.base_bitfile.save(base_path)
        with LocalFleet("XCV50", base_path, nodes=3,
                        workdir=str(tmp_path / "work")) as fleet:
            wl = demo_workload(demo_project, keys=6)
            seq = zipf_sequence(len(wl.keys), 60, skew=1.1, seed=3)
            # one cheap pass so every node holds its shard's bytes
            warmup = replay(fleet.fleet_file, wl.keys,
                            zipf_sequence(len(wl.keys), 12, seed=3),
                            concurrency=2)
            assert warmup.errors == 0
            killed = threading.Event()

            def chaos(done):
                if done >= 20 and not killed.is_set():
                    killed.set()
                    fleet.kill("n1")           # SIGKILL, no drain

            stats = replay(fleet.fleet_file, wl.keys, seq,
                           concurrency=3, on_progress=chaos)
            assert killed.is_set()
            assert stats.requests == 60
            assert stats.errors == 0, stats.error_samples
            assert stats.ok == 60
            assert stats.mismatches == 0       # failover bytes identical

    def test_report_table_renders(self, demo_project, live_fleet):
        wl = demo_workload(demo_project, keys=4)
        seq = zipf_sequence(len(wl.keys), 8, seed=5)
        stats = replay(live_fleet["address"], wl.keys, seq, target="probe",
                       concurrency=2)
        report = {
            "workload": "demo", "results": [stats.to_entry()],
            "verify": verify_keys(wl, stats, sample=2),
        }
        text = loadgen.report_table(report)
        assert "probe" in text and "byte-identical" in text
