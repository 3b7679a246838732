"""Warm-pool lifecycle: spawn/reuse, crash recycling, drain, leak checks.

The pool's correctness story has three legs, and each gets direct
coverage here:

* **reuse** — workers are forked once and survive across batches (stable
  pids), which is the entire point of the warm backend;
* **fault handling** — a worker that dies mid-task is recycled in place
  and the task retried exactly once; a second death raises
  :class:`ExecError` and never hands back a report missing items;
* **hygiene** — ``close()`` leaves no orphan worker processes and no
  leaked ``/dev/shm`` segments, whatever happened before it.

Byte-identity of warm-pool output against the sequential path lives in
the differential suite (``tests/integration/test_differential.py``),
which parametrizes its conformance matrix over every backend name.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.batch import BatchJpg
from repro.batch.engine import items_from_project
from repro.bitstream.frames import FrameDelta
from repro.errors import ExecError
from repro.exec import ArenaSpec, OutputArena, WarmPool, WarmPoolBackend

pytestmark = pytest.mark.warmpool


def _shm_paths(pool: WarmPool) -> list[str]:
    """The /dev/shm paths of the pool's segments (empty when unbound)."""
    names = []
    if pool._shared is not None:
        names.append(pool._shared.spec.name)
    if pool._arena is not None:
        names.append(pool._arena.spec.name)
    return [f"/dev/shm/{name.lstrip('/')}" for name in names]


def _wait_dead(pids, timeout: float = 5.0) -> bool:
    """True once none of ``pids`` is a live process (zombies count as dead)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            try:  # a reaped-by-mp zombie still answers kill(pid, 0)
                with open(f"/proc/{pid}/stat") as fh:
                    if fh.read().split(") ", 1)[1][0] == "Z":
                        continue
            except OSError:
                continue
            alive.append(pid)
        if not alive:
            return True
        time.sleep(0.05)
    return False


@pytest.fixture
def warm_engine(demo_project):
    """A BatchJpg on a 2-worker warm pool, closed (and leak-checked) after
    the test."""
    backend = WarmPoolBackend(workers=2)
    engine = BatchJpg("XCV50", demo_project.base_bitfile, backend=backend)
    yield engine, backend.pool
    paths = _shm_paths(backend.pool)
    engine.close()
    for path in paths:
        assert not os.path.exists(path), f"leaked shm segment {path}"


class TestOutputArena:
    def test_write_read_roundtrip_per_slot(self):
        arena = OutputArena.create(slots=3, slot_bytes=64)
        try:
            attached = OutputArena.attach(arena.spec)
            try:
                payloads = [b"a" * 10, b"b" * 64, b"c"]
                for slot, payload in enumerate(payloads):
                    assert attached.write(slot, payload) == len(payload)
                for slot, payload in enumerate(payloads):
                    assert arena.read(slot, len(payload)) == payload
            finally:
                attached.close()
        finally:
            arena.unlink()

    def test_oversized_write_returns_none(self):
        arena = OutputArena.create(slots=1, slot_bytes=16)
        try:
            assert arena.write(0, b"x" * 17) is None
            assert arena.write(0, b"x" * 16) == 16
        finally:
            arena.unlink()

    def test_read_beyond_slot_capacity_raises(self):
        arena = OutputArena.create(slots=1, slot_bytes=16)
        try:
            with pytest.raises(ExecError, match="exceeds slot capacity"):
                arena.read(0, 17)
        finally:
            arena.unlink()

    def test_attach_after_unlink_raises(self):
        arena = OutputArena.create(slots=1, slot_bytes=16)
        spec = arena.spec
        arena.unlink()
        with pytest.raises(ExecError, match="gone"):
            OutputArena.attach(spec)

    def test_unlink_is_idempotent(self):
        arena = OutputArena.create(slots=1, slot_bytes=16)
        arena.unlink()
        arena.unlink()

    def test_spec_is_small_and_picklable(self):
        import pickle

        arena = OutputArena.create(slots=4, slot_bytes=32)
        try:
            blob = pickle.dumps(arena.spec)
            assert len(blob) < 256, "spec must stay a tiny start-up payload"
            assert pickle.loads(blob) == ArenaSpec(arena.spec.name, 4, 32)
            assert arena.nbytes == 4 * 32
        finally:
            arena.unlink()


class TestPoolLifecycle:
    def test_workers_survive_across_batches(self, demo_project, warm_engine):
        """The tentpole property: the second batch reuses the first batch's
        forked workers — same pids, no respawn."""
        engine, pool = warm_engine
        items = items_from_project(demo_project)
        report1 = engine.run(items)
        assert report1.ok
        pids1 = pool.ping()
        assert len(pids1) == 2
        report2 = engine.run(items)
        assert report2.ok
        assert pool.ping() == pids1, "batch #2 must reuse batch #1's workers"
        assert pool.recycles == 0
        assert pool.tasks == 2 * len(items)
        for a, b in zip(report1.results, report2.results):
            assert a.result.data == b.result.data

    def test_replies_seed_the_parent_cache_with_clear_deltas(self, demo_project,
                                                              warm_engine):
        """Each cleared region a worker computed comes home as the frame
        cache's own delta and is stored as is: the parent's entries equal
        the ones a serial engine computes."""
        engine, _ = warm_engine
        items = items_from_project(demo_project)
        assert engine.run(items).ok
        serial = BatchJpg("XCV50", demo_project.base_bitfile)
        assert serial.run(items).ok

        def absent():
            pytest.fail("entry missing")

        assert len(engine.cache) == len(serial.cache) == len(demo_project.regions)
        for region in demo_project.regions.values():
            got = engine.cache.cleared(engine.base_key, region, absent)
            assert isinstance(got, FrameDelta) and len(got) > 0
            assert got == serial.cache.cleared(serial.base_key, region, absent)

    def test_crash_once_recycles_and_retries(self, demo_project, warm_engine,
                                             monkeypatch, tmp_path):
        """One worker dies mid-task: the seat is recycled, the item retried
        on the fresh fork, and the batch still completes in full."""
        engine, pool = warm_engine
        flag = tmp_path / "crash-once"
        flag.touch()
        monkeypatch.setenv("JPG_EXEC_CRASH_ONCE", f"{flag}:r2/left")
        report = engine.run(items_from_project(demo_project))
        assert report.ok and len(report.results) == 4
        assert not flag.exists(), "the crash flag must be consumed"
        assert pool.recycles == 1
        assert pool.retries == 1
        assert len(pool.ping()) == 2

    def test_persistent_crash_gives_up_after_one_retry(self, demo_project,
                                                       warm_engine, monkeypatch):
        """A fault that survives the recycle (every worker touching the item
        dies) must abort loudly, and the pool must stay usable once the
        fault is gone."""
        engine, pool = warm_engine
        items = items_from_project(demo_project)
        monkeypatch.setenv("JPG_EXEC_CRASH", "r2/left")
        with pytest.raises(ExecError, match="lost a worker twice"):
            engine.run(items)
        assert pool.retries >= 1 and pool.recycles >= 2
        monkeypatch.delenv("JPG_EXEC_CRASH")
        pool.ensure()   # what the serve path does between requests
        report = engine.run(items)
        assert report.ok and len(report.results) == 4

    def test_close_leaves_no_orphans_or_shm(self, demo_project):
        """Drain-on-shutdown hygiene: after close(), every worker pid is
        gone and both shared segments are unlinked from /dev/shm."""
        backend = WarmPoolBackend(workers=2)
        engine = BatchJpg("XCV50", demo_project.base_bitfile, backend=backend)
        report = engine.run(items_from_project(demo_project)[:2])
        assert report.ok
        pool = backend.pool
        pids = list(pool.ping().values())
        paths = _shm_paths(pool)
        assert len(pids) == 2 and len(paths) == 2
        for path in paths:
            assert os.path.exists(path)
        engine.close()
        assert _wait_dead(pids), f"orphaned warm workers: {pids}"
        for path in paths:
            assert not os.path.exists(path), f"leaked shm segment {path}"
        engine.close()  # idempotent

    def test_ensure_respawns_externally_killed_worker(self, demo_project,
                                                      warm_engine):
        """A worker killed between batches (OOM killer) is respawned by
        ensure() without surfacing as a failed request."""
        engine, pool = warm_engine
        assert engine.run(items_from_project(demo_project)[:1]).ok
        victim = pool._seats[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(5.0)
        assert pool.ensure() == 1
        assert len(pool.ping()) == 2
        assert engine.run(items_from_project(demo_project)[:1]).ok

    def test_rebinding_to_another_engine_raises(self, demo_project):
        backend = WarmPoolBackend(workers=1)
        a = BatchJpg("XCV50", demo_project.base_bitfile, backend=backend)
        b = BatchJpg("XCV50", demo_project.base_bitfile, backend=backend)
        items = items_from_project(demo_project)[:1]
        try:
            assert a.run(items).ok
            with pytest.raises(ExecError, match="already bound"):
                b.run(items)
        finally:
            a.close()

    def test_run_task_before_bind_raises(self):
        pool = WarmPool(workers=1)
        with pytest.raises(ExecError, match="before bind"):
            pool.run_task(None)

    def test_use_after_close_raises(self, demo_project):
        backend = WarmPoolBackend(workers=1)
        engine = BatchJpg("XCV50", demo_project.base_bitfile, backend=backend)
        assert engine.run(items_from_project(demo_project)[:1]).ok
        engine.close()
        with pytest.raises(ExecError, match="closed"):
            backend.pool.bind(engine)

    def test_drain_returns_when_idle(self, demo_project, warm_engine):
        engine, pool = warm_engine
        assert engine.run(items_from_project(demo_project)[:1]).ok
        pool.drain()   # no in-flight work: must not deadlock
        assert len(pool.ping()) == 2


class TestArenaSpill:
    def test_tiny_slots_spill_inline_and_stay_correct(self, demo_project):
        """Replies that outgrow their arena slot fall back to pipe
        transport — slower, never wrong."""
        backend = WarmPoolBackend(workers=2, slot_bytes=64)
        engine = BatchJpg("XCV50", demo_project.base_bitfile, backend=backend)
        reference = BatchJpg("XCV50", demo_project.base_bitfile, backend="serial")
        items = items_from_project(demo_project)
        try:
            report = engine.run(items)
            assert report.ok
            assert backend.pool.arena_spills == len(items)
            expect = reference.run(items)
            for a, b in zip(report.results, expect.results):
                assert a.result.data == b.result.data
        finally:
            engine.close()
            reference.close()


class TestBackendIntegration:
    def test_planned_workers_sizes_the_scheduler(self, demo_project):
        """The serve scheduler asks the backend for its pool size; a warm
        backend answers its fixed worker count (one shepherd per worker)."""
        backend = WarmPoolBackend(workers=3)
        assert backend.planned_workers() == 3
        from repro.exec import SerialBackend

        assert SerialBackend().planned_workers() is None

    def test_max_workers_sizes_a_named_pool_before_it_binds(
            self, demo_project, monkeypatch):
        """``BatchJpg(backend="warm", max_workers=N)`` plans N workers from
        the start, so what the serve scheduler reads before the first run
        is the size the pool binds with."""
        monkeypatch.setenv("JPG_WORKERS", "3")
        engine = BatchJpg("XCV50", demo_project.base_bitfile,
                          backend="warm", max_workers=1)
        try:
            assert engine.backend.planned_workers() == 1
            assert engine.run(items_from_project(demo_project)[:2]).ok
            assert engine.backend.planned_workers() == 1
            gauges = engine.metrics.snapshot()["gauges"]
            assert gauges["exec.pool.workers_alive"]["last"] == 1
        finally:
            engine.close()

    def test_max_workers_leaves_instances_and_serial_alone(self, demo_project):
        """A Backend instance keeps its own size, through its runs too;
        ``serial`` accepts and ignores ``max_workers``."""
        backend = WarmPoolBackend(workers=2)
        engine = BatchJpg("XCV50", demo_project.base_bitfile,
                          backend=backend, max_workers=1)
        try:
            assert engine.run(items_from_project(demo_project)[:2]).ok
            assert engine.backend.planned_workers() == 2
            gauges = engine.metrics.snapshot()["gauges"]
            assert gauges["exec.pool.workers_alive"]["last"] == 2
        finally:
            engine.close()
        serial = BatchJpg("XCV50", demo_project.base_bitfile, max_workers=1)
        assert serial.backend.planned_workers() is None

    def test_pool_metrics_reported_as_deltas(self, demo_project, warm_engine):
        """exec.pool.* counters report per-run deltas, not running totals."""
        engine, pool = warm_engine
        items = items_from_project(demo_project)
        assert engine.run(items).ok
        snap1 = engine.metrics.snapshot()["counters"]
        assert snap1["exec.pool.tasks"] == len(items)
        assert engine.run(items).ok
        snap2 = engine.metrics.snapshot()["counters"]
        assert snap2["exec.pool.tasks"] == 2 * len(items)
        gauges = engine.metrics.snapshot()["gauges"]
        assert gauges["exec.pool.workers_alive"]["last"] == 2
        assert gauges["exec.pool.arena_bytes"]["last"] == pool._arena.nbytes

    def test_shared_pool_across_backend_instances(self, demo_project):
        """One WarmPool can back both a batch engine's backend and a serve
        backend, which is how BatchJpg and the scheduler share a pool."""
        pool = WarmPool(workers=1)
        batch_backend = WarmPoolBackend(pool=pool)
        engine = BatchJpg("XCV50", demo_project.base_bitfile,
                          backend=batch_backend)
        try:
            assert engine.run(items_from_project(demo_project)[:1]).ok
            serve_backend = WarmPoolBackend(pool=pool)
            assert serve_backend.planned_workers() == 1
            item = items_from_project(demo_project)[1]
            result = serve_backend.run_one(engine, item)
            assert result.ok
            assert pool.tasks == 2
        finally:
            engine.close()
