"""DiskCache / PersistentFrameCache: persistence, locking, eviction,
cross-process single-flight, and survival of an unclean death (kill -9).
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.batch.cache import FrameCache
from repro.bitstream.frames import FrameDelta, FrameMemory
from repro.devices import get_device
from repro.flow.floorplan import RegionRect
from repro.serve import DiskCache, PersistentFrameCache, region_tag

KEY = "a" * 64
DIGEST = "d" * 64
REGION = RegionRect(0, 2, 15, 11)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _frames(seed: int = 0) -> FrameMemory:
    fm = FrameMemory(get_device("XCV50"))
    rng = np.random.default_rng(seed)
    fm.data[:] = rng.integers(0, 2**32, size=fm.data.shape,
                              dtype=np.uint64).astype(np.uint32) & fm._payload_mask[None, :]
    return fm


def _delta(seed: int = 0, frames=(3, 4, 5)) -> FrameDelta:
    """A cleared-state delta: ``frames`` of a seeded random memory."""
    return FrameDelta.capture(_frames(seed), frames)


def _write_npz(path, **arrays) -> None:
    with open(path, "wb") as f:
        np.savez(f, **arrays)


class TestRegionTag:
    def test_tag_shapes(self):
        assert region_tag(REGION) == "0_2_15_11"
        assert region_tag(None) == "none"


class TestClearedRoundtrip:
    def test_store_load(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        delta = _delta(1)
        disk.store_cleared(KEY, REGION, delta)
        loaded = disk.load_cleared(KEY, REGION)
        assert loaded == delta and loaded.device.name == "XCV50"
        assert loaded.frames.tolist() == [3, 4, 5]
        assert disk.stats.hits == 1 and disk.stats.stores == 1
        # the entry is the delta, not a whole-device copy
        assert os.path.getsize(disk.cleared_path(KEY, REGION)) < _frames().data.nbytes // 10

    def test_absent_is_miss(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        assert disk.load_cleared(KEY, REGION) is None
        assert disk.load_partial(KEY, REGION, DIGEST) is None
        assert disk.stats.misses == 2

    def test_corrupt_entry_is_dropped(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        path = disk.cleared_path(KEY, REGION)
        with open(path, "wb") as f:
            f.write(b"this is not an npz")
        assert disk.load_cleared(KEY, REGION) is None
        assert not os.path.exists(path), "corrupt entry must be deleted"
        assert disk.stats.misses == 1

    def test_old_format_entry_is_dropped(self, tmp_path):
        """A whole-device entry of the earlier format (``data`` + ``dirty``)
        is a miss and is deleted, so the key can be stored afresh."""
        disk = DiskCache(str(tmp_path))
        path = disk.cleared_path(KEY, REGION)
        _write_npz(path, device=np.array("XCV50"), data=_frames(1).data,
                   dirty=np.array([3, 4, 5], dtype=np.int64))
        assert disk.load_cleared(KEY, REGION) is None
        assert not os.path.exists(path)
        disk.store_cleared(KEY, REGION, _delta(1))
        assert disk.load_cleared(KEY, REGION) == _delta(1)

    @pytest.mark.parametrize("frames, n_rows, width", [
        ([3, 4], 2, 1),             # rows too narrow
        ([3, 4, 5], 2, None),       # one row short
        ([5, 4, 3], 3, None),       # not increasing
        ([3, 3, 4], 3, None),       # a repeated frame
        ([-1, 4, 5], 3, None),      # before frame 0
        ([3, 4, 10**6], 3, None),   # past the device
    ])
    def test_misfit_entry_is_dropped(self, tmp_path, frames, n_rows, width):
        disk = DiskCache(str(tmp_path))
        width = width or get_device("XCV50").geometry.frame_words
        path = disk.cleared_path(KEY, REGION)
        _write_npz(path, device=np.array("XCV50"),
                   frames=np.array(frames, dtype=np.int64),
                   rows=np.zeros((n_rows, width), dtype=np.uint32))
        assert disk.load_cleared(KEY, REGION) is None
        assert not os.path.exists(path)
        assert disk.stats.misses == 1

    def test_unknown_device_entry_is_dropped(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        path = disk.cleared_path(KEY, REGION)
        delta = _delta(1)
        _write_npz(path, device=np.array("XCV9999"), frames=delta.frames,
                   rows=delta.rows)
        assert disk.load_cleared(KEY, REGION) is None
        assert not os.path.exists(path)

    def test_tmp_litter_is_ignored(self, tmp_path):
        disk = DiskCache(str(tmp_path), max_bytes=10_000_000)
        litter = os.path.join(str(tmp_path), "partials", "torn.tmp")
        with open(litter, "wb") as f:
            f.write(b"x" * 100)
        disk.store_partial(KEY, REGION, DIGEST, b"payload")
        assert disk.load_partial(KEY, REGION, DIGEST) == b"payload"
        assert disk.size_bytes() == len(b"payload")


class TestPartialsAndEviction:
    def test_partial_roundtrip_region_none(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        disk.store_partial(KEY, None, DIGEST, b"\x00\x01\x02")
        assert disk.load_partial(KEY, None, DIGEST) == b"\x00\x01\x02"

    def test_lru_eviction_prefers_cold_entries(self, tmp_path):
        disk = DiskCache(str(tmp_path), max_bytes=3500)
        digests = [str(i) * 64 for i in range(3)]
        for i, digest in enumerate(digests):
            disk.store_partial(KEY, None, digest, bytes(1000))
            os.utime(disk.partial_path(KEY, None, digest),
                     (i + 1, i + 1))  # deterministic recency order
        # touch entry 0 so entry 1 is now the coldest
        assert disk.load_partial(KEY, None, digests[0]) is not None
        disk.store_partial(KEY, None, "f" * 64, bytes(1000))
        assert disk.stats.evictions >= 1
        assert disk.size_bytes() <= 3500
        assert disk.load_partial(KEY, None, digests[1]) is None  # evicted
        assert disk.load_partial(KEY, None, "f" * 64) is not None
        assert disk.load_partial(KEY, None, digests[0]) is not None  # kept

    def test_max_bytes_must_be_positive(self, tmp_path):
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            DiskCache(str(tmp_path), max_bytes=0)


class TestPersistentFrameCache:
    def test_second_cache_fetches_from_disk(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        delta = _delta(2, [9])
        calls = []

        def factory():
            calls.append(1)
            return delta

        first = PersistentFrameCache(disk)
        out1 = first.cleared(KEY, REGION, factory)
        assert len(calls) == 1 and first.stats.misses == 1

        # a fresh in-memory cache over the same disk: factory must NOT run
        second = PersistentFrameCache(DiskCache(str(tmp_path)))
        out2 = second.cleared(KEY, REGION, factory)
        assert len(calls) == 1
        assert second.stats.hits == 1 and second.stats.misses == 0
        assert out2 == out1 == delta

    def test_thread_stress_exactly_one_compute(self, tmp_path):
        """Satellite (c): N threads, one key -> one compute, stats add up."""
        disk = DiskCache(str(tmp_path))
        cache = PersistentFrameCache(disk)
        computes = []
        gate = threading.Barrier(8)
        results = []

        def worker():
            def factory():
                computes.append(threading.get_ident())
                time.sleep(0.05)  # widen the race window
                return _delta(3, [1])

            gate.wait()
            results.append(cache.cleared(KEY, REGION, factory))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(computes) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 7
        assert all(r is results[0] for r in results)

    def test_disk_backed_thread_stress_two_caches(self, tmp_path):
        """Same stress, threads split across two cache instances sharing one
        disk root.  The file lock covers only fetch/store — never the
        compute — so each *instance* runs at most one compute (its entry
        lock), the instances may duplicate (at most one compute each), and
        stores re-verify so both converge on one on-disk entry."""
        caches = [PersistentFrameCache(DiskCache(str(tmp_path)))
                  for _ in range(2)]
        computes = []
        gate = threading.Barrier(6)
        results = []

        def worker(i):
            def factory():
                computes.append(i)
                time.sleep(0.05)
                return _delta(4, [])

            gate.wait()
            results.append(caches[i % 2].cleared(KEY, REGION, factory))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert 1 <= len(computes) <= 2          # at most one per instance
        total = sum(c.stats.hits + c.stats.misses for c in caches)
        assert total == 6
        # every caller, whichever instance it went through, got the same state
        assert all(r == results[0] for r in results)
        # and the disk holds exactly one converged entry
        disk = DiskCache(str(tmp_path))
        assert disk.load_cleared(KEY, REGION) is not None

    def test_factory_runs_outside_the_file_lock(self, tmp_path):
        """The cross-process lock must be *released* during the compute: a
        slow factory in one cache cannot block another process's fetch.
        Proven directly: while the factory runs, taking the same file lock
        from another thread must succeed immediately."""
        disk = DiskCache(str(tmp_path))
        cache = PersistentFrameCache(disk)
        lock_name = f"cleared-{KEY[:32]}-{region_tag(REGION)}"
        lock_free_during_compute = []

        def factory():
            acquired = []

            def try_lock():
                with disk.lock(lock_name):
                    acquired.append(True)

            t = threading.Thread(target=try_lock)
            t.start()
            t.join(timeout=5)   # would deadlock-wait if cleared() held it
            lock_free_during_compute.append(bool(acquired))
            return _delta(5, [2])

        cache.cleared(KEY, REGION, factory)
        assert lock_free_during_compute == [True]


WORKER_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
from repro.serve import DiskCache, PersistentFrameCache
from repro.bitstream.frames import FrameDelta, FrameMemory
from repro.devices import get_device
from repro.flow.floorplan import RegionRect

root, marker = sys.argv[1], sys.argv[2]
cache = PersistentFrameCache(DiskCache(root))

def factory():
    with open(marker, "a") as f:
        f.write("compute\\n")
    time.sleep(0.4)   # long enough for the sibling to pile on the lock
    return FrameDelta.capture(FrameMemory(get_device("XCV50")), [7])

delta = cache.cleared("k" * 64, RegionRect(0, 2, 15, 11), factory)
assert delta.frames.tolist() == [7]
print("done", cache.stats.hits, cache.stats.misses)
"""


class TestCrossProcess:
    @pytest.mark.serve
    def test_two_processes_converge_without_blocking(self, tmp_path):
        """Two processes race one key.  The file lock is released during
        the compute, so either process may compute (1 or 2 computes, never
        more), neither ever blocks behind the other's 0.4 s factory, and
        re-verified stores leave exactly one entry both agree on."""
        script = tmp_path / "worker.py"
        script.write_text(WORKER_SCRIPT.format(src=os.path.abspath(SRC)))
        marker = str(tmp_path / "computes.log")
        root = str(tmp_path / "cache")
        procs = [
            subprocess.Popen([sys.executable, str(script), root, marker],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err.decode()
            assert out.decode().startswith("done")
        with open(marker) as f:
            computes = f.read().splitlines()
        assert 1 <= len(computes) <= 2, (
            f"expected 1-2 cross-process computes, got {len(computes)}"
        )
        # duplicates converged: one valid entry serves both processes
        disk = DiskCache(root)
        loaded = disk.load_cleared("k" * 64, RegionRect(0, 2, 15, 11))
        assert loaded is not None and loaded.frames.tolist() == [7]

    @pytest.mark.serve
    def test_cache_survives_kill_minus_nine(self, tmp_path):
        """A process is SIGKILLed after populating the cache; a new process
        (here: a new DiskCache) finds every completed entry intact."""
        script = tmp_path / "populate.py"
        script.write_text(f"""
import sys, time
sys.path.insert(0, {os.path.abspath(SRC)!r})
from repro.serve import DiskCache
from repro.bitstream.frames import FrameDelta, FrameMemory
from repro.devices import get_device
from repro.flow.floorplan import RegionRect

disk = DiskCache(sys.argv[1])
fm = FrameMemory(get_device("XCV50"))
fm.set_bit(10, 0, 1)
disk.store_cleared("b" * 64, RegionRect(0, 2, 15, 11), FrameDelta.capture(fm, [10]))
disk.store_partial("b" * 64, None, "m" * 64, b"partial-bytes")
print("READY", flush=True)
time.sleep(300)   # spin until killed
""")
        root = str(tmp_path / "cache")
        proc = subprocess.Popen([sys.executable, str(script), root],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            assert b"READY" in line, proc.stderr.read().decode()
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == -signal.SIGKILL

        disk = DiskCache(root)
        loaded = disk.load_cleared("b" * 64, RegionRect(0, 2, 15, 11))
        assert loaded is not None and loaded.frames.tolist() == [10]
        rebuilt = FrameMemory(get_device("XCV50"))
        rebuilt.data[loaded.frames] = loaded.rows
        assert rebuilt.get_bit(10, 0) == 1
        assert disk.load_partial("b" * 64, None, "m" * 64) == b"partial-bytes"


class TestTagHelpers:
    def test_tag_and_rect_paths_agree(self, tmp_path):
        """The wire-facing *_tag helpers address exactly the same entries
        as the RegionRect-facing ones (the peer-fill contract)."""
        disk = DiskCache(str(tmp_path))
        tag = region_tag(REGION)
        assert disk.partial_path_tag(KEY, tag, DIGEST) == \
            disk.partial_path(KEY, REGION, DIGEST)
        disk.store_partial_tag(KEY, tag, DIGEST, b"via-tag")
        assert disk.load_partial(KEY, REGION, DIGEST) == b"via-tag"
        assert disk.load_partial_tag(KEY, tag, DIGEST) == b"via-tag"

    def test_tag_none_matches_region_none(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        disk.store_partial(KEY, None, DIGEST, b"regionless")
        assert disk.load_partial_tag(KEY, "none", DIGEST) == b"regionless"


PEERFILL_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
from repro.serve import DiskCache

root, mode, payload_path = sys.argv[1], sys.argv[2], sys.argv[3]
with open(payload_path, "rb") as f:
    payload = f.read()
disk = DiskCache(root, max_bytes=int(sys.argv[4]))
key, tag, digest = "c" * 64, "0_2_15_11", "e" * 64
deadline = time.monotonic() + 5.0
# both processes hammer the same key concurrently until the deadline:
# one plays the generate path (store via rect-less tag store), the other
# the peer-fill path (fetch, store on hit) -- like a node racing a peer
while time.monotonic() < deadline:
    if mode == "generate":
        disk.store_partial_tag(key, tag, digest, payload)
    else:
        got = disk.load_partial_tag(key, tag, digest)
        if got is not None:
            assert got == payload, "peer read torn or divergent bytes"
            disk.store_partial_tag(key, tag, digest, got)
            break
    time.sleep(0.01)
print("done", flush=True)
"""


class TestConcurrentPeerFill:
    @pytest.mark.serve
    @pytest.mark.cluster
    def test_fetch_vs_generate_converge_byte_identically(self, tmp_path):
        """Two processes fill one key concurrently — one generating, one
        peer-filling (fetch then store) — and must converge on a single
        byte-identical entry, with the LRU byte cap still honored."""
        payload = bytes(range(256)) * 8          # 2 KiB, recognizable
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(payload)
        script = tmp_path / "filler.py"
        script.write_text(PEERFILL_SCRIPT.format(src=os.path.abspath(SRC)))
        root = str(tmp_path / "cache")
        cap = 100_000
        procs = [
            subprocess.Popen(
                [sys.executable, str(script), root, mode,
                 str(payload_path), str(cap)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for mode in ("generate", "peerfill")
        ]
        for p in procs:
            out, err = p.communicate(timeout=60)
            assert p.returncode == 0, err.decode()
            assert out.decode().startswith("done")
        disk = DiskCache(root, max_bytes=cap)
        assert disk.load_partial_tag("c" * 64, "0_2_15_11", "e" * 64) == payload
        assert disk.size_bytes() <= cap

    @pytest.mark.serve
    @pytest.mark.cluster
    def test_peer_fill_respects_lru_cap(self, tmp_path):
        """Peer-filled entries are ordinary cache citizens: filling past
        the byte cap evicts cold entries instead of growing unbounded."""
        disk = DiskCache(str(tmp_path), max_bytes=3500)
        for i in range(4):
            digest = str(i) * 64
            disk.store_partial_tag(KEY, "none", digest, bytes(1000))
            os.utime(disk.partial_path_tag(KEY, "none", digest), (i + 1, i + 1))
        assert disk.size_bytes() <= 3500
        assert disk.stats.evictions >= 1
        assert disk.load_partial_tag(KEY, "none", "0" * 64) is None  # coldest
        assert disk.load_partial_tag(KEY, "none", "3" * 64) is not None
