"""Frame cache tests: content keying, hit/miss, invalidation, single-flight."""

import hashlib
import threading

import numpy as np
import pytest

from repro.batch import FrameCache, fingerprint
from repro.bitstream.frames import FrameDelta, FrameMemory
from repro.core import Jpg
from repro.devices import get_device
from repro.flow.floorplan import RegionRect
from repro.obs import Metrics, use_metrics


@pytest.fixture()
def device():
    return get_device("XCV50")


@pytest.fixture()
def region():
    return RegionRect(0, 2, 15, 11)


def _delta(device, frames=()) -> FrameDelta:
    """A cleared state changing ``frames`` of a blank memory."""
    return FrameDelta.capture(FrameMemory(device), frames)


class TestFingerprint:
    def test_equal_content_equal_key(self, device):
        a, b = FrameMemory(device), FrameMemory(device)
        assert fingerprint(a) == fingerprint(b)

    def test_content_change_changes_key(self, device):
        a = FrameMemory(device)
        key = fingerprint(a)
        a.set_bit(0, 0, 1)
        assert fingerprint(a) != key

    def test_device_qualifies_key(self):
        a = FrameMemory(get_device("XCV50"))
        b = FrameMemory(get_device("XCV100"))
        assert fingerprint(a) != fingerprint(b)

    @pytest.mark.parametrize("part", ["XCV50", "XCV300"])
    def test_digest_is_name_then_frame_bytes(self, part):
        """Hashing the frames in place keeps every existing disk-cache key:
        the digest is still sha256(part name + data.tobytes())."""
        fm = FrameMemory(get_device(part))
        rng = np.random.default_rng(len(part))
        fm.data[:] = rng.integers(0, 2**32, size=fm.data.shape, dtype=np.uint64)
        want = hashlib.sha256(part.encode() + fm.data.tobytes()).hexdigest()
        assert fingerprint(fm) == want
        fm.data.setflags(write=False)   # a shared read-only base hashes alike
        assert fingerprint(fm) == want


class TestHitMiss:
    def test_miss_then_hit(self, device, region):
        cache = FrameCache()
        cleared = _delta(device, [1, 2])
        calls = []

        def factory():
            calls.append(1)
            return cleared

        out1 = cache.cleared("base", region, factory)
        out2 = cache.cleared("base", region, factory)
        assert out1 is out2 is cleared
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_distinct_regions_distinct_entries(self, device, region):
        cache = FrameCache()
        other = RegionRect(0, 12, 15, 21)
        cache.cleared("base", region, lambda: _delta(device))
        cache.cleared("base", other, lambda: _delta(device))
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert len(cache) == 2

    def test_metrics_counters_emitted(self, device, region):
        cache = FrameCache()
        m = Metrics()
        with use_metrics(m):
            cache.cleared("base", region, lambda: _delta(device))
            cache.cleared("base", region, lambda: _delta(device))
        assert m.counter("framecache.miss") == 1
        assert m.counter("framecache.hit") == 1

    def test_single_flight_under_concurrency(self, device, region):
        cache = FrameCache()
        calls = []
        gate = threading.Barrier(4)

        def worker():
            def factory():
                calls.append(1)
                return _delta(device)

            gate.wait()
            cache.cleared("base", region, factory)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 3


class TestInvalidation:
    def test_base_change_is_a_miss(self, device, region):
        """Content keying: a different base digest never matches."""
        cache = FrameCache()
        cache.cleared("base-v1", region, lambda: _delta(device))
        cache.cleared("base-v2", region, lambda: _delta(device))
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_invalidate_all(self, device, region):
        cache = FrameCache()
        cache.cleared("base", region, lambda: _delta(device))
        assert cache.invalidate() == 1
        cache.cleared("base", region, lambda: _delta(device))
        assert cache.stats.misses == 2

    def test_invalidate_one_base(self, device, region):
        cache = FrameCache()
        cache.cleared("a", region, lambda: _delta(device))
        cache.cleared("b", region, lambda: _delta(device))
        assert cache.invalidate("a") == 1
        assert len(cache) == 1
        # b survives: next lookup hits
        cache.cleared("b", region, lambda: _delta(device))
        assert cache.stats.hits == 1


class TestJpgIntegration:
    """The cache hook on Jpg.make_partial: identical output, shared clears."""

    def test_cached_output_byte_identical(self, demo_project):
        mv = demo_project.versions[("r1", "down")]
        plain = Jpg(demo_project.part, demo_project.base_bitfile).make_partial(
            mv.design, region=demo_project.regions["r1"]
        )
        cache = FrameCache()
        cached = Jpg(
            demo_project.part, demo_project.base_bitfile, frame_cache=cache
        ).make_partial(mv.design, region=demo_project.regions["r1"])
        assert cached.data == plain.data
        assert cached.frames == plain.frames
        assert cache.stats.misses == 1

    def test_second_generation_hits(self, demo_project):
        cache = FrameCache()
        region = demo_project.regions["r1"]
        for version in ["up", "down"]:
            mv = demo_project.versions[("r1", version)]
            jpg = Jpg(demo_project.part, demo_project.base_bitfile, frame_cache=cache)
            jpg.make_partial(mv.design, region=region)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_changed_base_invalidates(self, demo_project):
        """After the configuration state changes, the old cleared-region
        entry must not be reused (content key differs)."""
        cache = FrameCache()
        region = demo_project.regions["r1"]
        down = demo_project.versions[("r1", "down")]
        up = demo_project.versions[("r1", "up")]

        jpg = Jpg(demo_project.part, demo_project.base_bitfile, frame_cache=cache)
        jpg.make_partial(down.design, region=region)
        # the same instance's configuration now includes 'down'; generating
        # against it is a different base content -> miss, not a stale hit
        jpg.make_partial(up.design, region=region)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0


class TestBaseKey:
    """Jpg(base_key=...): the caller's key serves the first make_partial only."""

    SEQUENCE = [("r1", "down"), ("r2", "right"), ("r1", "up")]

    def run(self, project, **kwargs):
        jpg = Jpg(project.part, project.base_bitfile, **kwargs)
        datas = [
            jpg.make_partial(project.versions[key].design,
                             region=project.regions[key[0]]).data
            for key in self.SEQUENCE
        ]
        return datas, jpg.full_bitstream()

    def test_reused_jpg_matches_cacheless(self, demo_project):
        plain = self.run(demo_project)
        base = Jpg(demo_project.part, demo_project.base_bitfile).frames
        cache = FrameCache()
        keyed = self.run(demo_project, frame_cache=cache, base_key=fingerprint(base))
        assert keyed == plain
        # only the first clear was keyed by the base: the later two hashed
        # the merged state, which no earlier entry matches
        assert cache.stats.misses == 3 and cache.stats.hits == 0

    def test_key_is_dropped_after_a_merge_without_clear(self, demo_project):
        """A merge with clear_region off still retires the base key."""
        from repro.core import JpgOptions

        cache = FrameCache()
        base = Jpg(demo_project.part, demo_project.base_bitfile).frames
        region = demo_project.regions["r1"]
        jpg = Jpg(demo_project.part, demo_project.base_bitfile,
                  frame_cache=cache, base_key=fingerprint(base))
        jpg.make_partial(demo_project.versions[("r1", "down")].design, region=region,
                         options=JpgOptions(clear_region=False))
        merged = fingerprint(jpg.frames)
        jpg.make_partial(demo_project.versions[("r1", "up")].design, region=region)
        assert cache.invalidate(merged) == 1
