"""A cleared region as base + delta, and a base decoded once per content.

A frame-cache entry is the :class:`FrameDelta` of one region clear: the
frames it changed and their cleared rows.  Both a miss (the clear runs in
place) and a hit (the rows are written back) must leave a :class:`Jpg` in
the state :meth:`JBits.clear_region` leaves a plain copy of the same
frames in — same frames, same dirty set — on every region of the
Figure-4 project, the XCV1000 scale plan and the irregular family
variants.  Bases come from :func:`decoded_base`: decoded once per
content, shared read-only, never stored when the stream is bad.
"""

import numpy as np
import pytest

from repro.batch import BatchJpg, FrameCache
from repro.bitstream.frames import FrameDelta, FrameMemory
from repro.core import Jpg
from repro.devices import get_device
from repro.errors import BitstreamError
from repro.jbits import JBits, decoded_base
from repro.jbits import api as jbits_api
from repro.workloads import figure4_plan, make_project, scale_plan

from ..conftest import FAMILY_PARTS, family_project


@pytest.fixture(scope="module")
def fig4_base():
    return make_project("fig4", "XCV100", figure4_plan("XCV100"), implement_variants=False)


@pytest.fixture(scope="module")
def xcv1000_base():
    return make_project("x1000", "XCV1000", scale_plan("XCV1000"), implement_variants=False)


def reference_clear(part: str, frames: FrameMemory, region, dirty=()):
    """JBits.clear_region on a copy of ``frames`` with ``dirty`` already
    dirty: (changed frames, frames after, dirty set after)."""
    jb = JBits(part)
    jb.read(frames)
    jb.touch_frames(dirty)
    changed = jb.clear_region(region)
    return changed, jb.frames, jb.dirty_frames


def assert_clears_match(part: str, base, regions) -> list[FrameDelta]:
    """Every region cleared through a shared frame cache, first on a miss
    and then on a hit, equals the plain clear; returns the cache entries."""
    cache = FrameCache()
    deltas = []
    for region in regions:
        changed, want, want_dirty = reference_clear(part, Jpg(part, base).frames, region)
        assert changed == sorted(changed)
        for hit in (False, True):
            before = cache.stats
            jpg = Jpg(part, base, frame_cache=cache)
            jpg._clear_region(region, None)
            assert cache.stats.hits == before.hits + hit
            assert jpg.frames == want, (part, region, hit)
            assert jpg.jbits.dirty_frames == want_dirty, (part, region, hit)
        delta = cache.cleared(FrameCache.base_key(Jpg(part, base).frames), region,
                              lambda: pytest.fail("entry must exist"))
        assert delta.frames.tolist() == changed
        assert np.array_equal(delta.rows, want.data[changed])
        deltas.append(delta)
    assert cache.stats.misses == len(regions)
    return deltas


class TestDeltaEqualsClear:
    def test_figure4_regions(self, fig4_base):
        assert_clears_match("XCV100", fig4_base.base_bitfile,
                            list(fig4_base.regions.values()))

    def test_xcv1000_scale_regions(self, xcv1000_base):
        """The twelve cleared regions of the XCV1000 batch hold the frames
        they changed, not twelve copies of the device (9.2 MB)."""
        deltas = assert_clears_match("XCV1000", xcv1000_base.base_bitfile,
                                     list(xcv1000_base.regions.values()))
        assert len(deltas) == 12
        assert sum(d.nbytes for d in deltas) < 200_000

    @pytest.mark.families
    @pytest.mark.parametrize("part", FAMILY_PARTS)
    def test_family_variants(self, part):
        project = family_project(part)
        assert_clears_match(part, project.base_bitfile, list(project.regions.values()))

    def test_frame_dirty_before_the_clear_is_in_the_delta(self, fig4_base):
        """A frame written (so dirty) before a clear that changes it again
        belongs to the delta: a hit on the same content must dirty it."""
        part, region = "XCV100", fig4_base.regions["r2"]
        jpg = Jpg(part, fig4_base.base_bitfile, frame_cache=FrameCache())
        g = jpg.jbits.device.geometry
        frame = g.frame_base(g.major_of_clb_col(region.cmin)) + 3
        bit = g.row_bit_offset(region.rmin) + 5
        jpg.frames.set_bit(frame, bit, 1 - jpg.frames.get_bit(frame, bit))
        jpg.jbits.touch_frames([frame])
        before = jpg.frames.clone()
        changed, want, want_dirty = reference_clear(part, before, region, [frame])
        assert frame in changed
        jpg._clear_region(region, None)
        assert jpg.frames == want and jpg.jbits.dirty_frames == want_dirty

        # a fresh tool whose base is exactly that content hits the entry
        other = Jpg(part, before, frame_cache=jpg.frame_cache)
        other._clear_region(region, None)
        assert jpg.frame_cache.stats.hits == 1
        assert other.frames == want
        assert frame in other.jbits.dirty_frames
        assert other.jbits.dirty_frames == reference_clear(part, before, region)[2]


class TestDecodedBase:
    def test_decoded_once_per_content(self, counter_bitfile, monkeypatch):
        calls = []
        real = jbits_api.apply_bitstream

        def spy(fm, data, **kwargs):
            calls.append(len(data))
            return real(fm, data, **kwargs)

        monkeypatch.setattr(jbits_api, "_base_cache", jbits_api.LruStore(8))
        monkeypatch.setattr(jbits_api, "apply_bitstream", spy)
        first = decoded_base(get_device("XCV50"), counter_bitfile)
        again = decoded_base(get_device("XCV50"), counter_bitfile.config_bytes)
        jpgs = [Jpg("XCV50", counter_bitfile) for _ in range(3)]
        engine = BatchJpg("XCV50", counter_bitfile)
        assert len(calls) == 1
        assert again is first and engine.base_frames is first
        for jpg in jpgs:
            assert jpg.frames == first and jpg.frames.data is not first.data
            assert jpg.frames.data.flags.writeable

    def test_stored_base_is_read_only(self, counter_bitfile):
        base = decoded_base(get_device("XCV50"), counter_bitfile)
        with pytest.raises(ValueError):
            base.data[0, 0] = 1
        with pytest.raises(ValueError):
            base.set_bit(0, 0, 1)
        engine = BatchJpg("XCV50", counter_bitfile)
        with pytest.raises(ValueError):
            engine.base_frames.data[0, 0] = 1

    def test_corrupt_stream_raises_every_time_and_is_never_stored(
            self, counter_bitfile, monkeypatch):
        store = jbits_api.LruStore(8)
        monkeypatch.setattr(jbits_api, "_base_cache", store)
        bad = bytearray(counter_bitfile.config_bytes)
        bad[len(bad) // 2] ^= 0xFF  # a flipped payload word fails the CRC
        errors = []
        for _ in range(3):
            with pytest.raises(BitstreamError) as info:
                Jpg("XCV50", bytes(bad))
            errors.append((type(info.value), str(info.value)))
        assert len(set(errors)) == 1
        assert len(store) == 0
