"""JBits API tests: get/set, dirty tracking, partial emission."""

import pytest

from repro.bitstream.frames import FrameMemory
from repro.bitstream.reader import apply_bitstream, parse_bitstream
from repro.devices import get_device
from repro.devices.resources import SLICE
from repro.devices.geometry import IobSite, Side
from repro.errors import JBitsError
from repro.jbits import JBits


@pytest.fixture()
def jb(counter_bitfile):
    j = JBits("XCV50")
    j.read(counter_bitfile)
    return j


class TestLoading:
    def test_read_bitfile(self, jb):
        assert jb.frames is not None
        assert jb.dirty_frames == []

    def test_read_raw_bytes(self, counter_bitfile):
        j = JBits("XCV50")
        j.read(counter_bitfile.config_bytes)
        assert j.frames is not None

    def test_read_frame_memory_clones(self):
        fm = FrameMemory(get_device("XCV50"))
        j = JBits("XCV50")
        j.read(fm)
        j.set(0, 0, SLICE[0].F, 0xFFFF)
        assert fm.get_field(0, 0, SLICE[0].F) == 0  # original untouched

    def test_wrong_part_rejected(self):
        j = JBits("XCV50")
        with pytest.raises(JBitsError):
            j.read(FrameMemory(get_device("XCV100")))

    def test_blank(self):
        j = JBits("XCV50")
        j.blank()
        assert j.frames.nonzero_frames() == []

    def test_unloaded_access_rejected(self):
        j = JBits("XCV50")
        with pytest.raises(JBitsError, match="read"):
            j.get(0, 0, SLICE[0].F)
        with pytest.raises(JBitsError):
            j.write()


class TestGetSet:
    def test_roundtrip(self, jb):
        jb.set(2, 2, SLICE[0].F, 0x1234)
        assert jb.get(2, 2, SLICE[0].F) == 0x1234

    def test_set_dirties_frames(self, jb):
        jb.set(2, 2, SLICE[0].F, 0xFFFF)
        dirty = jb.dirty_frames
        assert dirty
        g = jb.device.geometry
        base = g.frame_base(g.major_of_clb_col(2))
        assert all(base <= f < base + 16 for f in dirty)

    def test_nochange_set_stays_clean(self, jb):
        value = jb.get(2, 2, SLICE[0].F)
        jb.set(2, 2, SLICE[0].F, value)
        assert jb.dirty_frames == []

    def test_lut_convenience(self, jb):
        jb.set_lut(3, 3, 1, "G", 0xBEEF)
        assert jb.get_lut(3, 3, 1, "G") == 0xBEEF

    def test_pip_set(self, jb):
        assert jb.get_pip(5, 5, 10) == 0
        jb.set_pip(5, 5, 10, 1)
        assert jb.get_pip(5, 5, 10) == 1
        assert len(jb.dirty_frames) == 1

    def test_pip_by_name(self, jb):
        jb.set_pip_by_name(5, 5, "OUT0", "SE0")
        from repro.devices.wires import pip_by_wires

        assert jb.get_pip(5, 5, pip_by_wires("OUT0", "SE0").index) == 1

    def test_iob_and_gclk(self, jb):
        site = IobSite(Side.RIGHT, 7, 0)
        jb.set_iob(site, 1, 1)
        jb.set_gclk(3, 1)
        assert jb.frames.get_iob_enable(site, 1) == 1
        assert jb.frames.get_gclk_enable(3) == 1
        assert len(jb.dirty_frames) == 2

    def test_clear_tile(self, jb, counter_flow):
        comp = next(iter(counter_flow.design.slices.values()))
        r, c, s = comp.site
        jb.clear_tile(r, c)
        assert jb.get(r, c, SLICE[s].F) == 0
        assert jb.get(r, c, SLICE[s].FFX_USED) == 0
        assert jb.frames.active_pips(r, c) == []
        assert jb.dirty_frames


class TestPartials:
    def test_write_partial_roundtrip(self, jb, counter_frames):
        jb.set(4, 7, SLICE[1].G, 0xABCD)
        partial = jb.write_partial()
        target = counter_frames.clone()
        apply_bitstream(target, partial)
        assert target.get_field(4, 7, SLICE[1].G) == 0xABCD
        assert target == jb.frames

    def test_write_partial_checkpoint(self, jb):
        jb.set(4, 7, SLICE[1].G, 1)
        jb.write_partial()
        assert jb.dirty_frames == []
        with pytest.raises(JBitsError, match="dirty"):
            jb.write_partial()

    def test_write_partial_keep_dirty(self, jb):
        jb.set(4, 7, SLICE[1].G, 1)
        jb.write_partial(checkpoint=False)
        assert jb.dirty_frames

    def test_read_partial_tracks_frames(self, counter_bitfile):
        a = JBits("XCV50")
        a.read(counter_bitfile)
        a.set(1, 1, SLICE[0].F, 0xF0F0)
        partial = a.write_partial()
        b = JBits("XCV50")
        b.read(counter_bitfile)
        b.read_partial(partial)
        assert b.frames == a.frames
        assert b.dirty_frames  # applied frames are tracked

    def test_touch_frames(self, jb):
        jb.touch_frames([10, 11, 12])
        assert jb.dirty_frames == [10, 11, 12]
        jb.touch_frames(f for f in (13, 10))  # any iterable, checked once
        jb.touch_frames([])
        assert jb.dirty_frames == [10, 11, 12, 13]
        with pytest.raises(JBitsError):
            jb.touch_frames([99999])
        with pytest.raises(JBitsError, match=r"frame -1 out of range 0\.\."):
            jb.touch_frames([5, -1])
        assert jb.dirty_frames == [10, 11, 12, 13]

    def test_full_write_roundtrip(self, jb):
        jb.set(0, 0, SLICE[0].F, 0x8888)
        data = jb.write()
        parsed, _ = parse_bitstream(get_device("XCV50"), data)
        assert parsed == jb.frames


class TestMergeFrames:
    def test_merge_diff_only(self, jb, counter_frames):
        other = counter_frames.clone()
        other.set_field(9, 9, SLICE[0].F, 0x4321)
        changed = jb.merge_frames(other)
        assert changed == counter_frames.diff_frames(other)
        assert jb.frames == other
        assert jb.dirty_frames == changed

    def test_merge_identical_is_noop(self, jb, counter_frames):
        assert jb.merge_frames(counter_frames.clone()) == []
        assert jb.dirty_frames == []

    def test_merge_wrong_part(self, jb):
        with pytest.raises(JBitsError):
            jb.merge_frames(FrameMemory(get_device("XCV100")))
