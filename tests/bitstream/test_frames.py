"""Frame memory tests: bit/field/PIP access, masks, diff, bulk decode,
frame deltas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.frames import FrameDelta, FrameMemory, frame_runs
from repro.devices import get_device
from repro.devices.geometry import IobSite, Side
from repro.devices.resources import SLICE, BitCoord
from repro.errors import BitstreamError, DeviceError


@pytest.fixture()
def fm():
    return FrameMemory(get_device("XCV50"))


class TestConstruction:
    def test_blank(self, fm):
        assert not fm.data.any()
        assert fm.nonzero_frames() == []

    def test_shape_checked(self):
        dev = get_device("XCV50")
        with pytest.raises(BitstreamError):
            FrameMemory(dev, np.zeros((3, 3), dtype=np.uint32))

    def test_clone_independent(self, fm):
        clone = fm.clone()
        clone.set_bit(0, 0, 1)
        assert fm.get_bit(0, 0) == 0
        assert clone != fm

    def test_equality(self, fm):
        assert fm == fm.clone()
        other = FrameMemory(get_device("XCV100"))
        assert fm != other


class TestBitAccess:
    def test_set_get(self, fm):
        fm.set_bit(100, 5, 1)
        assert fm.get_bit(100, 5) == 1
        fm.set_bit(100, 5, 0)
        assert fm.get_bit(100, 5) == 0

    def test_msb_first_packing(self, fm):
        fm.set_bit(0, 0, 1)
        assert fm.data[0, 0] == np.uint32(0x80000000)
        fm.set_bit(0, 33, 1)
        assert fm.data[0, 1] == np.uint32(0x40000000)

    def test_beyond_payload_rejected(self, fm):
        with pytest.raises(BitstreamError):
            fm.set_bit(0, fm.device.geometry.frame_bits, 1)

    def test_frame_out_of_range(self, fm):
        with pytest.raises(DeviceError):
            fm.get_bit(99999, 0)


class TestWholeFrames:
    def test_set_frame_masks_pad(self, fm):
        words = [0xFFFFFFFF] * fm.device.geometry.frame_words
        fm.set_frame(7, words)
        # pad word and bits beyond payload must be masked off
        assert fm.data[7, -1] == 0
        assert fm.get_bit(7, 0) == 1

    def test_set_frame_wrong_length(self, fm):
        with pytest.raises(BitstreamError):
            fm.set_frame(0, [1, 2, 3])

    def test_diff_frames(self, fm):
        other = fm.clone()
        other.set_bit(10, 0, 1)
        other.set_bit(500, 3, 1)
        assert fm.diff_frames(other) == [10, 500]

    def test_diff_different_parts_rejected(self, fm):
        with pytest.raises(BitstreamError):
            fm.diff_frames(FrameMemory(get_device("XCV100")))

    def test_frames_equal(self, fm):
        other = fm.clone()
        other.set_bit(3, 3, 1)
        assert fm.frames_equal(other, 2)
        assert not fm.frames_equal(other, 3)


class TestFieldAccess:
    def test_lut_roundtrip(self, fm):
        fm.set_field(3, 5, SLICE[0].F, 0xBEEF)
        assert fm.get_field(3, 5, SLICE[0].F) == 0xBEEF

    def test_fields_do_not_interfere(self, fm):
        fm.set_field(3, 5, SLICE[0].F, 0xFFFF)
        fm.set_field(3, 5, SLICE[0].G, 0x0000)
        fm.set_field(3, 5, SLICE[1].F, 0x1234)
        assert fm.get_field(3, 5, SLICE[0].F) == 0xFFFF
        assert fm.get_field(3, 5, SLICE[1].F) == 0x1234
        assert fm.get_field(3, 5, SLICE[0].G) == 0

    def test_neighbouring_tiles_do_not_interfere(self, fm):
        fm.set_field(3, 5, SLICE[0].F, 0xAAAA)
        assert fm.get_field(4, 5, SLICE[0].F) == 0
        assert fm.get_field(2, 5, SLICE[0].F) == 0
        assert fm.get_field(3, 6, SLICE[0].F) == 0

    def test_value_range_checked(self, fm):
        with pytest.raises(BitstreamError):
            fm.set_field(0, 0, SLICE[0].FFX_USED, 2)
        with pytest.raises(BitstreamError):
            fm.set_field(0, 0, SLICE[0].F, 1 << 16)

    def test_single_bit_fields(self, fm):
        fm.set_field(1, 1, SLICE[1].CKINV, 1)
        assert fm.get_field(1, 1, SLICE[1].CKINV) == 1
        assert fm.get_field(1, 1, SLICE[0].CKINV) == 0

    def test_coord_access(self, fm):
        fm.set_coord(2, 2, BitCoord(20, 3), 1)
        assert fm.get_coord(2, 2, BitCoord(20, 3)) == 1

    @settings(max_examples=30)
    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=23),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_property_lut_roundtrip(self, r, c, value):
        fm = FrameMemory(get_device("XCV50"))
        fm.set_field(r, c, SLICE[1].G, value)
        assert fm.get_field(r, c, SLICE[1].G) == value


class TestPipAccess:
    def test_roundtrip(self, fm):
        fm.set_pip(4, 4, 123, 1)
        assert fm.get_pip(4, 4, 123) == 1
        assert fm.active_pips(4, 4) == [123]

    def test_isolation(self, fm):
        fm.set_pip(4, 4, 123, 1)
        assert fm.get_pip(4, 5, 123) == 0
        assert fm.get_pip(5, 4, 123) == 0
        assert fm.get_pip(4, 4, 124) == 0


class TestIobAndClock:
    def test_iob_enable_roundtrip(self, fm):
        site = IobSite(Side.LEFT, 3, 1)
        fm.set_iob_enable(site, 0, 1)
        assert fm.get_iob_enable(site, 0) == 1
        assert fm.get_iob_enable(site, 1) == 0

    def test_gclk_roundtrip(self, fm):
        fm.set_gclk_enable(2, 1)
        assert fm.get_gclk_enable(2) == 1
        assert fm.get_gclk_enable(0) == 0


class TestBulkDecode:
    def test_column_bits_matches_bit_access(self, fm):
        fm.set_field(3, 5, SLICE[0].F, 0x8001)
        fm.set_pip(7, 5, 42, 1)
        col = fm.column_bits(5)
        assert col.shape == (48, fm.device.geometry.frame_bits)
        tile3 = fm.tile_bits(3, 5, col)
        # truth-table bit 15 lives at (minor 15, rowbit 0), bit 0 at (0, 0)
        assert tile3[15, 0] == 1
        assert tile3[0, 0] == 1
        assert tile3[1, 0] == 0
        tile7 = fm.tile_bits(7, 5, col)
        from repro.devices.resources import pip_coord

        coord = pip_coord(42)
        assert tile7[coord.minor, coord.rowbit] == 1

    def test_tile_bits_blank(self, fm):
        assert not fm.tile_bits(0, 0).any()


class TestFrameRuns:
    @pytest.mark.parametrize(
        "indices,expected",
        [
            ([], []),
            ([5], [(5, 1)]),
            ([1, 2, 3], [(1, 3)]),
            ([1, 3, 4, 9], [(1, 1), (3, 2), (9, 1)]),
            ([4, 4, 5], [(4, 2)]),          # duplicates collapse
            ([9, 1, 2], [(1, 2), (9, 1)]),  # unsorted input
        ],
    )
    def test_examples(self, indices, expected):
        assert frame_runs(indices) == expected

    @given(st.sets(st.integers(min_value=0, max_value=300), max_size=60))
    def test_property_runs_cover_exactly(self, indices):
        runs = frame_runs(indices)
        covered = {i for start, n in runs for i in range(start, start + n)}
        assert covered == set(indices)
        # runs must be disjoint, sorted, and maximal
        flat = [x for start, n in runs for x in (start, start + n - 1)]
        assert flat == sorted(flat)
        for (s1, n1), (s2, _) in zip(runs, runs[1:]):
            assert s1 + n1 < s2  # a gap separates consecutive runs


class TestClearBitRange:
    """The vectorized region-clear hot path vs the per-bit reference."""

    def _reference_clear(self, fm, frame_start, frame_count, bit_lo, bit_hi):
        changed = []
        for f in range(frame_start, frame_start + frame_count):
            touched = False
            for b in range(bit_lo, bit_hi):
                if fm.get_bit(f, b):
                    fm.set_bit(f, b, 0)
                    touched = True
            if touched:
                changed.append(f)
        return changed

    @given(st.integers(min_value=0, max_value=1_000_000), st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_matches_per_bit_clear(self, seed, data):
        fm = FrameMemory(get_device("XCV50"))
        rng = np.random.default_rng(seed)
        fm.data[:] = rng.integers(0, 2**32, size=fm.data.shape,
                                  dtype=np.uint64).astype(np.uint32)
        fm.data &= fm._payload_mask[None, :]
        frame_bits = fm.device.geometry.frame_bits
        start = data.draw(st.integers(0, fm.data.shape[0] - 4))
        count = data.draw(st.integers(1, 4))
        lo = data.draw(st.integers(0, frame_bits - 1))
        hi = data.draw(st.integers(lo, frame_bits))
        ref = fm.clone()
        expected = self._reference_clear(ref, start, count, lo, hi)
        got = fm.clear_bit_range(start, count, lo, hi)
        assert got == expected
        assert fm == ref

    def test_untouched_frames_not_reported(self, fm):
        fm.set_bit(10, 100, 1)
        # bits [0, 50) of frames 9..12 are already clear
        assert fm.clear_bit_range(9, 4, 0, 50) == []
        assert fm.get_bit(10, 100) == 1

    def test_changed_frames_reported_absolute(self, fm):
        fm.set_bit(20, 5, 1)
        fm.set_bit(22, 5, 1)
        assert fm.clear_bit_range(19, 6, 0, 18) == [20, 22]
        assert not fm.data[19:25].any()

    def test_range_validation(self, fm):
        frame_bits = fm.device.geometry.frame_bits
        with pytest.raises(BitstreamError):
            fm.clear_bit_range(0, 1, 0, frame_bits + 1)
        with pytest.raises(DeviceError):
            fm.clear_bit_range(fm.data.shape[0] - 1, 2, 0, 18)

    def test_clearing_a_tile_matches_jbits_semantics(self, fm):
        """Clearing [off, off+18) of a column's 48 frames is exactly one
        CLB tile (what JBits.clear_tile vectorizes)."""
        g = fm.device.geometry
        base = g.frame_base(g.major_of_clb_col(3))
        off = g.row_bit_offset(2)
        fm.set_field(2, 3, SLICE[0].lut("F"), 0xBEEF)
        before = fm.clone()
        changed = fm.clear_bit_range(base, 48, off, off + 18)
        assert changed, "clearing a configured tile must dirty frames"
        assert fm.get_field(2, 3, SLICE[0].lut("F")) == 0
        # no bit outside the tile's column/row window may change
        diff = np.flatnonzero((fm.data != before.data).any(axis=1))
        assert set(diff) <= set(range(base, base + 48))


def _random_frames(seed: int) -> FrameMemory:
    fm = FrameMemory(get_device("XCV50"))
    rng = np.random.default_rng(seed)
    fm.data[:] = rng.integers(0, 2**32, size=fm.data.shape,
                              dtype=np.uint64).astype(np.uint32) & fm._payload_mask[None, :]
    return fm


class TestFrameDelta:
    """The form a cleared region is cached and spilled to disk in."""

    def test_roundtrip(self):
        base = _random_frames(6)
        other = base.clone()
        other.data[5, 2] ^= 0x80000000
        other.data[300] = 0
        delta = FrameDelta.capture(other, [300, 5])
        assert delta.frames.tolist() == [5, 300]
        assert delta.nbytes == 2 * base.data.shape[1] * 4 + 2 * 8
        assert not delta.rows.flags.writeable
        rebuilt = base.clone()
        rebuilt.data[delta.frames] = delta.rows
        assert rebuilt == other

    def test_empty_delta(self):
        base = _random_frames(7)
        delta = FrameDelta.capture(base, [])
        assert len(delta) == 0 and delta.nbytes == 0
        assert delta.rows.shape == (0, base.data.shape[1])
        rebuilt = base.clone()
        rebuilt.data[delta.frames] = delta.rows
        assert rebuilt == base

    def test_delta_is_much_smaller_than_the_memory(self):
        """The reason deltas exist: a cleared region touches a sliver of
        the device, and only that sliver should be cached."""
        base = _random_frames(8)
        other = base.clone()
        other.data[10:58] = 0  # one CLB column's 48 frames
        delta = FrameDelta.capture(other, range(10, 58))
        assert delta.nbytes <= base.data.nbytes // 10

    def test_applies_against_read_only_base(self):
        base = _random_frames(9)
        other = base.clone()
        other.data[0, 0] ^= 1
        delta = FrameDelta.capture(other, [0])
        base.data.setflags(write=False)
        rebuilt = base.clone()
        rebuilt.data[delta.frames] = delta.rows
        assert rebuilt == other
        with pytest.raises(ValueError):
            delta.rows[0, 0] = 0
