"""Assembler + interpreter tests: the transport loop and its error paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.assembler import full_stream, full_stream_size, partial_stream
from repro.bitstream.frames import FrameMemory
from repro.bitstream.packets import (
    Command,
    PacketWriter,
    Register,
    far_encode,
)
from repro.bitstream.reader import ConfigInterpreter, apply_bitstream, parse_bitstream
from repro.devices import get_device, part_names, random_device, variant_names
from repro.devices.resources import SLICE
from repro.errors import BitstreamError, CrcError, PacketError, SyncError
from repro.utils import bytes_to_words


@pytest.fixture()
def dev():
    return get_device("XCV50")


def configured_memory(dev):
    fm = FrameMemory(dev)
    fm.set_field(3, 5, SLICE[0].F, 0xBEEF)
    fm.set_field(9, 17, SLICE[1].G, 0x1357)
    fm.set_pip(3, 5, 42, 1)
    fm.set_gclk_enable(1, 1)
    return fm


class TestFullStream:
    def test_roundtrip(self, dev):
        fm = configured_memory(dev)
        out, stats = parse_bitstream(dev, full_stream(fm))
        assert out == fm
        assert stats.frames_written == dev.geometry.total_frames
        assert stats.started
        assert stats.crc_checks_passed == 1
        assert stats.desynced  # the stream ends with DESYNC

    def test_size_matches_real_part_ballpark(self, dev):
        # the real XCV50 bitstream is ~69.9 KB
        size = len(full_stream(FrameMemory(dev)))
        assert 60_000 < size < 80_000

    @pytest.mark.parametrize(
        "part",
        part_names() + variant_names() + [f"random:{seed}" for seed in range(6)],
    )
    def test_size_from_geometry_matches_stream(self, part):
        device = (random_device(int(part.split(":")[1])) if part.startswith("random:")
                  else get_device(part))
        assert full_stream_size(device) == len(full_stream(FrameMemory(device)))

    def test_deterministic(self, dev):
        fm = configured_memory(dev)
        assert full_stream(fm) == full_stream(fm)

    def test_idcode_checked(self, dev):
        # a stream generated for one part must be rejected by another
        other = FrameMemory(get_device("XCV100"))
        data_for_other = full_stream(other)
        with pytest.raises(BitstreamError, match="IDCODE"):
            apply_bitstream(FrameMemory(dev), data_for_other)

    def test_idcode_check_can_be_relaxed(self, dev):
        # ... unless strict checking is off (then the FLR check still fires)
        other = FrameMemory(get_device("XCV100"))
        with pytest.raises(BitstreamError, match="FLR"):
            apply_bitstream(FrameMemory(dev), full_stream(other), strict_idcode=False)


class TestPartialStream:
    def test_applies_only_selected_frames(self, dev):
        base = configured_memory(dev)
        target = base.clone()
        target.set_field(3, 5, SLICE[0].F, 0x0F0F)
        dirty = target.diff_frames(base)
        data = partial_stream(target, dirty)
        trial = base.clone()
        stats = apply_bitstream(trial, data)
        assert trial == target
        assert stats.frames_written == len(dirty)
        assert not stats.started  # dynamic partial: no startup

    def test_startup_flag(self, dev):
        fm = configured_memory(dev)
        data = partial_stream(fm, [0, 1], startup=True)
        _, stats = parse_bitstream(dev, data)
        assert stats.started

    def test_duplicate_frame_indices_rejected(self, dev):
        """A repeated index would make later writes silently shadow earlier
        ones; the assembler refuses outright."""
        fm = configured_memory(dev)
        with pytest.raises(BitstreamError, match="duplicate frame indices"):
            partial_stream(fm, [5, 6, 5])
        with pytest.raises(BitstreamError, match="5, 7"):
            partial_stream(fm, [5, 7, 5, 7, 9])
        # order alone is fine: disjoint but unsorted indices still assemble
        assert partial_stream(fm, [9, 5, 7])

    def test_contiguous_runs_become_single_bursts(self, dev):
        fm = configured_memory(dev)
        data = partial_stream(fm, range(100, 130))
        _, stats = parse_bitstream(dev, data)
        assert stats.writes == [(100, 30)]

    def test_disjoint_runs(self, dev):
        fm = configured_memory(dev)
        data = partial_stream(fm, [5, 6, 7, 50, 51])
        _, stats = parse_bitstream(dev, data)
        assert stats.writes == [(5, 3), (50, 2)]

    def test_empty_rejected(self, dev):
        with pytest.raises(BitstreamError):
            partial_stream(configured_memory(dev), [])

    def test_much_smaller_than_full(self, dev):
        fm = configured_memory(dev)
        partial = partial_stream(fm, range(48))  # one CLB column
        assert len(partial) < len(full_stream(fm)) / 10

    @settings(max_examples=15, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=1449), min_size=1, max_size=80))
    def test_property_arbitrary_frame_sets_roundtrip(self, frames):
        dev = get_device("XCV50")
        rng = np.random.default_rng(1)
        target = FrameMemory(dev)
        target.data[:] = rng.integers(0, 2**32, size=target.data.shape, dtype=np.uint32)
        target.data &= target._payload_mask  # keep pad bits zero
        base = FrameMemory(dev)
        data = partial_stream(target, frames)
        apply_bitstream(base, data)
        for f in range(dev.geometry.total_frames):
            if f in frames:
                assert base.frames_equal(target, f)
            else:
                assert not base.data[f].any()


class TestInterpreterErrors:
    def test_garbage_before_sync(self, dev):
        with pytest.raises(SyncError):
            apply_bitstream(FrameMemory(dev), b"\x12\x34\x56\x78")

    def test_corrupt_payload_fails_crc(self, dev):
        data = bytearray(full_stream(configured_memory(dev)))
        data[3000] ^= 0x40  # flip a bit mid-FDRI
        with pytest.raises(CrcError):
            apply_bitstream(FrameMemory(dev), bytes(data))

    def test_truncated_stream(self, dev):
        data = full_stream(configured_memory(dev))[: 4 * 50]
        with pytest.raises(PacketError):
            apply_bitstream(FrameMemory(dev), data)

    def test_fdri_without_wcfg(self, dev):
        w = PacketWriter()
        w.dummy(); w.sync()
        w.command(Command.RCRC)
        w.write_reg(Register.FLR, dev.geometry.flr_value)
        w.write_reg(Register.FAR, far_encode(1, 0))
        w.write_fdri(np.zeros(dev.geometry.frame_words, dtype=np.uint32))
        with pytest.raises(BitstreamError, match="WCFG"):
            apply_bitstream(FrameMemory(dev), w.to_bytes())

    def test_fdri_before_flr(self, dev):
        w = PacketWriter()
        w.dummy(); w.sync()
        w.command(Command.RCRC)
        w.command(Command.WCFG)
        w.write_fdri(np.zeros(12, dtype=np.uint32))
        with pytest.raises(BitstreamError, match="FLR"):
            apply_bitstream(FrameMemory(dev), w.to_bytes())

    def test_wrong_flr(self, dev):
        w = PacketWriter()
        w.dummy(); w.sync()
        w.write_reg(Register.FLR, 99)
        with pytest.raises(BitstreamError, match="FLR"):
            apply_bitstream(FrameMemory(dev), w.to_bytes())

    def test_misaligned_fdri(self, dev):
        w = PacketWriter()
        w.dummy(); w.sync()
        w.command(Command.RCRC)
        w.write_reg(Register.FLR, dev.geometry.flr_value)
        w.command(Command.WCFG)
        w.write_fdri(np.zeros(dev.geometry.frame_words + 1, dtype=np.uint32))
        with pytest.raises(BitstreamError, match="multiple"):
            apply_bitstream(FrameMemory(dev), w.to_bytes())

    def test_fdri_overrun(self, dev):
        w = PacketWriter()
        w.dummy(); w.sync()
        w.command(Command.RCRC)
        w.write_reg(Register.FLR, dev.geometry.flr_value)
        w.write_reg(Register.FAR, far_encode(30, 60))  # near the end
        w.command(Command.WCFG)
        w.write_fdri(np.zeros(100 * dev.geometry.frame_words, dtype=np.uint32))
        with pytest.raises(BitstreamError, match="overrun"):
            apply_bitstream(FrameMemory(dev), w.to_bytes())

    def test_word_alignment_required(self, dev):
        with pytest.raises(ValueError):
            bytes_to_words(b"\x00\x01\x02")


class TestInterpreterState:
    def test_register_query(self, dev):
        fm = FrameMemory(dev)
        interp = ConfigInterpreter(fm)
        interp.feed_bytes(full_stream(configured_memory(dev)))
        assert interp.register(Register.FLR) == dev.geometry.flr_value
        assert interp.register(Register.IDCODE) == dev.part.idcode

    def test_desync_then_resync(self, dev):
        fm = FrameMemory(dev)
        interp = ConfigInterpreter(fm)
        interp.feed_bytes(full_stream(configured_memory(dev)))
        assert not interp.synced
        # a partial arriving later re-syncs on the same interpreter
        target = configured_memory(dev)
        target.set_field(0, 0, SLICE[0].F, 7)
        interp.feed_bytes(partial_stream(target, target.diff_frames(fm)))
        assert fm.get_field(0, 0, SLICE[0].F) == 7

    def test_far_autoincrement_across_columns(self, dev):
        g = dev.geometry
        target = FrameMemory(dev)
        target.set_field(0, 0, SLICE[0].F, 0xFFFF)
        target.set_field(0, 1, SLICE[0].F, 0xFFFF)
        # one contiguous burst spanning two column boundaries (the LUT
        # truth tables occupy minors 0..15 of majors 1 and 2)
        start = g.frame_base(1) - 2
        data = partial_stream(target, range(start, g.frame_base(2) + 16))
        fm = FrameMemory(dev)
        stats = apply_bitstream(fm, data)
        assert stats.writes[0][0] == start
        assert fm.get_field(0, 0, SLICE[0].F) == 0xFFFF
        assert fm.get_field(0, 1, SLICE[0].F) == 0xFFFF
