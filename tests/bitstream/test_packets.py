"""Packet encoding/decoding and FAR tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitstream.crc import crc_of
from repro.bitstream.packets import (
    DUMMY_WORD,
    SYNC_WORD,
    Command,
    Opcode,
    PacketWriter,
    Register,
    decode_header,
    far_decode,
    far_encode,
    nop_word,
    type1_header,
    type2_header,
)
from repro.bitstream.reader import parse_bitstream
from repro.devices import get_device
from repro.errors import PacketError


class TestHeaders:
    def test_type1_roundtrip(self):
        word = type1_header(Opcode.WRITE, Register.FDRI, 5)
        hdr = decode_header(word)
        assert (hdr.type, hdr.op, hdr.reg, hdr.count) == (1, Opcode.WRITE, Register.FDRI, 5)

    def test_type2_roundtrip(self):
        word = type2_header(Opcode.WRITE, 123456)
        hdr = decode_header(word)
        assert (hdr.type, hdr.op, hdr.reg, hdr.count) == (2, Opcode.WRITE, None, 123456)

    def test_nop(self):
        hdr = decode_header(nop_word())
        assert hdr.op is Opcode.NOP

    def test_count_limits(self):
        type1_header(Opcode.WRITE, Register.FDRI, (1 << 11) - 1)
        with pytest.raises(PacketError):
            type1_header(Opcode.WRITE, Register.FDRI, 1 << 11)
        type2_header(Opcode.WRITE, (1 << 27) - 1)
        with pytest.raises(PacketError):
            type2_header(Opcode.WRITE, 1 << 27)

    def test_bad_packet_type(self):
        with pytest.raises(PacketError):
            decode_header(0xE0000000)

    def test_bad_register(self):
        word = (0b001 << 29) | (0b10 << 27) | (999 << 13)
        with pytest.raises(PacketError):
            decode_header(word)

    def test_reserved_opcode(self):
        word = (0b001 << 29) | (0b11 << 27)
        with pytest.raises(PacketError):
            decode_header(word)

    @given(
        st.sampled_from(list(Opcode)),
        st.sampled_from(list(Register)),
        st.integers(min_value=0, max_value=2047),
    )
    def test_property_type1_roundtrip(self, op, reg, count):
        hdr = decode_header(type1_header(op, reg, count))
        assert (hdr.op, hdr.reg, hdr.count) == (op, reg, count)


class TestFar:
    def test_roundtrip(self):
        assert far_decode(far_encode(12, 34)) == (12, 34)

    def test_minor_field_width(self):
        assert far_encode(1, 0) == 1 << 9

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=511))
    def test_property_roundtrip(self, major, minor):
        assert far_decode(far_encode(major, minor)) == (major, minor)

    def test_out_of_range(self):
        with pytest.raises(PacketError):
            far_encode(0, 512)
        with pytest.raises(PacketError):
            far_encode(1 << 16, 0)


class TestPacketWriter:
    def test_preamble_words(self):
        w = PacketWriter()
        w.dummy()
        w.sync()
        words = w.to_words()
        assert list(words) == [DUMMY_WORD, SYNC_WORD]

    def test_register_write_encoding(self):
        w = PacketWriter()
        w.write_reg(Register.FLR, 11)
        words = w.to_words()
        hdr = decode_header(int(words[0]))
        assert hdr.reg is Register.FLR and hdr.count == 1
        assert words[1] == 11

    def test_short_fdri_uses_type1(self):
        w = PacketWriter()
        w.command(Command.WCFG)
        w.write_fdri(np.arange(10, dtype=np.uint32))
        words = w.to_words()
        hdr = decode_header(int(words[2]))
        assert hdr.type == 1 and hdr.reg is Register.FDRI and hdr.count == 10

    def test_long_fdri_uses_type2(self):
        w = PacketWriter()
        w.write_fdri(np.zeros(5000, dtype=np.uint32))
        words = w.to_words()
        h1 = decode_header(int(words[0]))
        h2 = decode_header(int(words[1]))
        assert h1.count == 0 and h2.type == 2 and h2.count == 5000
        assert words.size == 2 + 5000

    def test_crc_tracking_resets_on_rcrc(self):
        w = PacketWriter()
        w.write_reg(Register.FLR, 11)
        w.command(Command.RCRC)
        # after RCRC the accumulated CRC only covers the RCRC command write
        w2 = PacketWriter()
        w2.command(Command.RCRC)
        assert w._crc.value == 0 == w2._crc.value

    def test_nop_padding(self):
        w = PacketWriter()
        w.nop(3)
        assert all(decode_header(int(x)).op is Opcode.NOP for x in w.to_words())

    def test_to_bytes_big_endian(self):
        w = PacketWriter()
        w.sync()
        assert w.to_bytes() == bytes.fromhex("aa995566")

    def test_interleaved_stream_matches_hand_built(self):
        """Register writes between a short (type-1) and a long (type-2)
        FDRI burst, with the stream read back mid-way, twice: the chunks
        join into exactly the hand-built words and the CRC check passes."""
        dev = get_device("XCV50")
        g = dev.geometry
        rng = np.random.default_rng(5)
        short = rng.integers(0, 1 << 32, size=2 * g.frame_words, dtype=np.uint64)
        long_ = rng.integers(0, 1 << 32, size=200 * g.frame_words, dtype=np.uint64)
        short, long_ = short.astype(np.uint32), long_.astype(np.uint32)
        far10 = far_encode(*g.frame_address(10))

        w = PacketWriter()
        w.dummy()
        w.sync()
        w.command(Command.RCRC)
        w.write_reg(Register.IDCODE, dev.part.idcode)
        w.write_reg(Register.FLR, g.flr_value)
        w.write_reg(Register.FAR, far_encode(0, 0))
        w.command(Command.WCFG)
        w.write_fdri(short)
        first = w.to_words()
        assert np.array_equal(w.to_words(), first)
        w.write_reg(Register.FAR, far10)
        w.command(Command.WCFG)
        w.write_fdri(long_)
        w.write_crc_check()
        w.command(Command.LFRM)
        w.command(Command.DESYNC)
        w.dummy(2)

        def t1(reg, n=1):
            return type1_header(Opcode.WRITE, reg, n)

        covered = [
            (Register.IDCODE, dev.part.idcode), (Register.FLR, g.flr_value),
            (Register.FAR, 0), (Register.CMD, Command.WCFG),
            *((Register.FDRI, int(x)) for x in short),
            (Register.FAR, far10), (Register.CMD, Command.WCFG),
            *((Register.FDRI, int(x)) for x in long_),
        ]
        expected = [
            DUMMY_WORD, SYNC_WORD, t1(Register.CMD), Command.RCRC,
            t1(Register.IDCODE), dev.part.idcode, t1(Register.FLR), g.flr_value,
            t1(Register.FAR), 0, t1(Register.CMD), Command.WCFG,
            t1(Register.FDRI, short.size), *short.tolist(),
            t1(Register.FAR), far10, t1(Register.CMD), Command.WCFG,
            t1(Register.FDRI, 0), type2_header(Opcode.WRITE, long_.size), *long_.tolist(),
            t1(Register.CRC), crc_of([(int(r), int(v)) for r, v in covered]),
            t1(Register.CMD), Command.LFRM, t1(Register.CMD), Command.DESYNC,
            DUMMY_WORD, DUMMY_WORD,
        ]
        assert first.tolist() == expected[:first.size]
        assert w.to_words().tolist() == expected
        _, stats = parse_bitstream(dev, w.to_bytes())
        assert stats.crc_checks_passed == 1
