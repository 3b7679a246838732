"""Configuration CRC tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitstream.crc import ConfigCrc, crc_of


class TestBasics:
    def test_reset_state_is_zero(self):
        assert ConfigCrc().value == 0

    def test_update_changes_value(self):
        crc = ConfigCrc()
        crc.update_word(2, 0xDEADBEEF)
        assert crc.value != 0

    def test_deterministic(self):
        a, b = ConfigCrc(), ConfigCrc()
        for w in (0x0, 0xFFFFFFFF, 0x12345678):
            a.update_word(2, w)
            b.update_word(2, w)
        assert a.value == b.value

    def test_reset(self):
        crc = ConfigCrc()
        crc.update_word(1, 42)
        crc.reset()
        assert crc.value == 0

    def test_sixteen_bits(self):
        crc = ConfigCrc()
        for i in range(100):
            crc.update_word(i % 16, 0xA5A5A5A5 ^ i)
            assert 0 <= crc.value < (1 << 16)

    def test_address_matters(self):
        a, b = ConfigCrc(), ConfigCrc()
        a.update_word(1, 0x1234)
        b.update_word(2, 0x1234)
        assert a.value != b.value

    def test_data_order_matters(self):
        a, b = ConfigCrc(), ConfigCrc()
        a.update_word(2, 1)
        a.update_word(2, 2)
        b.update_word(2, 2)
        b.update_word(2, 1)
        assert a.value != b.value


class TestBurst:
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=40),
           st.integers(min_value=0, max_value=15))
    def test_property_burst_equals_words(self, words, addr):
        one = ConfigCrc()
        for w in words:
            one.update_word(addr, w)
        burst = ConfigCrc()
        burst.update_words(addr, words)
        assert one.value == burst.value

    def test_numpy_burst_equals_words(self):
        """The vectorised update_words path over a uint32 array (the FDRI
        hot path inside the interpreter) must match one-word-at-a-time
        updates exactly."""
        rng = np.random.default_rng(1234)
        words = rng.integers(0, 1 << 32, size=257, dtype=np.uint64).astype(np.uint32)
        one = ConfigCrc()
        for w in words:
            one.update_word(2, int(w))
        burst = ConfigCrc()
        burst.update_words(2, words)
        assert one.value == burst.value

    def test_crc_of_helper(self):
        stream = [(4, 7), (1, 0), (2, 0xFFFF0000)]
        acc = ConfigCrc()
        for a, w in stream:
            acc.update_word(a, w)
        assert crc_of(stream) == acc.value


def _crc_bit_by_bit(stream):
    """Spec-level reference: shift every data bit LSB-first, then the four
    address bits, through the reflected CRC-16 register.  Independent of
    every lookup table in the implementation."""
    crc = 0
    for addr, word in stream:
        for i in range(32):
            bit = (word >> i) & 1
            crc = (crc >> 1) ^ (0xA001 if (crc ^ bit) & 1 else 0)
        for i in range(4):
            bit = (addr >> i) & 1
            crc = (crc >> 1) ^ (0xA001 if (crc ^ bit) & 1 else 0)
    return crc


class TestAgainstBitReference:
    """Pin the table/affine implementations to the bit-level definition."""

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=15),
                  st.integers(min_value=0, max_value=0xFFFFFFFF)),
        max_size=24,
    ))
    def test_property_update_word_matches_bit_reference(self, stream):
        assert crc_of(stream) == _crc_bit_by_bit(stream)

    @pytest.mark.parametrize("prefix", [[], [(4, 7)]], ids=["reset", "nonzero-start"])
    @pytest.mark.parametrize("n", [*range(71), 255, 256, 257, 500, 1023, 4097])
    def test_burst_matches_bit_reference(self, n, prefix):
        """Every fold depth, odd and even level lengths, and lengths either
        side of a power of two, from reset and from a nonzero state."""
        rng = np.random.default_rng(77)
        words = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
        burst = ConfigCrc()
        for addr, word in prefix:
            burst.update_word(addr, word)
        assert (burst.value != 0) == bool(prefix)
        burst.update_words(2, words)
        assert burst.value == _crc_bit_by_bit(prefix + [(2, int(w)) for w in words])

    def test_burst_from_nonzero_state_matches_reference(self):
        """The affine carry must be exact from any starting state, not just
        from reset."""
        crc = ConfigCrc()
        crc.update_word(4, 7)          # leave a nonzero state behind
        crc.update_words(2, [0xDEADBEEF, 0, 0xFFFFFFFF])
        assert crc.value == _crc_bit_by_bit(
            [(4, 7), (2, 0xDEADBEEF), (2, 0), (2, 0xFFFFFFFF)]
        )


class TestErrorDetection:
    @given(
        st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=30),
        st.data(),
    )
    def test_property_single_bit_flip_detected(self, words, data):
        """Any single-bit corruption must change the CRC (guaranteed for
        CRC-16 over short bursts)."""
        idx = data.draw(st.integers(min_value=0, max_value=len(words) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=31))
        corrupted = list(words)
        corrupted[idx] ^= 1 << bit
        a, b = ConfigCrc(), ConfigCrc()
        a.update_words(2, words)
        b.update_words(2, corrupted)
        assert a.value != b.value
