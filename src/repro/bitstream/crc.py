"""Configuration CRC, Virtex style.

The configuration logic maintains a 16-bit CRC over every word written to a
CRC-covered register: the 32 data bits are shifted in LSB-first, followed by
the 4-bit register address.  The polynomial is CRC-16 (x^16 + x^15 + x^2 +
1, 0x8005), implemented here in its reflected form (0xA001).

Two table layers keep long FDRI bursts cheap:

* single writes (:meth:`ConfigCrc.update_word`) use the classic byte-wise
  lookup table for the data bits plus a 16-entry table that shifts in the
  whole 4-bit register address at once;
* bursts (:meth:`ConfigCrc.update_words`) exploit that one word+address
  step is *affine over GF(2)*: ``step(s, w) = A(s) ^ g(w)`` with ``A`` the
  linear state carry and ``g`` the word's data+address contribution.  After
  ``n`` words the state is therefore

      ``A^n(s) ^ A^(n-1)(g_0) ^ ... ^ A(g_(n-2)) ^ g_(n-1)``

  Every ``g_i`` comes from one vectorized numpy pass: two 65536-entry
  tables, one per 16-bit half of the word, each the XOR of two byte-position
  tables.  The sum is then a log-depth fold: with the start state ``s``
  prepended as one more term, adjacent pairs combine as
  ``A^(2^k)(v[0::2]) ^ v[1::2]`` at level ``k`` (a zero is left-padded when
  a level's length is odd, which ``A`` maps to zero), so ``n`` words take
  ``ceil(log2(n + 1))`` numpy passes and no per-word Python work.  Each
  ``A^(2^k)`` is a pair of 256-entry tables over the state's high and low
  bytes, squared from the one below.

Writing the accumulated value to the CRC register makes the device compare
and reset; the RCRC command resets the accumulator.
"""

from __future__ import annotations

import sys

import numpy as np

_POLY_REFLECTED = 0xA001


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY_REFLECTED if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _build_table()


def _build_nibble_table() -> list[int]:
    """4-bit analogue of the byte table (shifts in one register address)."""
    table = []
    for nibble in range(16):
        crc = nibble
        for _ in range(4):
            crc = (crc >> 1) ^ _POLY_REFLECTED if crc & 1 else crc >> 1
        table.append(crc)
    return table


_ADDR_TABLE = _build_nibble_table()


def _step(crc: int, word: int, addr: int) -> int:
    """One full register write folded into the CRC (reference form)."""
    w = word & 0xFFFFFFFF
    for _ in range(4):
        crc = (crc >> 8) ^ _TABLE[(crc ^ w) & 0xFF]
        w >>= 8
    return (crc >> 4) ^ _ADDR_TABLE[(crc ^ addr) & 0xF]


def _build_burst_tables():
    """Precompute the affine decomposition of one word+address step.

    ``_step(crc, w, a)`` is linear over GF(2) in the bits of ``crc``,
    ``w``, and ``a`` jointly, so it splits as ``A(crc) ^ G(w) ^ C(a)``:

    * ``A`` (the state carry) as two 256-entry tables over the state's
      high/low bytes;
    * ``G`` (the data contribution) as four 256-entry tables, one per
      byte position (paired below into one table per 16-bit half);
    * ``C`` (the address contribution) as a 16-entry constant table.
    """
    a_lo = [_step(x, 0, 0) for x in range(256)]
    a_hi = [_step(x << 8, 0, 0) for x in range(256)]
    g = [np.array([_step(0, b << (8 * k), 0) for b in range(256)], dtype=np.uint16)
         for k in range(4)]
    addr_c = np.array([_step(0, 0, a) for a in range(16)], dtype=np.uint16)
    return a_lo, a_hi, g, addr_c


_A_LO, _A_HI, (_G0, _G1, _G2, _G3), _ADDR_CONTRIB = _build_burst_tables()

#: Type-2 packets count at most 2^27 words; 2^32 terms leaves headroom.
_FOLD_LEVELS = 32


def _build_carry_powers() -> list[tuple[np.ndarray, np.ndarray]]:
    """``(hi, lo)`` byte tables of ``A^(2^k)`` for every fold level ``k``.

    ``A`` is linear, so ``A^m(s) == hi[s >> 8] ^ lo[s & 0xFF]`` for the
    tables of ``A^m`` evaluated on each byte alone; squaring applies the
    level's own tables twice to those byte values."""
    hi = np.array(_A_HI, dtype=np.uint16)
    lo = np.array(_A_LO, dtype=np.uint16)
    byte = np.arange(256, dtype=np.uint16)
    powers = [(hi, lo)]
    for _ in range(_FOLD_LEVELS - 1):
        hi, lo = powers[-1]
        once_hi, once_lo = hi[byte], lo[byte]      # A^m on (b << 8) and on b
        powers.append((
            hi[once_hi >> 8] ^ lo[once_hi & 0xFF],
            hi[once_lo >> 8] ^ lo[once_lo & 0xFF],
        ))
    return powers


_A_POW2 = _build_carry_powers()
_ZERO = np.zeros(1, dtype=np.uint16)

#: Data contribution of a word's low and high 16-bit halves.
_G_LO16 = np.tile(_G0, 256) ^ np.repeat(_G1, 256)
_G_HI16 = np.tile(_G2, 256) ^ np.repeat(_G3, 256)
#: Position of the less significant half (or byte) in a native-order view.
_LOW = 0 if sys.byteorder == "little" else 1


class ConfigCrc:
    """Accumulating configuration CRC (16-bit)."""

    def __init__(self) -> None:
        self.value = 0

    def reset(self) -> None:
        self.value = 0

    def update_word(self, reg_addr: int, word: int) -> None:
        """Shift in one 32-bit register write: data LSB-first, then the
        4-bit register address."""
        crc = self.value
        w = word & 0xFFFFFFFF
        for _ in range(4):
            crc = (crc >> 8) ^ _TABLE[(crc ^ w) & 0xFF]
            w >>= 8
        self.value = (crc >> 4) ^ _ADDR_TABLE[(crc ^ reg_addr) & 0xF]

    def update_words(self, reg_addr: int, words: np.ndarray | list[int]) -> None:
        """Shift in a burst of writes to one register (e.g. an FDRI block)."""
        payload = np.asarray(words)
        if payload.size == 0:
            return
        if payload.dtype != np.uint32:
            payload = payload.astype(np.uint64, copy=False).astype(np.uint32)
        payload = np.ascontiguousarray(payload).reshape(-1)
        # terms of the sum: the start state, then every word's
        # data+address contribution, looked up by 16-bit half
        halves = payload.view(np.uint16)
        v = np.empty(payload.size + 1, dtype=np.uint16)
        v[0] = self.value
        np.take(_G_LO16, halves[_LOW::2], out=v[1:])
        v[1:] ^= np.take(_G_HI16, halves[1 - _LOW::2])
        v[1:] ^= _ADDR_CONTRIB[reg_addr & 0xF]
        # log-depth fold: level k carries each left term 2^k words forward
        for hi, lo in _A_POW2:
            if v.size == 1:
                break
            if v.size & 1:
                v = np.concatenate((_ZERO, v))
            octets = v.view(np.uint8)        # pair m's left term is bytes 4m, 4m+1
            v = np.take(hi, octets[1 - _LOW::4]) ^ np.take(lo, octets[_LOW::4]) ^ v[1::2]
        self.value = int(v[0])


def crc_of(stream: list[tuple[int, int]]) -> int:
    """CRC of a sequence of (register address, word) writes, from reset."""
    acc = ConfigCrc()
    for addr, word in stream:
        acc.update_word(addr, word)
    return acc.value
