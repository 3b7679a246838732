"""Configuration packets: the wire format of (partial) bitstreams.

The transport follows the public Virtex configuration grammar (XAPP138):

* a stream of 32-bit words, starting with dummy words and the sync word
  ``0xAA995566``;
* **type-1 packets**: header word ``[31:29]=001``, ``[28:27]`` opcode
  (00 NOP, 01 read, 10 write), ``[26:13]`` register address, ``[10:0]``
  word count, followed by that many data words;
* **type-2 packets**: header ``[31:29]=010`` with a 27-bit word count, used
  after a zero-count type-1 to address long FDRI bursts.

Registers and commands cover the subset a (partial) configuration needs.
Every bitstream produced by this package — complete or partial, from
bitgen, JPG, or the PARBIT baseline — is a packet stream in this format,
and the config-port simulator accepts nothing else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import PacketError

#: Padding word preceding synchronisation.
DUMMY_WORD = 0xFFFFFFFF
#: Synchronisation word.
SYNC_WORD = 0xAA995566


class Register(enum.IntEnum):
    """Configuration registers."""

    CRC = 0
    FAR = 1     # frame address
    FDRI = 2    # frame data input
    FDRO = 3    # frame data output (readback)
    CMD = 4
    CTL = 5
    MASK = 6
    STAT = 7
    LOUT = 8
    COR = 9     # configuration options
    FLR = 11    # frame length
    IDCODE = 12


class Command(enum.IntEnum):
    """CMD register opcodes."""

    NULL = 0
    WCFG = 1     # write configuration (FDRI writes frames)
    LFRM = 3     # last frame
    RCFG = 4     # read configuration (FDRO reads frames)
    START = 5    # begin startup sequence
    RCAP = 6
    RCRC = 7     # reset CRC
    AGHIGH = 8
    SWITCH = 9
    GRESTORE = 10
    SHUTDOWN = 11
    GCAPTURE = 12
    DESYNC = 13


class Opcode(enum.IntEnum):
    NOP = 0
    READ = 1
    WRITE = 2


#: Registers whose writes are folded into the running CRC.
CRC_COVERED: frozenset[Register] = frozenset(
    {Register.FAR, Register.FDRI, Register.CMD, Register.CTL, Register.COR,
     Register.FLR, Register.MASK, Register.IDCODE}
)

#: Header layout (UG002): opcode field at bit 27, type-2 word counts
#: occupy the low 27 bits.  Bit positions, not frame counts.
_OP_SHIFT = 27                      # not-a-frame-count
_TYPE2_COUNT_BITS = 27              # not-a-frame-count

#: Largest word count a type-1 header holds; longer bursts need a type-2.
TYPE1_COUNT_MAX = (1 << 11) - 1
_TYPE2_COUNT_MAX = (1 << _TYPE2_COUNT_BITS) - 1


def type1_header(op: Opcode, reg: Register, count: int) -> int:
    if not 0 <= count <= TYPE1_COUNT_MAX:
        raise PacketError(f"type-1 word count {count} out of range")
    return (0b001 << 29) | (int(op) << _OP_SHIFT) | (int(reg) << 13) | count


def type2_header(op: Opcode, count: int) -> int:
    if not 0 <= count <= _TYPE2_COUNT_MAX:
        raise PacketError(f"type-2 word count {count} out of range")
    return (0b010 << 29) | (int(op) << _OP_SHIFT) | count


def nop_word() -> int:
    """A type-1 NOP."""
    return type1_header(Opcode.NOP, Register.CRC, 0)


@dataclass(frozen=True)
class Header:
    """Decoded packet header."""

    type: int            # 1 or 2
    op: Opcode
    reg: Register | None  # None for type-2 (uses the previous type-1's reg)
    count: int


def decode_header(word: int) -> Header:
    ptype = (word >> 29) & 0x7
    op_bits = (word >> _OP_SHIFT) & 0x3
    if op_bits == 0b11:
        raise PacketError(f"reserved opcode in header 0x{word:08x}")
    op = Opcode(op_bits)
    if ptype == 0b001:
        reg_bits = (word >> 13) & 0x3FFF
        try:
            reg = Register(reg_bits)
        except ValueError:
            raise PacketError(f"unknown register {reg_bits} in header 0x{word:08x}") from None
        return Header(1, op, reg, word & 0x7FF)
    if ptype == 0b010:
        return Header(2, op, None, word & 0x7FFFFFF)
    raise PacketError(f"unknown packet type {ptype} in header 0x{word:08x}")


# -- frame addressing ---------------------------------------------------------

#: FAR field layout: block [27:25] (always 0 here), major [24:9], minor [8:0].
_FAR_MINOR_BITS = 9
_FAR_MAJOR_BITS = 16


def far_encode(major: int, minor: int) -> int:
    if not 0 <= major < (1 << _FAR_MAJOR_BITS):
        raise PacketError(f"FAR major {major} out of range")
    if not 0 <= minor < (1 << _FAR_MINOR_BITS):
        raise PacketError(f"FAR minor {minor} out of range")
    return (major << _FAR_MINOR_BITS) | minor


def far_decode(word: int) -> tuple[int, int]:
    return (word >> _FAR_MINOR_BITS) & ((1 << _FAR_MAJOR_BITS) - 1), word & (
        (1 << _FAR_MINOR_BITS) - 1
    )


# -- stream construction helper ------------------------------------------------


class PacketWriter:
    """Builds a configuration word stream, tracking the CRC as the device
    will compute it so the correct check word can be inserted.

    The stream is kept as a list of uint32 chunks: runs of header and
    register words, and each FDRI payload as given (not copied, so it must
    not change before :meth:`to_words`), joined by one concatenation."""

    def __init__(self) -> None:
        from .crc import ConfigCrc

        self._crc = ConfigCrc()
        self._chunks: list[np.ndarray] = []
        self._pending: list[int] = []  # words since the last chunk

    # raw words -------------------------------------------------------------

    def raw(self, word: int) -> None:
        self._pending.append(word & 0xFFFFFFFF)

    def dummy(self, n: int = 1) -> None:
        for _ in range(n):
            self.raw(DUMMY_WORD)

    def sync(self) -> None:
        self.raw(SYNC_WORD)

    def nop(self, n: int = 1) -> None:
        for _ in range(n):
            self.raw(nop_word())

    # register writes ----------------------------------------------------------

    def write_reg(self, reg: Register, *values: int) -> None:
        self._pending.append(type1_header(Opcode.WRITE, reg, len(values)))
        for v in values:
            v &= 0xFFFFFFFF
            self._pending.append(v)
            if reg in CRC_COVERED:
                self._crc.update_word(int(reg), v)

    def command(self, cmd: Command) -> None:
        self.write_reg(Register.CMD, int(cmd))
        if cmd is Command.RCRC:
            self._crc.reset()

    def write_fdri(self, payload: np.ndarray) -> None:
        """Write a frame-data burst (type-1 + type-2 for long payloads)."""
        payload = np.asarray(payload, dtype=np.uint32).ravel()
        n = payload.size
        if n <= TYPE1_COUNT_MAX:
            self._pending.append(type1_header(Opcode.WRITE, Register.FDRI, n))
        else:
            self._pending.append(type1_header(Opcode.WRITE, Register.FDRI, 0))
            self._pending.append(type2_header(Opcode.WRITE, n))
        self._end_chunk()
        self._chunks.append(payload)
        self._crc.update_words(int(Register.FDRI), payload)

    def write_crc_check(self) -> None:
        """Write the accumulated CRC so the device's comparison passes."""
        self.write_reg(Register.CRC, self._crc.value)
        self._crc.reset()

    # output ----------------------------------------------------------------------

    def _end_chunk(self) -> None:
        if self._pending:
            self._chunks.append(np.array(self._pending, dtype=np.uint32))
            self._pending = []

    def to_words(self) -> np.ndarray:
        """The stream so far, as a new array (writing may continue)."""
        self._end_chunk()
        if not self._chunks:
            return np.empty(0, dtype=np.uint32)
        return np.concatenate(self._chunks)

    def to_bytes(self) -> bytes:
        from .. import utils

        return utils.words_to_bytes(self.to_words())
