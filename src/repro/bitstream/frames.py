"""Frame memory: the device's configuration SRAM, frame by frame.

A :class:`FrameMemory` is a dense numpy array of shape ``(total_frames,
frame_words)`` (dtype uint32).  It is the meeting point of the whole
package: bitgen fills it from a routed design, the assembler serializes it
into packets, the config-port simulator writes packets back into one, JBits
edits it with dirty-frame tracking, and the functional simulator decodes it
into a running circuit.

Bit order within a frame follows :mod:`repro.utils`: bit ``b`` is word
``b // 32``, position ``31 - b % 32`` (MSB first).  Bits beyond the payload
(:attr:`Geometry.frame_bits`) and the trailing pad word are forced to zero.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .. import utils
from ..devices import Device
from ..devices.geometry import BITS_PER_ROW, IobSite
from ..devices.resources import BitCoord, Field
from ..errors import BitstreamError, DeviceError


@dataclass
class BitWrites:
    """Single-bit writes in write order: write ``i`` sets bit ``bits[i]``
    of frame ``frames[i]`` to ``values[i]`` (0 or 1).

    bitgen builds one for a whole design and :meth:`FrameMemory.apply_bits`
    lands it in one scatter instead of one ``set_bit`` call per bit.
    """

    frames: list[int] = field(default_factory=list)
    bits: list[int] = field(default_factory=list)
    values: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frames)


class FrameDelta:
    """The frames one edit of a configuration changed, as they stand after it.

    ``frames`` holds the edited frames' linear indices, strictly
    increasing; ``rows`` holds those frames' words (one row each).
    Writing ``rows`` into ``frames`` of a memory equal to the one the edit
    started from redoes the edit.  A cleared region is cached and spilled
    to disk in this form (:data:`repro.batch.cache.ClearedState`): the
    twelve clears of an XCV1000 batch change 584 frames, 91 KB of rows,
    where whole-device copies took 9.2 MB.

    The constructor takes ownership of the two arrays and makes them
    read-only, so one delta can be shared by every reader; it raises
    :class:`BitstreamError` unless the indices are sorted, unique and on
    ``device`` and the rows are ``device``-wide.
    """

    __slots__ = ("device", "frames", "rows")

    def __init__(self, device: Device, frames, rows):
        g = device.geometry
        frames = np.asarray(frames, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.uint32)
        if frames.ndim != 1 or rows.shape != (frames.size, g.frame_words):
            raise BitstreamError(
                f"frame delta of {frames.shape} frames and {rows.shape} rows "
                f"does not fit {device.name} ({g.frame_words} words per frame)"
            )
        if frames.size and (frames[0] < 0 or frames[-1] >= g.total_frames
                            or (np.diff(frames) <= 0).any()):
            raise BitstreamError(
                f"frame delta indices must be increasing within "
                f"0..{g.total_frames - 1} on {device.name}"
            )
        frames.setflags(write=False)
        rows.setflags(write=False)
        self.device = device
        self.frames = frames
        self.rows = rows

    @classmethod
    def capture(cls, memory: "FrameMemory", frames: Iterable[int]) -> "FrameDelta":
        """The delta of ``frames`` (any order) as they now stand in ``memory``."""
        index = np.array(sorted(frames), dtype=np.int64)
        return cls(memory.device, index, memory.data[index])

    def __len__(self) -> int:
        return self.frames.size

    @property
    def nbytes(self) -> int:
        """Bytes the delta holds (indices plus rows)."""
        return self.frames.nbytes + self.rows.nbytes

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FrameDelta)
            and other.device == self.device
            and bool(np.array_equal(other.frames, self.frames))
            and bool(np.array_equal(other.rows, self.rows))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FrameDelta({self.device.name}, {len(self)} frames, {self.nbytes} B)"


class FrameMemory:
    """Configuration memory of one device."""

    def __init__(self, device: Device, data: np.ndarray | None = None):
        self.device = device
        g = device.geometry
        shape = (g.total_frames, g.frame_words)
        if data is None:
            data = np.zeros(shape, dtype=np.uint32)
        else:
            data = np.asarray(data, dtype=np.uint32)
            if data.shape != shape:
                raise BitstreamError(
                    f"frame data shape {data.shape} does not match {device.name} {shape}"
                )
        self.data = data
        self._payload_mask = self._build_payload_mask()

    def _build_payload_mask(self) -> np.ndarray:
        """Per-word mask of bits that belong to the frame payload."""
        g = self.device.geometry
        mask = np.zeros(g.frame_words, dtype=np.uint32)
        full, rem = divmod(g.frame_bits, 32)
        mask[:full] = 0xFFFFFFFF
        if rem:
            mask[full] = np.uint32(((1 << rem) - 1) << (32 - rem))
        return mask

    @property
    def payload_mask(self) -> np.ndarray:
        """Per-word mask of bits that belong to the frame payload."""
        return self._payload_mask

    # -- copying / equality ---------------------------------------------------

    def clone(self) -> "FrameMemory":
        return FrameMemory(self.device, self.data.copy())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FrameMemory)
            and other.device == self.device
            and bool(np.array_equal(other.data, self.data))
        )

    def __hash__(self) -> int:  # mutable; identity hash
        return id(self)

    # -- whole-frame access -----------------------------------------------------

    def frame(self, index: int) -> np.ndarray:
        """View of one frame's words (mutations must go through setters)."""
        self._check_frame(index)
        return self.data[index]

    def set_frame(self, index: int, words: np.ndarray | Iterable[int]) -> None:
        self._check_frame(index)
        w = np.asarray(list(words) if not isinstance(words, np.ndarray) else words,
                       dtype=np.uint32)
        if w.shape != (self.device.geometry.frame_words,):
            raise BitstreamError(
                f"frame {index}: expected {self.device.geometry.frame_words} words, "
                f"got {w.shape}"
            )
        self.data[index] = w & self._payload_mask

    def _check_frame(self, index: int) -> None:
        if not 0 <= index < self.data.shape[0]:
            raise DeviceError(
                f"frame index {index} out of range 0..{self.data.shape[0] - 1}"
            )

    def clear_bit_range(self, frame_start: int, frame_count: int,
                        bit_lo: int, bit_hi: int) -> list[int]:
        """Zero payload bits ``[bit_lo, bit_hi)`` of ``frame_count`` frames
        starting at ``frame_start``; returns the frames that changed.

        This is the vectorized hot path of region clearing: one numpy
        mask-and-compare over the whole frame block replaces per-bit
        ``get_bit``/``set_bit`` loops.
        """
        self._check_frame(frame_start)
        self._check_frame(frame_start + frame_count - 1)
        if not 0 <= bit_lo <= bit_hi <= self.device.geometry.frame_bits:
            raise BitstreamError(
                f"bit range [{bit_lo}, {bit_hi}) beyond frame payload "
                f"({self.device.geometry.frame_bits})"
            )
        mask = _bit_range_mask(self.device.geometry.frame_words, bit_lo, bit_hi)
        block = self.data[frame_start:frame_start + frame_count]
        hit = (block & mask).any(axis=1)
        if not hit.any():
            return []
        block[hit] &= ~mask
        return (np.flatnonzero(hit) + frame_start).tolist()

    def frames_equal(self, other: "FrameMemory", index: int) -> bool:
        return bool(np.array_equal(self.data[index], other.data[index]))

    def diff_frames(self, other: "FrameMemory") -> list[int]:
        """Linear indices of frames that differ from ``other``."""
        if other.device != self.device:
            raise BitstreamError("cannot diff frame memories of different parts")
        return np.flatnonzero((self.data != other.data).any(axis=1)).tolist()

    # -- single-bit access ---------------------------------------------------------

    def get_bit(self, frame: int, bit: int) -> int:
        self._check_frame(frame)
        return utils.get_bit(self.data[frame], bit)

    def set_bit(self, frame: int, bit: int, value: int) -> None:
        self._check_frame(frame)
        if bit >= self.device.geometry.frame_bits:
            raise BitstreamError(
                f"bit {bit} beyond frame payload ({self.device.geometry.frame_bits})"
            )
        utils.set_bit(self.data[frame], bit, value)

    def apply_bits(self, writes: BitWrites) -> list[int]:
        """Apply ``writes`` in one scatter; returns the sorted frames whose
        words changed.

        The result equals calling :meth:`set_bit` for each write in order:
        a bit written twice keeps its last value.  Every write is checked
        first, and the first bad one raises what :meth:`set_bit` would
        (:class:`DeviceError` for its frame, :class:`BitstreamError` for its
        bit) with no frame changed.
        """
        if not writes:
            return []
        frames = np.asarray(writes.frames, dtype=np.int64)
        bits = np.asarray(writes.bits, dtype=np.int64)
        frame_bits = self.device.geometry.frame_bits
        bad = (frames < 0) | (frames >= self.data.shape[0]) | (bits < 0) | (bits >= frame_bits)
        if bad.any():
            i = int(np.argmax(bad))
            self._check_frame(int(frames[i]))
            raise BitstreamError(f"bit {int(bits[i])} beyond frame payload ({frame_bits})")
        words = self.data.shape[1]
        # one key per bit of the memory; a reversed first occurrence is the
        # last write of that bit
        keys = frames * (32 * words) + bits
        keys, last = np.unique(keys[::-1], return_index=True)
        values = np.asarray(writes.values, dtype=bool)[::-1][last]
        masks = np.left_shift(np.uint32(1), (31 - (keys & 31)).astype(np.uint32))
        word_keys = keys >> 5
        starts = np.flatnonzero(np.r_[True, word_keys[1:] != word_keys[:-1]])
        touched = np.bitwise_or.reduceat(masks, starts)
        ones = np.bitwise_or.reduceat(np.where(values, masks, np.uint32(0)), starts)
        rows, cols = np.divmod(word_keys[starts], words)
        old = self.data[rows, cols]
        new = (old & ~touched) | ones
        self.data[rows, cols] = new
        # rows ascend; not np.unique, which imports numpy.ma (~1.6 MB) on first use
        return sorted(set(rows[old != new].tolist()))

    # -- CLB resource access --------------------------------------------------------

    def get_field(self, row: int, col: int, field: Field) -> int:
        """Read a named tile field as an integer (coords[0] = MSB)."""
        value = 0
        for coord in field.coords:
            frame, bit = self.device.clb_bit_location(row, col, coord)
            value = (value << 1) | self.get_bit(frame, bit)
        return value

    def set_field(self, row: int, col: int, field: Field, value: int) -> None:
        if value < 0 or value >= (1 << field.width):
            raise BitstreamError(
                f"value {value} does not fit {field.name} ({field.width} bits)"
            )
        for i, coord in enumerate(field.coords):
            frame, bit = self.device.clb_bit_location(row, col, coord)
            self.set_bit(frame, bit, (value >> (field.width - 1 - i)) & 1)

    def get_coord(self, row: int, col: int, coord: BitCoord) -> int:
        frame, bit = self.device.clb_bit_location(row, col, coord)
        return self.get_bit(frame, bit)

    def set_coord(self, row: int, col: int, coord: BitCoord, value: int) -> None:
        frame, bit = self.device.clb_bit_location(row, col, coord)
        self.set_bit(frame, bit, value)

    # -- PIP access --------------------------------------------------------------------

    def get_pip(self, row: int, col: int, pip_index: int) -> int:
        frame, bit = self.device.pip_bit_location(row, col, pip_index)
        return self.get_bit(frame, bit)

    def set_pip(self, row: int, col: int, pip_index: int, value: int) -> None:
        frame, bit = self.device.pip_bit_location(row, col, pip_index)
        self.set_bit(frame, bit, value)

    def active_pips(self, row: int, col: int) -> list[int]:
        """Indices of PIPs currently on at a tile (decode helper)."""
        from ..devices.wires import NUM_PIPS

        return [p for p in range(NUM_PIPS) if self.get_pip(row, col, p)]

    # -- IOB / clock access ---------------------------------------------------------------

    def get_iob_enable(self, site: IobSite, which: int) -> int:
        frame, bit = self.device.iob_bit_location(site, which)
        return self.get_bit(frame, bit)

    def set_iob_enable(self, site: IobSite, which: int, value: int) -> None:
        frame, bit = self.device.iob_bit_location(site, which)
        self.set_bit(frame, bit, value)

    def get_bram_bit(self, site, bit: int) -> int:
        frame, off = self.device.geometry.bram_bit_location(site, bit)
        return self.get_bit(frame, off)

    def set_bram_bit(self, site, bit: int, value: int) -> None:
        frame, off = self.device.geometry.bram_bit_location(site, bit)
        self.set_bit(frame, off, value)

    def get_bram_word(self, site, addr: int, width: int = 16) -> int:
        """Read a data word from a block RAM (little-endian bit order)."""
        value = 0
        for k in range(width):
            value |= self.get_bram_bit(site, addr * width + k) << k
        return value

    def set_bram_word(self, site, addr: int, value: int, width: int = 16) -> None:
        for k in range(width):
            self.set_bram_bit(site, addr * width + k, (value >> k) & 1)

    def get_gclk_enable(self, g: int) -> int:
        frame, bit = self.device.gclk_bit_location(g)
        return self.get_bit(frame, bit)

    def set_gclk_enable(self, g: int, value: int) -> None:
        frame, bit = self.device.gclk_bit_location(g)
        self.set_bit(frame, bit, value)

    # -- bulk decode helpers ---------------------------------------------------------------

    def column_bits(self, clb_col: int) -> np.ndarray:
        """All frames of a CLB column as an (n_frames, frame_bits) bit
        matrix (48 minors on the classic geometry; specs may carry more).

        Vectorized (numpy ``unpackbits``) — this is the hot path of frame
        decoding (readback verify and the hardware functional simulator).
        """
        g = self.device.geometry
        major = g.major_of_clb_col(clb_col)
        base = g.frame_base(major)
        n_frames = g.columns[major].frames
        block = self.data[base:base + n_frames]
        raw = np.ascontiguousarray(block.astype(">u4")).view(np.uint8)
        bits = np.unpackbits(raw.reshape(n_frames, -1), axis=1)
        return bits[:, : g.frame_bits]

    def tile_bits(self, row: int, col: int, column_bits: np.ndarray | None = None) -> np.ndarray:
        """One tile's (n_frames, BITS_PER_ROW) configuration-bit plane."""
        g = self.device.geometry
        if column_bits is None:
            column_bits = self.column_bits(col)
        off = g.row_bit_offset(row)
        return column_bits[:, off:off + BITS_PER_ROW]

    # -- iteration ---------------------------------------------------------------------------

    def iter_frames(self) -> Iterator[tuple[int, np.ndarray]]:
        for i in range(self.data.shape[0]):
            yield i, self.data[i]

    def nonzero_frames(self) -> list[int]:
        """Frames with at least one bit set (cheap emptiness scan)."""
        return np.flatnonzero(self.data.any(axis=1)).tolist()


_MASK_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def _bit_range_mask(frame_words: int, bit_lo: int, bit_hi: int) -> np.ndarray:
    """Per-word mask with frame bits ``[bit_lo, bit_hi)`` set (MSB-first
    bit order, matching :mod:`repro.utils`).  Cached: region clears reuse
    the same few (offset, width) combinations thousands of times."""
    key = (frame_words, bit_lo, bit_hi)
    mask = _MASK_CACHE.get(key)
    if mask is None:
        mask = np.zeros(frame_words, dtype=np.uint32)
        for b in range(bit_lo, bit_hi):
            mask[b // 32] |= np.uint32(1 << (31 - b % 32))
        mask.setflags(write=False)
        _MASK_CACHE[key] = mask
    return mask


def frame_runs(frame_indices: Iterable[int]) -> list[tuple[int, int]]:
    """Collapse sorted linear frame indices into (start, length) runs.

    Used to turn a dirty-frame set into the minimal sequence of FAR/FDRI
    bursts in a partial bitstream.
    """
    runs: list[tuple[int, int]] = []
    start = prev = None
    for idx in sorted(set(frame_indices)):
        if start is None:
            start = prev = idx
        elif idx == prev + 1:
            prev = idx
        else:
            runs.append((start, prev - start + 1))
            start = prev = idx
    if start is not None:
        runs.append((start, prev - start + 1))
    return runs
