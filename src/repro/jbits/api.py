"""JBits-style bitstream manipulation API.

Models the ``com.xilinx.JBits`` programming interface the paper builds on:
load a bitstream for a part, ``get``/``set`` named resources at (row, col),
flip PIPs, then write the result back out — either as a complete bitstream
or as a **partial bitstream containing only the frames touched since the
last sync point** (the capability JPG automates).

Like the original, the model is deliberately low level: a resource is a
tile coordinate plus a :class:`~repro.devices.resources.Field`, and one
``set`` dirties whole configuration frames (column granularity), which is
exactly why partial bitstreams come out column-shaped.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from typing import TYPE_CHECKING

from ..bitstream.assembler import full_stream, partial_stream
from ..bitstream.bitfile import BitFile
from ..bitstream.frames import BitWrites, FrameMemory
from ..bitstream.reader import apply_bitstream
from ..devices import BITS_PER_ROW, Device, Field, IobSite, get_device
from ..devices.resources import SLICE
from ..devices.wires import PipDef, pip_by_wires
from ..errors import JBitsError
from ..utils import LruStore

if TYPE_CHECKING:
    from ..flow.floorplan import RegionRect


#: Decoded bases kept per process, 765 KB each on an XCV1000: a batch, a
#: service or a ``jpg generate`` loop works against one or two bases.
_BASE_CACHE_MAX = 8
_base_cache = LruStore(_BASE_CACHE_MAX)


def decoded_base(device: Device, data: bytes | BitFile) -> FrameMemory:
    """The configuration a complete bitstream sets up on ``device``,
    decoded once per content per process.

    Entries are keyed by (part, sha256 of the configuration bytes), the
    content-key idiom of :func:`repro.batch.cache.fingerprint`, and
    shared: the returned memory is read-only (clone it before writing).
    A stream that fails to decode raises its typed error on every call
    and is never stored.
    """
    if isinstance(data, BitFile):
        data = data.config_bytes
    key = (device.name, hashlib.sha256(data).digest())
    fm = _base_cache.get(key)
    if fm is None:
        fm = FrameMemory(device)
        apply_bitstream(fm, data)
        fm.data.setflags(write=False)
        _base_cache.put(key, fm)
    return fm


class JBits:
    """Bitstream-level device access for one part."""

    def __init__(self, part: str | Device):
        self.device: Device = part if isinstance(part, Device) else get_device(part)
        self.frames: FrameMemory | None = None
        self._dirty: set[int] = set()

    # -- loading --------------------------------------------------------------

    def read(self, data: bytes | BitFile | FrameMemory) -> None:
        """Load a complete bitstream (resets dirty tracking).

        The frames are a private copy: of ``data`` itself when it is a
        :class:`FrameMemory`, else of its :func:`decoded_base`."""
        if isinstance(data, FrameMemory):
            if data.device != self.device:
                raise JBitsError(
                    f"frame memory is for {data.device.name}, "
                    f"JBits instance is for {self.device.name}"
                )
        else:
            data = decoded_base(self.device, data)
        self.frames = data.clone()
        self._dirty.clear()

    def read_partial(self, data: bytes | BitFile) -> None:
        """Apply a partial bitstream on top of the loaded configuration."""
        fm = self._require()
        if isinstance(data, BitFile):
            data = data.config_bytes
        stats = apply_bitstream(fm, data)
        for start, count in stats.writes:
            self._dirty.update(range(start, start + count))

    def blank(self) -> None:
        """Start from an erased device (all frames zero)."""
        self.frames = FrameMemory(self.device)
        self._dirty.clear()

    def _require(self) -> FrameMemory:
        if self.frames is None:
            raise JBitsError("no bitstream loaded; call read() or blank() first")
        return self.frames

    # -- resource access ---------------------------------------------------------

    def get(self, row: int, col: int, field: Field) -> int:
        """Read a named CLB resource (e.g. ``SLICE[0].F``)."""
        return self._require().get_field(row, col, field)

    def set(self, row: int, col: int, field: Field, value: int) -> None:
        """Write a named CLB resource, dirtying the frames it lives in."""
        fm = self._require()
        before = fm.get_field(row, col, field)
        if before == value:
            return
        fm.set_field(row, col, field, value)
        for coord in field.coords:
            frame, _ = self.device.clb_bit_location(row, col, coord)
            self._dirty.add(frame)

    def get_pip(self, row: int, col: int, pip: int | PipDef) -> int:
        idx = pip.index if isinstance(pip, PipDef) else pip
        return self._require().get_pip(row, col, idx)

    def set_pip(self, row: int, col: int, pip: int | PipDef, value: int) -> None:
        idx = pip.index if isinstance(pip, PipDef) else pip
        fm = self._require()
        if fm.get_pip(row, col, idx) == value:
            return
        fm.set_pip(row, col, idx, value)
        frame, _ = self.device.pip_bit_location(row, col, idx)
        self._dirty.add(frame)

    def set_pip_by_name(self, row: int, col: int, src: str, dst: str, value: int = 1) -> None:
        """Turn a PIP on/off by wire names, e.g. ``("OUT0", "SE0")``."""
        self.set_pip(row, col, pip_by_wires(src, dst), value)

    def set_iob(self, site: IobSite, which: int, value: int) -> None:
        fm = self._require()
        if fm.get_iob_enable(site, which) == value:
            return
        fm.set_iob_enable(site, which, value)
        frame, _ = self.device.iob_bit_location(site, which)
        self._dirty.add(frame)

    def set_bram_word(self, site, addr: int, value: int, width: int = 16) -> None:
        """Write one data word of a block RAM's content (run-time memory
        update — the classic BRAM use of partial reconfiguration)."""
        fm = self._require()
        if fm.get_bram_word(site, addr, width) == value:
            return
        fm.set_bram_word(site, addr, value, width)
        for k in range(width):
            frame, _ = self.device.geometry.bram_bit_location(site, addr * width + k)
            self._dirty.add(frame)

    def get_bram_word(self, site, addr: int, width: int = 16) -> int:
        return self._require().get_bram_word(site, addr, width)

    def set_bram_content(self, site, words: Iterable[int], width: int = 16) -> None:
        """Fill a block RAM from a word sequence (4096 bits total max)."""
        for addr, value in enumerate(words):
            self.set_bram_word(site, addr, value, width)

    def set_gclk(self, g: int, value: int) -> None:
        fm = self._require()
        if fm.get_gclk_enable(g) == value:
            return
        fm.set_gclk_enable(g, value)
        frame, _ = self.device.gclk_bit_location(g)
        self._dirty.add(frame)

    def clear_tile(self, row: int, col: int) -> None:
        """Zero every configuration bit of one CLB tile (all 48 minors).

        Vectorized through :meth:`FrameMemory.clear_bit_range` — the
        dominant cost of a region clear, so it matters that this is one
        numpy pass instead of 864 per-bit accesses."""
        fm = self._require()
        g = self.device.geometry
        major = g.major_of_clb_col(col)
        base = g.frame_base(major)
        off = g.row_bit_offset(row)
        self._dirty.update(fm.clear_bit_range(
            base, g.columns[major].frames, off, off + BITS_PER_ROW
        ))

    def clear_region(self, region: RegionRect) -> list[int]:
        """Zero every configuration bit of a rectangle of CLB tiles;
        returns the frames that changed, sorted (all of them, dirty before
        or not).

        Equal, in frames and dirty set, to :meth:`clear_tile` on each of
        its tiles, but one :meth:`FrameMemory.clear_bit_range` per column:
        a column's CLB rows are contiguous within its frames.  The whole
        rectangle is checked against the device first, so a region that
        reaches past it raises :class:`DeviceError` with no frame changed.
        """
        fm = self._require()
        g = self.device.geometry
        g.check_tile(region.rmin, region.cmin)
        g.check_tile(region.rmax, region.cmax)
        lo = g.row_bit_offset(region.rmin)
        hi = g.row_bit_offset(region.rmax) + BITS_PER_ROW
        changed: list[int] = []
        for col in range(region.cmin, region.cmax + 1):
            major = g.major_of_clb_col(col)
            changed += fm.clear_bit_range(
                g.frame_base(major), g.columns[major].frames, lo, hi
            )
        self._dirty.update(changed)
        return sorted(changed)

    # -- convenience (mirrors common JBits idioms) ------------------------------------

    def set_lut(self, row: int, col: int, slice_idx: int, letter: str, init: int) -> None:
        """Write a LUT truth table (the classic run-time-parameterisation
        use of JBits)."""
        self.set(row, col, SLICE[slice_idx].lut(letter), init)

    def get_lut(self, row: int, col: int, slice_idx: int, letter: str) -> int:
        return self.get(row, col, SLICE[slice_idx].lut(letter))

    def merge_frames(self, other: FrameMemory) -> list[int]:
        """Overwrite this configuration with ``other`` wherever they differ,
        dirtying exactly the changed frames.  Returns those frame indices."""
        fm = self._require()
        if other.device != self.device:
            raise JBitsError("cannot merge frames from a different part")
        changed = fm.diff_frames(other)
        if changed:
            fm.data[changed] = other.data[changed]
            self._dirty.update(changed)
        return changed

    def apply_bits(self, writes: BitWrites) -> list[int]:
        """Apply a bit write list (:func:`repro.bitstream.bitgen.bit_writes`)
        in place, dirtying exactly the frames whose words changed.  Returns
        those frames, sorted.  Equal to :meth:`merge_frames` of a clone with
        the writes applied, without the clone or the whole-device diff.
        (How JPG lands a re-implemented module onto the base design.)"""
        changed = self._require().apply_bits(writes)
        self._dirty.update(changed)
        return changed

    # -- dirty tracking / output --------------------------------------------------------

    @property
    def dirty_frames(self) -> list[int]:
        """Frames touched since the last read()/checkpoint(), sorted."""
        return sorted(self._dirty)

    def touch_frames(self, frames: Iterable[int]) -> None:
        """Force frames into the dirty set (used for column-aligned
        partials that rewrite a whole region regardless of diffs)."""
        frames = list(frames)
        if not frames:
            return
        total = self.device.geometry.total_frames
        for f in (min(frames), max(frames)):
            if not 0 <= f < total:
                raise JBitsError(f"frame {f} out of range 0..{total - 1}")
        self._dirty.update(frames)

    def checkpoint(self) -> None:
        """Clear dirty tracking (after emitting a partial)."""
        self._dirty.clear()

    def write(self) -> bytes:
        """Serialize the complete configuration."""
        return full_stream(self._require())

    def write_partial(self, *, startup: bool = False, checkpoint: bool = True) -> bytes:
        """Serialize only the dirty frames as a partial bitstream."""
        if not self._dirty:
            raise JBitsError("nothing to write: no frames are dirty")
        data = partial_stream(self._require(), self.dirty_frames, startup=startup)
        if checkpoint:
            self.checkpoint()
        return data
