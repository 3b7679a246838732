"""Device geometry: tile grid, sites, and configuration-column layout.

A Virtex-class device is configured column-at-a-time.  The configuration
address space is organised as *columns* of *frames*:

* one clock column (8 frames),
* one column of 48 frames per CLB column,
* two IOB columns of 54 frames (left and right edges),
* per BRAM column: an interconnect column (27 frames) and a content
  column (64 frames).

Each frame spans the full height of the device.  A CLB row contributes 18
bits to every frame of its column; an extra 18-bit region above the first
row and below the last row carries the top/bottom IOB configuration (this
is how the real device folds top/bottom IOBs into CLB columns).

Frame length in 32-bit words is ``ceil(18 * (rows + 2) / 32) + 1`` — the
trailing word is padding, as in the real format (the FLR register is
programmed with ``words - 1``).

Deviation from real silicon (documented in DESIGN.md): real Virtex numbers
major columns centre-out starting at the clock column; we use a simpler
left-to-right order (clock first, then CLB columns 0..C-1, then IOB, then
BRAM).  Nothing downstream depends on the physical interleave, only on the
order being a bijection, which :meth:`Geometry.columns` defines once.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property

from ..errors import DeviceError
from .family import PartInfo, part_info
from .spec import (  # noqa: F401  (re-exported: historical home of these)
    BITS_PER_ROW,
    BRAM_BITS,
    BRAM_CONTENT_FRAMES,
    BRAM_INT_FRAMES,
    CLB_FRAMES,
    CLOCK_FRAMES,
    IOB_FRAMES,
    GeometrySpec,
)

#: Number of IOB sites per edge position (per CLB row on the left/right
#: edges; per CLB column on the top/bottom edges).
IOBS_PER_EDGE_TILE = 2

#: Number of global clock lines (and clock buffers).
NUM_GCLK = 4


class ColumnKind(enum.Enum):
    """Kinds of configuration columns, with their classic frame counts."""

    CLOCK = "clock"
    CLB = "clb"
    IOB = "iob"
    BRAM_INT = "bram_int"
    BRAM_CONTENT = "bram_content"

    @property
    def frames(self) -> int:
        """Classic Virtex frame count (specs may override per device)."""
        return {
            ColumnKind.CLOCK: CLOCK_FRAMES,
            ColumnKind.CLB: CLB_FRAMES,
            ColumnKind.IOB: IOB_FRAMES,
            ColumnKind.BRAM_INT: BRAM_INT_FRAMES,
            ColumnKind.BRAM_CONTENT: BRAM_CONTENT_FRAMES,
        }[self]

    def spec_frames(self, spec: GeometrySpec) -> int:
        """Frame count of this column kind on one device."""
        return {
            ColumnKind.CLOCK: spec.clock_frames,
            ColumnKind.CLB: spec.clb_frames,
            ColumnKind.IOB: spec.iob_frames,
            ColumnKind.BRAM_INT: spec.bram_int_frames,
            ColumnKind.BRAM_CONTENT: spec.bram_content_frames,
        }[self]


class Side(enum.Enum):
    """Device edge, used to name IOB sites."""

    LEFT = "L"
    RIGHT = "R"
    TOP = "T"
    BOTTOM = "B"


@dataclass(frozen=True)
class ConfigColumn:
    """One column of configuration frames."""

    major: int                 # major address (position in FAR order)
    kind: ColumnKind
    clb_col: int | None = None  # for CLB columns: 0-based fabric column
    side: Side | None = None    # for IOB/BRAM columns: which edge
    frames: int = 0             # minor-frame count (0 = classic kind default)

    def __post_init__(self) -> None:
        if self.frames <= 0:
            object.__setattr__(self, "frames", self.kind.frames)


@dataclass(frozen=True)
class IobSite:
    """One IO block site on the device edge."""

    side: Side
    position: int   # CLB row (left/right) or CLB column (top/bottom)
    index: int      # 0..IOBS_PER_EDGE_TILE-1

    @property
    def name(self) -> str:
        axis = "R" if self.side in (Side.LEFT, Side.RIGHT) else "C"
        return f"IOB_{self.side.value}_{axis}{self.position + 1}_{self.index}"


#: Content bits each block contributes per content frame on the classic
#: 64-frame interleave (specs with other frame counts scale accordingly).
BRAM_BITS_PER_FRAME = BRAM_BITS // BRAM_CONTENT_FRAMES


@dataclass(frozen=True)
class BramSite:
    """One block RAM site (column side + block index, top to bottom)."""

    side: Side
    block: int

    @property
    def name(self) -> str:
        return f"BRAM_{self.side.value}{self.block}"


_BRAM_RE = re.compile(r"^BRAM_([LR])(\d+)$")


def parse_bram_site(name: str) -> BramSite:
    m = _BRAM_RE.match(name)
    if not m:
        raise DeviceError(f"not a BRAM site name: {name!r}")
    return BramSite(Side(m.group(1)), int(m.group(2)))


_SITE_RE = re.compile(r"^CLB_R(\d+)C(\d+)$")
_SLICE_RE = re.compile(r"^CLB_R(\d+)C(\d+)\.S([01])$")
_RC_RE = re.compile(r"^R(\d+)C(\d+)$")
_IOB_RE = re.compile(r"^IOB_([LRTB])_[RC](\d+)_(\d+)$")


def clb_site_name(row: int, col: int) -> str:
    """Site name for a 0-based (row, col), e.g. ``CLB_R3C23`` (1-based)."""
    return f"CLB_R{row + 1}C{col + 1}"


def slice_site_name(row: int, col: int, slice_index: int) -> str:
    """Full slice location, e.g. ``CLB_R3C23.S0`` (the paper's format)."""
    return f"{clb_site_name(row, col)}.S{slice_index}"


def parse_clb_site(name: str) -> tuple[int, int]:
    """Parse ``CLB_R3C23`` (or bare ``R3C23``) into 0-based (row, col)."""
    m = _SITE_RE.match(name) or _RC_RE.match(name)
    if not m:
        raise DeviceError(f"not a CLB site name: {name!r}")
    return int(m.group(1)) - 1, int(m.group(2)) - 1


def parse_slice_site(name: str) -> tuple[int, int, int]:
    """Parse ``CLB_R3C23.S0`` into 0-based (row, col, slice)."""
    m = _SLICE_RE.match(name)
    if not m:
        raise DeviceError(f"not a slice site name: {name!r}")
    return int(m.group(1)) - 1, int(m.group(2)) - 1, int(m.group(3))


def parse_iob_site(name: str) -> IobSite:
    """Parse an IOB site name back into an :class:`IobSite`."""
    m = _IOB_RE.match(name)
    if not m:
        raise DeviceError(f"not an IOB site name: {name!r}")
    side = Side(m.group(1))
    return IobSite(side, int(m.group(2)) - 1, int(m.group(3)))


class Geometry:
    """Frame-address geometry of one part.

    Provides the bijections the whole package relies on:

    * ``(major, minor)`` config-frame address <-> linear frame index,
    * CLB fabric column <-> major address,
    * CLB row <-> bit offset within a frame.
    """

    def __init__(self, part: PartInfo | str):
        self.part = part if isinstance(part, PartInfo) else part_info(part)
        self.rows = self.part.clb_rows
        self.cols = self.part.clb_cols

    @property
    def spec(self) -> GeometrySpec:
        """The declarative spec this geometry realizes (= :attr:`part`)."""
        return self.part

    # ----- column layout ---------------------------------------------------

    @cached_property
    def _bram_sides(self) -> tuple[Side, ...]:
        return tuple(Side(s) for s in self.part.bram_sides)

    @cached_property
    def columns(self) -> tuple[ConfigColumn, ...]:
        """All configuration columns in major-address order.

        Layout comes entirely from the spec: clock first, then the CLB
        columns left to right, the two IOB edge columns, then one BRAM
        interconnect and one BRAM content column per spec'd edge, in the
        spec's ``bram_sides`` order.  Frame counts are the spec's.
        """
        spec = self.part

        def col(kind: ColumnKind, **kw) -> ConfigColumn:
            return ConfigColumn(len(cols), kind, frames=kind.spec_frames(spec), **kw)

        cols: list[ConfigColumn] = []
        cols.append(col(ColumnKind.CLOCK))
        for c in range(self.cols):
            cols.append(col(ColumnKind.CLB, clb_col=c))
        for side in (Side.LEFT, Side.RIGHT):
            cols.append(col(ColumnKind.IOB, side=side))
        for side in self._bram_sides:
            cols.append(col(ColumnKind.BRAM_INT, side=side))
        for side in self._bram_sides:
            cols.append(col(ColumnKind.BRAM_CONTENT, side=side))
        return tuple(cols)

    def column(self, major: int) -> ConfigColumn:
        try:
            return self.columns[major]
        except IndexError:
            raise DeviceError(
                f"major address {major} out of range (device has "
                f"{len(self.columns)} config columns)"
            ) from None

    def major_of_clb_col(self, clb_col: int) -> int:
        """Major address of a 0-based CLB fabric column."""
        if not 0 <= clb_col < self.cols:
            raise DeviceError(f"CLB column {clb_col} out of range 0..{self.cols - 1}")
        return 1 + clb_col

    def major_of_iob(self, side: Side) -> int:
        """Major address of the left or right IOB column."""
        if side not in (Side.LEFT, Side.RIGHT):
            raise DeviceError(f"IOB config columns exist only on L/R edges, not {side}")
        return 1 + self.cols + (0 if side is Side.LEFT else 1)

    # ----- frame sizes and linear indexing ---------------------------------

    @cached_property
    def frame_bits(self) -> int:
        """Payload bits per frame (18 bits per CLB row plus top/bottom)."""
        return BITS_PER_ROW * (self.rows + 2)

    @cached_property
    def frame_words(self) -> int:
        """Frame length in 32-bit words, including one trailing pad word."""
        return (self.frame_bits + 31) // 32 + 1

    @cached_property
    def flr_value(self) -> int:
        """Value programmed into the FLR (frame length) register."""
        return self.frame_words - 1

    @cached_property
    def _frame_bases(self) -> tuple[int, ...]:
        bases, acc = [], 0
        for col in self.columns:
            bases.append(acc)
            acc += col.frames
        bases.append(acc)
        return tuple(bases)

    @property
    def total_frames(self) -> int:
        return self._frame_bases[-1]

    def frame_base(self, major: int) -> int:
        """Linear index of frame (major, minor=0)."""
        self.column(major)  # validate
        return self._frame_bases[major]

    def frame_index(self, major: int, minor: int) -> int:
        """Linear index of frame (major, minor)."""
        col = self.column(major)
        if not 0 <= minor < col.frames:
            raise DeviceError(
                f"minor {minor} out of range for {col.kind.value} column "
                f"major {major} ({col.frames} frames)"
            )
        return self._frame_bases[major] + minor

    def frame_address(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`frame_index` -> (major, minor)."""
        if not 0 <= index < self.total_frames:
            raise DeviceError(f"frame index {index} out of range 0..{self.total_frames - 1}")
        # columns is small (~dozens); linear scan is fine and obvious.
        for major, col in enumerate(self.columns):
            base = self._frame_bases[major]
            if index < base + col.frames:
                return major, index - base
        raise AssertionError("unreachable")

    # ----- device-relative address algebra ----------------------------------

    def clb_col_of_major(self, major: int) -> int | None:
        """Fabric column of a CLB config column (None for other kinds)."""
        return self.column(major).clb_col

    def symbolic_address(self, index: int) -> tuple[str, int | str | None, int]:
        """Device-relative address of a linear frame: ``(kind, position,
        minor)``.

        ``position`` is the 0-based fabric column for CLB columns, the
        edge letter (``"L"``/``"R"``) for IOB and BRAM columns, and None
        for the clock column.  Unlike the absolute FAR major, this key is
        stable across devices of one spec family and is what the semantic
        analyses (:mod:`repro.analyze.semantics`) compare.
        """
        major, minor = self.frame_address(index)
        col = self.column(major)
        if col.kind is ColumnKind.CLB:
            position: int | str | None = col.clb_col
        elif col.side is not None:
            position = col.side.value
        else:
            position = None
        return col.kind.value, position, minor

    def shift_clb_major(self, major: int, delta: int) -> int:
        """Major address of the CLB column ``delta`` fabric columns over.

        Only CLB columns participate in the relocation algebra: every CLB
        column of one device has the same frame count (the spec's
        ``clb_frames``), so shifting the major leaves the minor untouched.
        """
        col = self.column(major)
        if col.kind is not ColumnKind.CLB:
            raise DeviceError(
                f"major {major} is a {col.kind.value} column; only CLB "
                f"columns can be shifted"
            )
        assert col.clb_col is not None
        return self.major_of_clb_col(col.clb_col + delta)

    # ----- within-frame bit offsets ----------------------------------------

    def row_bit_offset(self, row: int) -> int:
        """Bit offset of a CLB row's 18-bit region within a frame."""
        if not 0 <= row < self.rows:
            raise DeviceError(f"CLB row {row} out of range 0..{self.rows - 1}")
        return BITS_PER_ROW * (row + 1)

    @property
    def top_bit_offset(self) -> int:
        """Bit offset of the top IOB region (18 bits above row 0)."""
        return 0

    @property
    def bottom_bit_offset(self) -> int:
        """Bit offset of the bottom IOB region."""
        return BITS_PER_ROW * (self.rows + 1)

    # ----- sites ------------------------------------------------------------

    def check_tile(self, row: int, col: int) -> None:
        """Validate a 0-based CLB tile coordinate."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise DeviceError(
                f"tile (row={row}, col={col}) outside {self.part.name} array "
                f"{self.rows}x{self.cols}"
            )

    def clb_sites(self):
        """Iterate all (row, col) CLB tiles."""
        for r in range(self.rows):
            for c in range(self.cols):
                yield r, c

    @cached_property
    def iob_sites(self) -> tuple[IobSite, ...]:
        """All IOB sites, edge by edge."""
        sites: list[IobSite] = []
        for side in (Side.LEFT, Side.RIGHT):
            for r in range(self.rows):
                for i in range(IOBS_PER_EDGE_TILE):
                    sites.append(IobSite(side, r, i))
        for side in (Side.TOP, Side.BOTTOM):
            for c in range(self.cols):
                for i in range(IOBS_PER_EDGE_TILE):
                    sites.append(IobSite(side, c, i))
        return tuple(sites)

    @cached_property
    def iob_site_index(self) -> dict[IobSite, int]:
        """Position of each site in :attr:`iob_sites`."""
        return {site: k for k, site in enumerate(self.iob_sites)}

    @cached_property
    def iob_site_tiles(self) -> tuple[tuple[int, int], ...]:
        """:meth:`iob_tile` of each site in :attr:`iob_sites`, in order."""
        return tuple(self.iob_tile(site) for site in self.iob_sites)

    def iob_tile(self, site: IobSite) -> tuple[int, int]:
        """Fabric tile an IOB site injects into / taps from."""
        if site.side is Side.LEFT:
            return site.position, 0
        if site.side is Side.RIGHT:
            return site.position, self.cols - 1
        if site.side is Side.TOP:
            return 0, site.position
        return self.rows - 1, site.position

    def io_wire_index(self, site: IobSite) -> int:
        """Index of the ``IO_IN``/``IO_OUT`` tile wires this site binds to.

        Left/right sites use wires 0..1, top/bottom sites 2..3, so corner
        tiles (which host sites from two edges) never share a wire.
        """
        base = 0 if site.side in (Side.LEFT, Side.RIGHT) else IOBS_PER_EDGE_TILE
        return base + site.index

    def tile_iobs(self, row: int, col: int) -> tuple[IobSite, ...]:
        """IOB sites attached to a fabric tile (edge tiles only)."""
        self.check_tile(row, col)
        out: list[IobSite] = []
        if col == 0:
            out += [IobSite(Side.LEFT, row, i) for i in range(IOBS_PER_EDGE_TILE)]
        if col == self.cols - 1:
            out += [IobSite(Side.RIGHT, row, i) for i in range(IOBS_PER_EDGE_TILE)]
        if row == 0:
            out += [IobSite(Side.TOP, col, i) for i in range(IOBS_PER_EDGE_TILE)]
        if row == self.rows - 1:
            out += [IobSite(Side.BOTTOM, col, i) for i in range(IOBS_PER_EDGE_TILE)]
        return tuple(out)

    # ----- block RAM ----------------------------------------------------------

    @property
    def bram_blocks_per_column(self) -> int:
        """Block RAMs per BRAM column (one per 4 CLB rows)."""
        return self.rows // 4

    @cached_property
    def bram_sites(self) -> tuple[BramSite, ...]:
        return tuple(
            BramSite(side, b)
            for side in self._bram_sides
            for b in range(self.bram_blocks_per_column)
        )

    @property
    def bram_bits_per_frame(self) -> int:
        """Content bits each block contributes per content-column frame."""
        return BRAM_BITS // self.part.bram_content_frames

    def major_of_bram_content(self, side: Side) -> int:
        """Major address of a side's BRAM *content* column."""
        for col in self.columns:
            if col.kind is ColumnKind.BRAM_CONTENT and col.side is side:
                return col.major
        raise DeviceError(f"no BRAM content column on side {side}")

    def bram_bit_location(self, site: BramSite, bit: int) -> tuple[int, int]:
        """(frame, bit offset) of one content bit of a block RAM.

        Each of the content column's N frames holds ``4096 / N`` bits per
        block: frame ``bit // (4096/N)``, at offset ``block * (4096/N) +
        bit % (4096/N)`` — the interleave that makes one block's update
        touch every content frame, as on the real part (classic N = 64).
        """
        if not 0 <= bit < BRAM_BITS:
            raise DeviceError(f"BRAM bit {bit} out of range 0..{BRAM_BITS - 1}")
        if site.block >= self.bram_blocks_per_column:
            raise DeviceError(f"{site.name}: block out of range on {self.part.name}")
        per_frame = self.bram_bits_per_frame
        minor, lane = divmod(bit, per_frame)
        offset = site.block * per_frame + lane
        if offset >= self.frame_bits:
            raise DeviceError(
                f"{site.name}: content does not fit the frame "
                f"({offset} >= {self.frame_bits})"
            )
        return self.frame_base(self.major_of_bram_content(site.side)) + minor, offset

    # ----- size accounting ---------------------------------------------------

    def config_payload_words(self) -> int:
        """Words of raw frame data in a full configuration (no packets)."""
        return self.total_frames * self.frame_words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Geometry({self.part.name}: {self.rows}x{self.cols} CLBs, "
            f"{self.total_frames} frames x {self.frame_words} words)"
        )
