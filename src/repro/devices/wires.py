"""Routing fabric: per-tile wires and the uniform PIP table.

The interconnect follows the Virtex style in miniature:

* each slice output drives two of eight tile **output multiplexer** lines
  (``OUT0..7``, the GRM entry points),
* ``OUT`` lines drive **single-length lines** (8 per direction, reaching the
  adjacent tile), **hex lines** (4 per direction, reaching 6 tiles away),
  and bidirectionally-tapped **long lines** (4 horizontal per row, 4
  vertical per column, spanning the chip),
* arriving singles can continue straight, turn, or enter the tile's
  **input muxes** feeding slice pins,
* four **global clock** lines reach every tile's ``CLK`` pins, driven by
  dedicated clock buffers/pads,
* edge tiles additionally have ``IO_IN``/``IO_OUT`` wires binding IOB pads
  to the fabric.

Every configurable connection is a **PIP** (programmable interconnect
point).  The PIP pattern is identical for every tile — edge effects are
handled by clipping at graph-build time — so the whole fabric is described
once, here.  PIP ``p`` of a tile is configured by the tile bit
:func:`repro.devices.resources.pip_coord` ``(p)``.

Direction convention (0-based grid, row 0 at the top):
``E``: col+1, ``W``: col-1, ``N``: row-1, ``S``: row+1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from ..errors import DeviceError
from .geometry import NUM_GCLK
from .resources import PIP_CAPACITY

#: Singles per direction.
NUM_SINGLES = 8
#: Hex lines per direction.
NUM_HEX = 4
#: Hex line span in tiles.
HEX_SPAN = 6
#: Long lines per row (LH) and per column (LV).
NUM_LONG = 4
#: IO injection/extraction wires per edge tile.  Left/right IOB sites use
#: wires 0..1, top/bottom sites wires 2..3, so a corner tile (which hosts
#: sites from two edges) never sees two pads on one wire.
NUM_IO = 4


class WireKind(enum.Enum):
    """Wire categories; used for delays, router base costs and rendering."""

    PIN_IN = "pin_in"       # slice input pins (F1..G4, BX, BY, CE, SR)
    PIN_CLK = "pin_clk"     # slice clock pins
    PIN_OUT = "pin_out"     # slice output pins (X, Y, XQ, YQ)
    OMUX = "omux"           # tile output mux lines OUT0..7
    SINGLE = "single"       # single-length lines
    HEX = "hex"             # hex lines
    LONG_H = "long_h"       # horizontal long lines
    LONG_V = "long_v"       # vertical long lines
    GCLK = "gclk"           # global clock lines
    IO_IN = "io_in"         # pad -> fabric
    IO_OUT = "io_out"       # fabric -> pad


#: Nominal interconnect delays in nanoseconds (used by timing analysis and
#: as router base costs).  First-order values in the spirit of the Virtex
#: speed files: longer wires are faster per tile but costlier to enter.
WIRE_DELAY_NS: dict[WireKind, float] = {
    WireKind.PIN_IN: 0.15,
    WireKind.PIN_CLK: 0.10,
    WireKind.PIN_OUT: 0.00,
    WireKind.OMUX: 0.20,
    WireKind.SINGLE: 0.35,
    WireKind.HEX: 0.60,
    WireKind.LONG_H: 1.20,
    WireKind.LONG_V: 1.20,
    WireKind.GCLK: 0.50,
    WireKind.IO_IN: 0.60,
    WireKind.IO_OUT: 0.60,
}

# ---------------------------------------------------------------------------
# Wire name space (uniform for every tile)
# ---------------------------------------------------------------------------

#: Slice input pins in router "P order" — the order input-mux PIP patterns
#: index them by.
INPUT_PINS: tuple[str, ...] = tuple(
    f"S{s}_{p}"
    for s in (0, 1)
    for p in ("F1", "F2", "F3", "F4", "G1", "G2", "G3", "G4", "BX", "BY", "CE", "SR")
)
CLK_PINS: tuple[str, ...] = ("S0_CLK", "S1_CLK")
OUTPUT_PINS: tuple[str, ...] = tuple(
    f"S{s}_{p}" for s in (0, 1) for p in ("X", "Y", "XQ", "YQ")
)
OMUX_WIRES: tuple[str, ...] = tuple(f"OUT{j}" for j in range(8))

#: Direction order used throughout: East, West, North, South.
DIRECTIONS: tuple[str, ...] = ("E", "W", "N", "S")
#: Grid offset of one step in each direction.
DIR_OFFSET: dict[str, tuple[int, int]] = {"E": (0, 1), "W": (0, -1), "N": (-1, 0), "S": (1, 0)}

SINGLE_WIRES: tuple[str, ...] = tuple(
    f"S{d}{i}" for d in DIRECTIONS for i in range(NUM_SINGLES)
)
HEX_WIRES: tuple[str, ...] = tuple(f"H{d}{k}" for d in DIRECTIONS for k in range(NUM_HEX))
IO_WIRES: tuple[str, ...] = tuple(f"IO_IN{i}" for i in range(NUM_IO)) + tuple(
    f"IO_OUT{i}" for i in range(NUM_IO)
)
LONG_WIRES: tuple[str, ...] = tuple(f"LH{k}" for k in range(NUM_LONG)) + tuple(
    f"LV{k}" for k in range(NUM_LONG)
)
GCLK_WIRES: tuple[str, ...] = tuple(f"GCLK{g}" for g in range(NUM_GCLK))

#: Every wire a tile knows about, in index order.
WIRES: tuple[str, ...] = (
    INPUT_PINS + CLK_PINS + OUTPUT_PINS + OMUX_WIRES + SINGLE_WIRES + HEX_WIRES
    + IO_WIRES + LONG_WIRES + GCLK_WIRES
)
WIRE_INDEX: dict[str, int] = {w: i for i, w in enumerate(WIRES)}
NUM_WIRES = len(WIRES)


def wire_index(name: str) -> int:
    """Index of a wire name within a tile's wire set."""
    try:
        return WIRE_INDEX[name]
    except KeyError:
        raise DeviceError(f"unknown wire {name!r}") from None


def _classify(name: str) -> WireKind:
    if name in INPUT_PINS:
        return WireKind.PIN_IN
    if name in CLK_PINS:
        return WireKind.PIN_CLK
    if name in OUTPUT_PINS:
        return WireKind.PIN_OUT
    if name.startswith("OUT"):
        return WireKind.OMUX
    if name.startswith("H"):
        return WireKind.HEX
    if name.startswith("IO_IN"):
        return WireKind.IO_IN
    if name.startswith("IO_OUT"):
        return WireKind.IO_OUT
    if name.startswith("LH"):
        return WireKind.LONG_H
    if name.startswith("LV"):
        return WireKind.LONG_V
    if name.startswith("GCLK"):
        return WireKind.GCLK
    return WireKind.SINGLE


#: Wire kind by wire index.
WIRE_KIND: tuple[WireKind, ...] = tuple(_classify(w) for w in WIRES)


def wire_kind(idx_or_name: int | str) -> WireKind:
    if isinstance(idx_or_name, str):
        idx_or_name = wire_index(idx_or_name)
    return WIRE_KIND[idx_or_name]


# ---------------------------------------------------------------------------
# PIP table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipDef:
    """One programmable connection of the uniform tile pattern.

    ``src`` is expressed relative to the owning tile as ``(drow, dcol,
    wire index)``; the destination is always a local wire.  The PIP is
    configured by tile bit ``resources.pip_coord(index)``.
    """

    index: int
    src: tuple[int, int, int]
    dst: int

    @property
    def src_name(self) -> str:
        return WIRES[self.src[2]]

    @property
    def dst_name(self) -> str:
        return WIRES[self.dst]


def _incoming_singles() -> list[tuple[str, int, tuple[int, int, int]]]:
    """Singles arriving at a tile: (direction-of-travel, index, src ref).

    A single travelling east arrives from the *west* neighbour's ``SE``
    wire, and so on.
    """
    arrivals = []
    for d in DIRECTIONS:
        dr, dc = DIR_OFFSET[d]
        for i in range(NUM_SINGLES):
            arrivals.append((d, i, (-dr, -dc, wire_index(f"S{d}{i}"))))
    return arrivals


def _incoming_hexes() -> list[tuple[str, int, tuple[int, int, int]]]:
    arrivals = []
    for d in DIRECTIONS:
        dr, dc = DIR_OFFSET[d]
        for k in range(NUM_HEX):
            arrivals.append((d, k, (-dr * HEX_SPAN, -dc * HEX_SPAN, wire_index(f"H{d}{k}"))))
    return arrivals


#: Orthogonal turn targets for an incoming single, by direction of travel.
_TURNS: dict[str, tuple[str, str]] = {"E": ("N", "S"), "W": ("N", "S"), "N": ("E", "W"), "S": ("E", "W")}
#: Index rotation applied on each kind of turn, keyed by (travel, turn).
_TURN_ROT: dict[str, tuple[int, int]] = {"E": (1, 5), "W": (3, 7), "N": (1, 5), "S": (3, 7)}


def _build_pip_table() -> tuple[PipDef, ...]:
    pips: list[PipDef] = []

    def add(src: tuple[int, int, int] | str, dst: str) -> None:
        s = (0, 0, wire_index(src)) if isinstance(src, str) else src
        pips.append(PipDef(len(pips), s, wire_index(dst)))

    # 1. slice outputs -> OUT lines (two choices each)
    for j, pin in enumerate(OUTPUT_PINS):
        add(pin, f"OUT{j}")
        add(pin, f"OUT{(j + 4) % 8}")

    # 2. OUT -> singles, one per direction (index-matched)
    for j in range(8):
        for d in DIRECTIONS:
            add(f"OUT{j}", f"S{d}{j}")

    # 3. OUT -> hexes
    for j in range(8):
        for d in DIRECTIONS:
            add(f"OUT{j}", f"H{d}{j % NUM_HEX}")

    # 4. OUT -> long lines (tapped anywhere along the row/column)
    for j in range(8):
        add(f"OUT{j}", f"LH{j % NUM_LONG}")
        add(f"OUT{j}", f"LV{j % NUM_LONG}")

    # 5. incoming single -> straight continuation + two orthogonal turns
    for d, i, src in _incoming_singles():
        add(src, f"S{d}{i}")
        r1, r2 = _TURN_ROT[d]
        t1, t2 = _TURNS[d]
        add(src, f"S{t1}{(i + r1) % NUM_SINGLES}")
        add(src, f"S{t2}{(i + r2) % NUM_SINGLES}")

    # 6. incoming single -> input pins (3 pins each; the pattern guarantees
    #    every pin is reachable from every direction by one single index)
    npins = len(INPUT_PINS)
    for dnum, (d, i, src) in enumerate(_incoming_singles()):
        base = 8 * (dnum // NUM_SINGLES) + 3 * i
        for t in range(3):
            add(src, INPUT_PINS[(base + t) % npins])

    # 7. incoming hex -> two singles + hex continuation
    for d, k, src in _incoming_hexes():
        add(src, f"S{d}{2 * k}")
        add(src, f"S{d}{2 * k + 1}")
        add(src, f"H{d}{k}")

    # 8. long-line taps -> singles
    for k in range(NUM_LONG):
        add(f"LH{k}", f"SE{k}")
        add(f"LH{k}", f"SE{k + 4}")
        add(f"LV{k}", f"SN{k}")
        add(f"LV{k}", f"SN{k + 4}")

    # 9. global clocks -> clock pins
    for g in range(NUM_GCLK):
        add(f"GCLK{g}", "S0_CLK")
        add(f"GCLK{g}", "S1_CLK")

    # 10. IO injection: pad wire -> input pins and singles (edge tiles)
    for i in range(NUM_IO):
        for t in range(4):
            add(f"IO_IN{i}", INPUT_PINS[(6 * i + 3 * t) % npins])
        for d in DIRECTIONS:
            add(f"IO_IN{i}", f"S{d}{2 * i}")

    # 11. IO extraction: OUT lines -> pad wire
    for j in range(8):
        add(f"OUT{j}", f"IO_OUT{j % NUM_IO}")

    # 12. IO extraction from routing: arriving singles -> pad wires, so a
    #     remote source can drive an output pad (not only same-tile slices)
    for _, i, src in _incoming_singles():
        add(src, f"IO_OUT{i % NUM_IO}")

    # 13. OMUX feedback: OUT lines -> same-tile input pins (direct feedback
    #     paths, as the Virtex OMUX provides); essential for tight cycles
    #     like counters where a slice feeds itself
    for j in range(8):
        for t in range(3):
            add(f"OUT{j}", INPUT_PINS[(3 * j + t) % npins])

    if len(pips) > PIP_CAPACITY:
        raise DeviceError(
            f"PIP pattern needs {len(pips)} bits, capacity is {PIP_CAPACITY}"
        )
    return tuple(pips)


#: The uniform PIP table (same pattern for every tile).
PIP_TABLE: tuple[PipDef, ...] = _build_pip_table()
NUM_PIPS = len(PIP_TABLE)


@lru_cache(maxsize=1)
def pips_by_dst() -> dict[int, tuple[PipDef, ...]]:
    """Local destination wire index -> PIPs that can drive it."""
    out: dict[int, list[PipDef]] = {}
    for p in PIP_TABLE:
        out.setdefault(p.dst, []).append(p)
    return {k: tuple(v) for k, v in out.items()}


@lru_cache(maxsize=1)
def pips_by_src() -> dict[int, tuple[tuple[int, int, PipDef], ...]]:
    """Wire index -> PIPs (anywhere) that read it.

    Each entry is ``(owner_drow, owner_dcol, pip)``: a PIP owned by the tile
    at that offset *from the wire's tile* has this wire as its source.
    """
    out: dict[int, list[tuple[int, int, PipDef]]] = {}
    for p in PIP_TABLE:
        dr, dc, w = p.src
        out.setdefault(w, []).append((-dr, -dc, p))
    return {k: tuple(v) for k, v in out.items()}


def _pips_by_names() -> dict[tuple[str, str], PipDef]:
    out: dict[tuple[str, str], PipDef] = {}
    for p in PIP_TABLE:
        out.setdefault((p.src_name, p.dst_name), p)  # the first match wins
    return out


_PIP_BY_NAMES = _pips_by_names()


def pip_by_wires(src_name: str, dst_name: str) -> PipDef:
    """Find the local-pattern PIP connecting two wire names (for XDL I/O).

    ``src_name`` is interpreted from the owning tile's point of view (i.e.
    the source reference of the PIP, which may be a neighbour's wire — the
    name alone identifies it because each (src, dst) name pair occurs at
    most once in the pattern).
    """
    pip = _PIP_BY_NAMES.get((src_name, dst_name))
    if pip is None:
        wire_index(src_name)  # an unknown wire name raises, naming it
        wire_index(dst_name)
        raise DeviceError(f"no PIP {src_name} -> {dst_name} in the tile pattern")
    return pip
