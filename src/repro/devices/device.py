"""The :class:`Device` facade: one object describing a whole part.

A ``Device`` combines the part catalog entry, the configuration-frame
geometry, the CLB resource space, and the routing fabric, and provides the
coordinate translations everything else uses:

* tile resource bit -> (linear frame index, bit offset within frame),
* routing-node encoding for the router (tile, wire) <-> integer id,
* canonicalization of chip-spanning wires (long lines, global clocks),
* the routing successor table every router expands nodes from.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from ..errors import DeviceError
from . import resources, wires
from .family import PartInfo, part_info
from .geometry import Geometry, IobSite, Side
from .resources import BitCoord, pip_coord
from .wires import NUM_WIRES, WIRE_KIND, WireKind

#: Wire kinds that span the chip and so have one canonical owner tile.
_SPANNING = (WireKind.LONG_H, WireKind.LONG_V, WireKind.GCLK)


class Device:
    """A Virtex-class part: geometry + resources + routing fabric."""

    def __init__(self, part: str | PartInfo):
        self.part: PartInfo = part if isinstance(part, PartInfo) else part_info(part)
        self.geometry = Geometry(self.part)
        self.rows = self.geometry.rows
        self.cols = self.geometry.cols

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.part.name

    @property
    def spec(self) -> PartInfo:
        """The declarative geometry spec this device was built from."""
        return self.part

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Device) and other.part.name == self.part.name

    def __hash__(self) -> int:
        return hash(self.part.name)

    # -- frame-bit locations ---------------------------------------------------

    def clb_bit_location(self, row: int, col: int, coord: BitCoord) -> tuple[int, int]:
        """(linear frame index, bit offset) of a CLB tile configuration bit."""
        g = self.geometry
        g.check_tile(row, col)
        frame = g.frame_base(g.major_of_clb_col(col)) + coord.minor
        return frame, g.row_bit_offset(row) + coord.rowbit

    def pip_bit_location(self, row: int, col: int, pip_index: int) -> tuple[int, int]:
        """(frame, bit) of routing PIP ``pip_index`` of a tile."""
        return self.clb_bit_location(row, col, pip_coord(pip_index))

    def iob_bit_location(self, site: IobSite, which: int) -> tuple[int, int]:
        """(frame, bit) of an IOB enable bit (``which`` is 0=in, 1=out)."""
        g = self.geometry
        off = resources.iob_bit_offset(site.index, which)
        if site.side in (Side.LEFT, Side.RIGHT):
            if not 0 <= site.position < self.rows:
                raise DeviceError(f"IOB {site.name}: row out of range")
            frame = g.frame_base(g.major_of_iob(site.side)) + resources.IOB_MINOR
            return frame, g.row_bit_offset(site.position) + off
        if not 0 <= site.position < self.cols:
            raise DeviceError(f"IOB {site.name}: column out of range")
        frame = g.frame_base(g.major_of_clb_col(site.position)) + resources.IOB_MINOR
        base = g.top_bit_offset if site.side is Side.TOP else g.bottom_bit_offset
        return frame, base + off

    def gclk_bit_location(self, g_index: int) -> tuple[int, int]:
        """(frame, bit) of the global clock buffer enable for ``GCLK{g}``."""
        from .geometry import NUM_GCLK

        if not 0 <= g_index < NUM_GCLK:
            raise DeviceError(f"GCLK index {g_index} out of range 0..{NUM_GCLK - 1}")
        frame = self.geometry.frame_base(0) + g_index  # clock column, minor g
        return frame, resources.GCLK_ENABLE_BIT

    # -- routing-node space -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Size of the (dense, partly unused) routing node id space."""
        return self.rows * self.cols * NUM_WIRES

    def canonical_wire(self, row: int, col: int, wire: int) -> tuple[int, int, int]:
        """Map chip-spanning wires to their canonical owner tile.

        Long horizontal lines are owned by column 0 of their row, vertical
        long lines by row 0 of their column, and global clocks by (0, 0);
        everything else is identity.
        """
        kind = WIRE_KIND[wire]
        if kind is WireKind.LONG_H:
            return row, 0, wire
        if kind is WireKind.LONG_V:
            return 0, col, wire
        if kind is WireKind.GCLK:
            return 0, 0, wire
        return row, col, wire

    def node_id(self, row: int, col: int, wire: int) -> int:
        """Dense integer id of a routing node (canonicalized first)."""
        r, c, w = self.canonical_wire(row, col, wire)
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise DeviceError(f"node ({row},{col},{wires.WIRES[wire]}) outside device")
        return (r * self.cols + c) * NUM_WIRES + w

    def node_of(self, node: int) -> tuple[int, int, int]:
        """Inverse of :meth:`node_id` -> (row, col, wire index)."""
        tile, w = divmod(node, NUM_WIRES)
        r, c = divmod(tile, self.cols)
        return r, c, w

    @cached_property
    def fanout(self) -> tuple[tuple[tuple[int, int, int, int, int | None], ...], ...]:
        """Per source wire, the routing PIPs that read it.

        Entry ``w`` lists ``(drow, dcol, dst, pip, delta)`` in
        :func:`wires.pips_by_src` order: the PIP ``pip`` owned by the tile
        at offset ``(drow, dcol)`` from the wire's tile drives local wire
        ``dst`` there.  ``delta`` is the node-id step ``next - node`` when
        ``dst`` is not chip-spanning (so it does not depend on the tile),
        else None.  Long lines keep only their local taps, which
        :meth:`successors` repeats along the whole row or column; global
        clocks have no entries (dedicated clock routing owns them).
        """
        by_src = wires.pips_by_src()
        table = []
        for w in range(NUM_WIRES):
            kind = WIRE_KIND[w]
            entries = []
            if kind is not WireKind.GCLK:
                for drow, dcol, pip in by_src.get(w, ()):
                    if kind in _SPANNING and (drow or dcol):
                        continue
                    delta = None
                    if WIRE_KIND[pip.dst] not in _SPANNING:
                        delta = (drow * self.cols + dcol) * NUM_WIRES + pip.dst - w
                    entries.append((drow, dcol, pip.dst, pip.index, delta))
            table.append(tuple(entries))
        return tuple(table)

    @cached_property
    def interior(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per wire, the box ``(row_lo, row_hi, col_lo, col_hi)`` of tiles
        where every :attr:`fanout` entry stays on the device and steps by
        its ``delta``: there a node's successors are ``node + delta`` in
        table order.  Empty (``row_lo > row_hi``) for chip-spanning wires
        and wires that drive one."""
        empty = (0, -1, 0, -1)
        boxes = []
        for w, entries in enumerate(self.fanout):
            if WIRE_KIND[w] in _SPANNING or any(e[4] is None for e in entries):
                boxes.append(empty)
                continue
            drows = [e[0] for e in entries] or [0]
            dcols = [e[1] for e in entries] or [0]
            box = (
                max(0, -min(drows)), self.rows - 1 - max(0, max(drows)),
                max(0, -min(dcols)), self.cols - 1 - max(0, max(dcols)),
            )
            boxes.append(box if box[0] <= box[1] and box[2] <= box[3] else empty)
        return tuple(boxes)

    def successors(self, node: int) -> list[tuple[int, tuple[int, int, int]]]:
        """``(next node, (row, col, pip))`` for every routing PIP that
        reads ``node``, in :attr:`fanout` order.

        A long line is tapped in every tile of its row or column; other
        wires' PIPs are clipped at the device edge.  This is the generic
        expansion every router shares; the array router takes the
        ``node + delta`` shortcut inside :attr:`interior`.
        """
        tile, w = divmod(node, NUM_WIRES)
        r, c = divmod(tile, self.cols)
        entries = self.fanout[w]
        node_id = self.node_id
        kind = WIRE_KIND[w]
        if kind is WireKind.LONG_H or kind is WireKind.LONG_V:
            taps = (
                [(r, col) for col in range(self.cols)] if kind is WireKind.LONG_H
                else [(row, c) for row in range(self.rows)]
            )
            return [
                (node_id(tr, tc, dst), (tr, tc, pip))
                for tr, tc in taps
                for _, _, dst, pip, _ in entries
            ]
        rows, cols = self.rows, self.cols
        out = []
        for drow, dcol, dst, pip, delta in entries:
            orow, ocol = r + drow, c + dcol
            if 0 <= orow < rows and 0 <= ocol < cols:
                nxt = node_id(orow, ocol, dst) if delta is None else node + delta
                out.append((nxt, (orow, ocol, pip)))
        return out

    def node_str(self, node: int) -> str:
        """Human-readable node, e.g. ``R3C23.SE2`` (1-based, XDL style)."""
        r, c, w = self.node_of(node)
        return f"R{r + 1}C{c + 1}.{wires.WIRES[w]}"

    # -- PIP validity -------------------------------------------------------------

    def pip_valid(self, row: int, col: int, pip: wires.PipDef) -> bool:
        """True if the PIP's source wire exists on this device at this tile."""
        dr, dc, _ = pip.src
        sr, sc = row + dr, col + dc
        if not (0 <= sr < self.rows and 0 <= sc < self.cols):
            # chip-spanning sources are valid anywhere along their span
            kind = WIRE_KIND[pip.src[2]]
            return kind in _SPANNING
        return True

    def tile_pips(self, row: int, col: int) -> list[wires.PipDef]:
        """PIPs of the uniform pattern that are valid at a tile."""
        self.geometry.check_tile(row, col)
        return [p for p in wires.PIP_TABLE if self.pip_valid(row, col, p)]


@lru_cache(maxsize=None)
def _get_device_canonical(canonical_name: str) -> Device:
    return Device(part_info(canonical_name))


def get_device(part_name: str) -> Device:
    """Shared, cached Device instances (they are immutable)."""
    from .family import normalize_part_name

    return _get_device_canonical(normalize_part_name(part_name))
