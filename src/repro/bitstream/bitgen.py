"""``bitgen`` equivalent: a routed NCD design becomes configuration frames.

Every placed bel, routed PIP, IOB enable and clock buffer is translated to
frame bits through the single resource map in :mod:`repro.devices.resources`
— the same map readback decoding uses, so ``decode(bitgen(design))``
recovers the design (a tested invariant).

LUT truth tables are stored *physically*: the router's ``pin_map`` permutes
the logical INIT onto the pins each input was actually routed to, and
unused physical pins become don't-cares (they read 0 in hardware).

The encoding is one write list (:func:`bit_writes`), applied in a single
scatter: onto a blank memory by :func:`generate_frames`, or onto a live
configuration by :meth:`repro.jbits.JBits.apply_bits` (JPG's replay).
"""

from __future__ import annotations

from functools import lru_cache

from ..devices import BITS_PER_ROW, get_device
from ..devices.resources import PIP_CAPACITY, PIP_MINOR_BASE, REGISTRY, SLICE, Field
from ..errors import BitstreamError, FlowError, ResourceError
from ..flow.ncd import NcdDesign
from ..netlist.library import expand_init
from ..obs import current_metrics
from .bitfile import BitFile
from .frames import BitWrites, FrameMemory


def generate_frames(design: NcdDesign) -> FrameMemory:
    """Encode a placed-and-routed design into a blank frame memory."""
    fm = FrameMemory(get_device(design.part))
    fm.apply_bits(bit_writes(design))
    return fm


def bit_writes(design: NcdDesign) -> BitWrites:
    """The design's frame bits as one write list, in bitgen's write order.

    Applying it to a blank memory gives :func:`generate_frames`; applying
    it to a live configuration (:meth:`repro.jbits.JBits.apply_bits`) drops
    the module onto it.  Every error is raised here, before any frame is
    written: :class:`FlowError` for an unplaced or unrouted design (an
    unplaced IOB counts as unplaced) or a clock buffer without an index,
    :class:`DeviceError` for a tile off the device, :class:`BitstreamError`
    for a value that does not fit its field.
    """
    metrics = current_metrics()
    with metrics.stage("bitgen.generate_frames", design=design.name,
                       slices=len(design.slices), nets=len(design.nets)):
        writes = _bit_writes(design)
    metrics.count("bitgen.designs")
    return writes


def _bit_writes(design: NcdDesign) -> BitWrites:
    device = get_device(design.part)
    g = device.geometry
    if not design.placed():
        raise FlowError("bitgen requires a placed design")
    if not design.routed():
        raise FlowError("bitgen requires a routed design")
    writes = BitWrites()
    frames, bits, values = writes.frames, writes.bits, writes.values
    tiles: dict[tuple[int, int], tuple[int, int]] = {}

    def tile(r: int, c: int) -> tuple[int, int]:
        """(frame of minor 0, bit of rowbit 0) of a CLB tile, checked once."""
        at = tiles.get((r, c))
        if at is None:
            g.check_tile(r, c)
            at = tiles[r, c] = (g.frame_base(g.major_of_clb_col(c)), g.row_bit_offset(r))
        return at

    def put(r: int, c: int, fld: Field, value: int) -> None:
        width = fld.width
        if value < 0 or value >= (1 << width):
            raise BitstreamError(f"value {value} does not fit {fld.name} ({width} bits)")
        frame0, bit0 = tile(r, c)
        for i, (minor, rowbit) in enumerate(_COORDS[fld.name]):
            frames.append(frame0 + minor)
            bits.append(bit0 + rowbit)
            values.append((value >> (width - 1 - i)) & 1)

    for comp in design.slices.values():
        r, c, s = comp.site
        res = SLICE[s]
        for bel in comp.bels.values():
            if bel.lut_cell is not None:
                pins = tuple(bel.pin_map) if bel.pin_map else tuple(range(bel.lut_width))
                put(r, c, res.lut(bel.letter), _physical_init(bel.lut_init, bel.lut_width, pins))
            if bel.ff_cell is not None:
                used = res.FFX_USED if bel.letter == "F" else res.FFY_USED
                init_f = res.FFX_INIT if bel.letter == "F" else res.FFY_INIT
                dmux = res.DXMUX if bel.letter == "F" else res.DYMUX
                put(r, c, used, 1)
                put(r, c, init_f, bel.ff_init)
                put(r, c, dmux, 0 if bel.ff_d_from_lut else 1)
        has_ff = any(b.ff_cell for b in comp.bels.values())
        if has_ff:
            ff_sync = any(b.ff_cell and b.ff_sync for b in comp.bels.values())
            put(r, c, res.SYNC_ATTR, int(ff_sync))
            put(r, c, res.CE_USED, int(comp.ce_net is not None))
            put(r, c, res.SR_USED, int(comp.sr_net is not None))

    for net in design.nets.values():
        for r, c, pip in net.pips:
            if not 0 <= pip < PIP_CAPACITY:
                raise ResourceError(f"pip index {pip} out of range 0..{PIP_CAPACITY - 1}")
            frame0, bit0 = tile(r, c)
            frames.append(frame0 + PIP_MINOR_BASE + pip // BITS_PER_ROW)
            bits.append(bit0 + pip % BITS_PER_ROW)
            values.append(1)

    for iob in design.iobs.values():
        frame, bit = device.iob_bit_location(iob.site, 0 if iob.direction == "in" else 1)
        frames.append(frame)
        bits.append(bit)
        values.append(1)

    for gclk in design.gclks.values():
        if gclk.index is None:
            raise FlowError(f"clock buffer {gclk.name} has no GCLK index")
        frame, bit = device.gclk_bit_location(gclk.index)
        frames.append(frame)
        bits.append(bit)
        values.append(1)

    return writes


#: (minor, rowbit) pairs of every tile logic field, MSB first, by name
_COORDS = {f.name: tuple((c.minor, c.rowbit) for c in f.coords) for f in REGISTRY.values()}


@lru_cache(maxsize=4096)
def _physical_init(init: int, width: int, pins: tuple[int, ...]) -> int:
    """A LUT's INIT on the physical 4-input LUT (:func:`expand_init`,
    memoized: a design repeats a few truth tables many times)."""
    return expand_init(init, width, 4, list(pins))


def bitgen(design: NcdDesign) -> BitFile:
    """Full bitgen: design -> frames -> complete .bit file."""
    from .assembler import full_bitfile

    return full_bitfile(generate_frames(design), design.name + ".ncd")
