"""bitgen tests: encoding a routed design into frames."""

import numpy as np
import pytest

from repro.bitstream.bitgen import bit_writes, bitgen, generate_frames
from repro.bitstream.reader import parse_bitstream
from repro.devices import get_device
from repro.devices.resources import SLICE
from repro.errors import FlowError
from repro.flow.ncd import NcdDesign
from repro.jbits import JBits
from repro.netlist.library import expand_init


class TestGenerateFrames:
    def test_lut_bits_present(self, counter_flow, counter_frames):
        design = counter_flow.design
        some = next(
            (c, b) for c in design.slices.values()
            for b in c.bels.values() if b.lut_cell
        )
        comp, bel = some
        r, c, s = comp.site
        expected = expand_init(bel.lut_init, bel.lut_width, 4, bel.pin_map or [0, 1, 2, 3])
        assert counter_frames.get_field(r, c, SLICE[s].lut(bel.letter)) == expected

    def test_ff_bits_present(self, counter_flow, counter_frames):
        design = counter_flow.design
        for comp in design.slices.values():
            r, c, s = comp.site
            for bel in comp.bels.values():
                used = SLICE[s].FFX_USED if bel.letter == "F" else SLICE[s].FFY_USED
                assert counter_frames.get_field(r, c, used) == int(bel.ff_cell is not None)

    def test_pips_present(self, counter_flow, counter_frames):
        for net in counter_flow.design.nets.values():
            for r, c, p in net.pips:
                assert counter_frames.get_pip(r, c, p) == 1

    def test_iob_enables(self, counter_flow, counter_frames):
        for iob in counter_flow.design.iobs.values():
            which = 0 if iob.direction == "in" else 1
            assert counter_frames.get_iob_enable(iob.site, which) == 1

    def test_gclk_enabled(self, counter_flow, counter_frames):
        for g in counter_flow.design.gclks.values():
            assert counter_frames.get_gclk_enable(g.index) == 1

    def test_deterministic(self, counter_flow):
        f1 = generate_frames(counter_flow.design)
        f2 = generate_frames(counter_flow.design)
        assert np.array_equal(f1.data, f2.data)

    def test_base_overlay(self, counter_flow, counter_frames):
        jb = JBits("XCV50")
        jb.blank()
        jb.set(15, 23, SLICE[1].G, 0xCAFE)  # far corner, untouched
        jb.checkpoint()
        changed = jb.apply_bits(bit_writes(counter_flow.design))
        assert jb.get(15, 23, SLICE[1].G) == 0xCAFE
        assert changed == jb.dirty_frames == counter_frames.nonzero_frames()
        jb.set(15, 23, SLICE[1].G, 0)
        assert jb.frames == counter_frames

    def test_unplaced_rejected(self):
        design = NcdDesign("empty", "XCV50")
        from repro.flow.ncd import SliceComp

        design.slices["x"] = SliceComp("x")
        with pytest.raises(FlowError, match="placed"):
            generate_frames(design)


class TestBitgen:
    def test_full_loop(self, counter_flow, counter_bitfile, counter_frames):
        dev = get_device("XCV50")
        parsed, stats = parse_bitstream(dev, counter_bitfile.config_bytes)
        assert parsed == counter_frames
        assert stats.started

    def test_bitfile_metadata(self, counter_bitfile):
        assert counter_bitfile.design_name == "counter.ncd"
        assert counter_bitfile.part_name.startswith("v50")
