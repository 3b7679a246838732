"""Placement tests: legality, constraints, guides, improvement."""

import pytest

from repro.errors import PlacementError
from repro.flow.floorplan import AreaGroup, Constraints, RegionRect
from repro.flow.pack import pack
from repro.flow.place import place
from repro.flow.techmap import techmap
from repro.netlist import NetlistBuilder
from tests.conftest import build_counter_netlist


def packed(width=4):
    nl, _ = build_counter_netlist(width)
    techmap(nl)
    design, _ = pack(nl, "XCV50")
    return design


class TestLegality:
    def test_everything_placed(self):
        design = packed()
        place(design, seed=1)
        assert design.placed()
        for g in design.gclks.values():
            assert g.index is not None

    def test_no_site_shared(self):
        design = packed(8)
        place(design, seed=1)
        sites = [c.site for c in design.slices.values()]
        assert len(sites) == len(set(sites))
        iob_sites = [c.site for c in design.iobs.values()]
        assert len(iob_sites) == len(set(iob_sites))

    def test_deterministic_for_seed(self):
        d1, d2 = packed(), packed()
        place(d1, seed=7)
        place(d2, seed=7)
        assert {n: c.site for n, c in d1.slices.items()} == {
            n: c.site for n, c in d2.slices.items()
        }

    def test_improves_cost(self):
        design = packed(8)
        stats = place(design, seed=2)
        assert stats.final_cost <= stats.initial_cost
        assert stats.moves_attempted > 0

    @pytest.mark.parametrize("effort", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_effort_is_typed_error(self, effort):
        # inf used to leak an OverflowError from int(inf); nan silently
        # became the 0.1 floor
        with pytest.raises(PlacementError, match="effort must be finite"):
            place(packed(), seed=1, effort=effort)

    def test_small_effort_clamped(self):
        low = place(packed(), seed=1, effort=0.0)
        floor = place(packed(), seed=1, effort=0.1)
        assert low.moves_attempted == floor.moves_attempted


class TestConstraints:
    def region(self):
        return RegionRect(0, 2, 15, 7)

    def test_area_group_confines(self):
        design = packed(8)
        cons = Constraints(groups=[AreaGroup("AG", ["u1/*"], self.region())])
        place(design, cons, seed=1)
        for comp in design.slices.values():
            r, c, _ = comp.site
            assert self.region().contains(r, c)

    def test_loc_pins_comp(self):
        design = packed()
        name = next(iter(design.slices))
        cons = Constraints(locs={name: "CLB_R5C5.S1"})
        place(design, cons, seed=1)
        assert design.slices[name].site == (4, 4, 1)

    def test_prohibit_respected(self):
        design = packed(8)
        bad = {(r, c) for r in range(16) for c in range(0, 24, 2)}
        cons = Constraints(prohibited=bad)
        place(design, cons, seed=1)
        for comp in design.slices.values():
            r, c, _ = comp.site
            assert (r, c) not in bad

    def test_overfull_region_rejected(self):
        design = packed(12)  # ~12 slices worth of logic
        tiny = RegionRect(0, 0, 1, 1)  # 4 slice sites
        cons = Constraints(groups=[AreaGroup("AG", ["u1/*"], tiny)])
        with pytest.raises(PlacementError):
            place(design, cons, seed=1)

    def test_too_many_clocks_rejected(self):
        b = NetlistBuilder("t")
        clks = [b.clock(f"clk{i}") for i in range(5)]
        regs = [b.reg(b.input(f"d{i}"), clks[i]) for i in range(5)]
        for i, q in enumerate(regs):
            b.output(f"q{i}", q)
        nl = b.finish()
        techmap(nl)
        design, _ = pack(nl, "XCV50")
        with pytest.raises(PlacementError, match="clock"):
            place(design, seed=1)


class TestGuide:
    def test_guide_locks_matching_comps(self):
        base = packed()
        place(base, seed=1)
        redo = packed()
        stats = place(redo, guide=base, seed=99)
        for name, comp in redo.slices.items():
            assert comp.site == base.slices[name].site
        for name, iob in redo.iobs.items():
            assert iob.site == base.iobs[name].site
        assert stats.fixed >= len(redo.slices)

    def test_guide_keeps_gclk_index(self):
        base = packed()
        place(base, seed=1)
        base_idx = {g.name: g.index for g in base.gclks.values()}
        redo = packed()
        place(redo, guide=base, seed=5)
        assert {g.name: g.index for g in redo.gclks.values()} == base_idx

    def test_guide_with_disjoint_names_is_free(self):
        base = packed()
        place(base, seed=1)
        b = NetlistBuilder("other")
        clk = b.clock("clk2")
        b.output("q", b.reg(b.input("d"), clk))
        nl = b.finish()
        techmap(nl)
        other, _ = pack(nl, "XCV50")
        place(other, guide=base, seed=1)  # nothing matches; must still place
        assert other.placed()
