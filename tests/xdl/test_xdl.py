"""XDL writer/parser tests."""

import numpy as np
import pytest

from repro.bitstream.bitgen import generate_frames
from repro.errors import XdlParseError
from repro.xdl import parse_xdl, physical_init, save_xdl, write_xdl
from repro.xdl.parser import _parse_cfg


class TestWriter:
    def test_statement_shapes_match_paper(self, counter_flow):
        text = write_xdl(counter_flow.design)
        assert text.startswith('design "counter"')
        assert '"SLICE", placed R' in text
        assert "#LUT:0x" in text
        assert "#FF" in text
        assert "outpin" in text and "inpin" in text
        assert " -> " in text  # pip statements

    def test_placed_sites_in_paper_format(self, counter_flow):
        text = write_xdl(counter_flow.design)
        for comp in counter_flow.design.slices.values():
            r, c, s = comp.site
            assert f"placed R{r+1}C{c+1} CLB_R{r+1}C{c+1}.S{s}" in text

    def test_unplaced_rejected(self, counter_flow):
        import copy

        design = copy.deepcopy(counter_flow.design)
        next(iter(design.slices.values())).site = None
        with pytest.raises(Exception):
            write_xdl(design)

    def test_physical_init_applies_pin_map(self, counter_flow):
        for comp in counter_flow.design.slices.values():
            for bel in comp.bels.values():
                if bel.lut_cell:
                    init = physical_init(bel)
                    assert 0 <= init < 65536

    def test_save(self, counter_flow, tmp_path):
        path = str(tmp_path / "c.xdl")
        save_xdl(counter_flow.design, path)
        with open(path) as f:
            assert f.read() == write_xdl(counter_flow.design)


class TestRoundtrip:
    def test_frames_identical(self, counter_flow, counter_frames):
        parsed = parse_xdl(write_xdl(counter_flow.design))
        f2 = generate_frames(parsed)
        assert np.array_equal(counter_frames.data, f2.data)

    def test_structure_preserved(self, counter_flow):
        parsed = parse_xdl(write_xdl(counter_flow.design))
        design = counter_flow.design
        assert parsed.part == design.part
        assert set(parsed.slices) == set(design.slices)
        assert set(parsed.nets) == set(design.nets)
        for name, net in design.nets.items():
            assert sorted(parsed.nets[name].pips) == sorted(net.pips)

    def test_double_roundtrip_stable(self, counter_flow):
        once = write_xdl(parse_xdl(write_xdl(counter_flow.design)))
        twice = write_xdl(parse_xdl(once))
        assert once == twice

    def test_comp_nets_attached(self, counter_flow):
        parsed = parse_xdl(write_xdl(counter_flow.design))
        clocked = [c for c in parsed.slices.values() if c.clk_net]
        assert clocked
        for iob in parsed.iobs.values():
            assert iob.net


class TestParserErrors:
    def test_not_xdl(self):
        with pytest.raises(XdlParseError):
            parse_xdl("hello world ;")

    def test_unknown_inst_type(self):
        with pytest.raises(XdlParseError, match="inst type"):
            parse_xdl('design "d" v50 ;\ninst "x" "TBUF", placed R1C1 CLB_R1C1.S0, cfg "" ;')

    def test_net_without_outpin(self):
        with pytest.raises(XdlParseError, match="outpin"):
            parse_xdl('design "d" v50 ;\nnet "n", ;')

    def test_net_unknown_inst(self):
        with pytest.raises(XdlParseError, match="unknown inst"):
            parse_xdl('design "d" v50 ;\nnet "n", outpin "ghost" X, ;')

    def test_bad_pip_tile(self):
        text = (
            'design "d" v50 ;\n'
            'inst "a" "SLICE", placed R1C1 CLB_R1C1.S0, cfg "F:a:#LUT:0x0001" ;\n'
            'net "n", outpin "a" X, pip XYZ OUT0 -> SE0, ;'
        )
        with pytest.raises(XdlParseError, match="pip tile"):
            parse_xdl(text)

    def test_bad_slice_pin(self):
        text = (
            'design "d" v50 ;\n'
            'inst "a" "SLICE", placed R1C1 CLB_R1C1.S0, cfg "F:a:#LUT:0x0001" ;\n'
            'net "n", outpin "a" Q7, ;'
        )
        with pytest.raises(XdlParseError, match="output pin"):
            parse_xdl(text)

    def test_truncated(self):
        with pytest.raises(XdlParseError):
            parse_xdl('design "d" v50 ;\ninst "a" "SLICE", placed')

    def test_cemux_without_ce_net(self):
        text = (
            'design "d" v50 ;\n'
            'inst "a" "SLICE", placed R1C1 CLB_R1C1.S0, '
            'cfg "FFX:a:#FF INITX::0 DXMUX::1 CEMUX::CE SRMUX::0 SYNC_ATTR::SYNC" ;\n'
        )
        with pytest.raises(XdlParseError, match="CEMUX"):
            parse_xdl(text)

    def test_bad_cfg_token(self):
        with pytest.raises(XdlParseError, match="cfg token"):
            _parse_cfg("JUالسTBAD")

    # each malformed input is a typed error naming its line and the text

    SLICE_HEAD = 'design "d" v50 ;\ninst "a" "SLICE", placed R1C1 '

    def assert_error(self, text, needle, line=2):
        with pytest.raises(XdlParseError) as err:
            parse_xdl(text)
        assert err.value.line == line
        assert needle in str(err.value)

    def test_bad_lut_value(self):
        self.assert_error(self.SLICE_HEAD + 'CLB_R1C1.S0, cfg "F:a:#LUT:0xZZZZ" ;', "0xZZZZ")

    def test_bad_ff_init(self):
        self.assert_error(self.SLICE_HEAD + 'CLB_R1C1.S0, cfg "FFX:a:#FF INITX::q" ;', "'q'")

    def test_bad_gclk_index(self):
        text = ('design "d" v50 ;\n'
                'inst "g" "GCLK", placed GCLKPAD0 GCLKPAD0, cfg "INDEX::x PORT::clk" ;')
        self.assert_error(text, "'x'")

    def test_bad_slice_site(self):
        self.assert_error(self.SLICE_HEAD + 'CLB_RxC1.S0, cfg "" ;', "CLB_RxC1.S0")

    def test_bad_iob_site(self):
        text = ('design "d" v50 ;\n'
                'inst "p" "IOB", placed NOPAD NOPAD, cfg "IOMUX::I PORT::p" ;')
        self.assert_error(text, "NOPAD")

    def test_unknown_pip_wire(self):
        text = (self.SLICE_HEAD + 'CLB_R1C1.S0, cfg "F:a:#LUT:0x0001" ;\n'
                'net "n", outpin "a" X,\n  pip R1C1 FOO -> SE0, ;')
        self.assert_error(text, "FOO", line=4)

    def test_duplicate_inst(self):
        text = (self.SLICE_HEAD + 'CLB_R1C1.S0, cfg "" ;\n'
                'inst "a" "SLICE", placed R2C1 CLB_R2C1.S0, cfg "" ;')
        self.assert_error(text, "duplicate inst 'a'", line=3)

    def test_duplicate_net(self):
        text = (self.SLICE_HEAD + 'CLB_R1C1.S0, cfg "F:a:#LUT:0x0001" ;\n'
                'net "n", outpin "a" X, ;\n'
                'net "n", outpin "a" Y, ;')
        self.assert_error(text, "duplicate net 'n'", line=4)

    def test_error_reports_its_line(self, counter_flow):
        """An error on line N of a written source reports line N."""
        lines = write_xdl(counter_flow.design).splitlines(keepends=True)
        n = next(i for i, text in enumerate(lines, 1) if " pip " in text)
        lines[n - 1] = lines[n - 1].replace(" -> ", " -> NOWIRE", 1)
        with pytest.raises(XdlParseError, match="NOWIRE") as err:
            parse_xdl("".join(lines))
        assert err.value.line == n

    def test_truncation_reports_the_last_line(self):
        self.assert_error('design "d" v50 ;\ninst "a" "SLICE",\n  placed',
                          "end of XDL input", line=3)

    def test_unclosed_design_statement_fails_fast(self):
        # one long word and no ';': a backtracking regex would take
        # exponential time to give up here
        with pytest.raises(XdlParseError, match="end of XDL input"):
            parse_xdl('design "d" ' + "v" * 200)

    def test_arrow_does_not_start_a_word(self):
        self.assert_error(self.SLICE_HEAD + '->CLB_R1C1.S0 CLB_R1C1.S0, cfg "" ;', "placed")

    def test_unterminated_string(self):
        self.assert_error('design "d" v50 ;\n\ninst "a', "unterminated", line=3)


def module_sources(project):
    """The XDL text of every non-base module version of a project."""
    return {f"{region}/{version}": mv.xdl
            for (region, version), mv in project.versions.items() if version != "base"}


@pytest.fixture(scope="module")
def figure4_sources():
    from repro.workloads import figure4_plan, make_project

    return module_sources(make_project("fig4", "XCV100", figure4_plan("XCV100")))


class TestGoldenRoundtrip:
    """write_xdl(parse_xdl(text)) == text on the workloads' real sources."""

    def test_figure4_sources(self, figure4_sources):
        assert len(figure4_sources) == 10
        for name, text in figure4_sources.items():
            assert write_xdl(parse_xdl(text)) == text, name

    @pytest.mark.slow
    def test_xcv1000_sources(self):
        from repro.workloads import make_project, scale_plan

        sources = module_sources(make_project("x1000", "XCV1000", scale_plan("XCV1000")))
        assert len(sources) == 108
        for name, text in sources.items():
            assert write_xdl(parse_xdl(text)) == text, name

    def test_comments_and_spacing_are_separators(self, figure4_sources):
        text = next(iter(figure4_sources.values()))
        noisy = "# header\n" + text.replace(",\n", " , # trailing note\n\n")
        assert write_xdl(parse_xdl(noisy)) == text


class TestCfgStrings:
    def test_parse_cfg_triplets(self):
        attrs = _parse_cfg("CKINV::1 F:u1/c1:#LUT:0x8000 FFX:u1/r:#FF")
        assert attrs["CKINV"] == ("", "1")
        assert attrs["F"] == ("u1/c1", "#LUT:0x8000")
        assert attrs["FFX"] == ("u1/r", "#FF")

    def test_comments_ignored(self, counter_flow):
        text = "# a comment line\n" + write_xdl(counter_flow.design)
        parse_xdl(text)


class TestParseCache:
    """parse_xdl_cached: the content-hash memo the batch/serve hot paths use."""

    def test_identical_text_returns_the_shared_design(self, counter_flow):
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        text = write_xdl(counter_flow.design)
        first = parse_xdl_cached(text)
        assert parse_xdl_cached(text) is first
        # the memoized design is a real parse, not a stand-in
        assert first.slices.keys() == parse_xdl(text).slices.keys()

    def test_different_text_parses_fresh(self, counter_flow):
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        text = write_xdl(counter_flow.design)
        a = parse_xdl_cached(text)
        b = parse_xdl_cached("# different content\n" + text)
        assert a is not b

    def test_clear_parse_cache_drops_entries(self, counter_flow):
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        text = write_xdl(counter_flow.design)
        first = parse_xdl_cached(text)
        clear_parse_cache()
        assert parse_xdl_cached(text) is not first

    def test_lru_evicts_past_the_cap(self, counter_flow):
        from repro.xdl import parser as parser_mod
        from repro.xdl.parser import clear_parse_cache, parse_xdl_cached

        clear_parse_cache()
        text = write_xdl(counter_flow.design)
        first = parse_xdl_cached(text)
        for i in range(parser_mod._PARSE_CACHE_MAX):
            parse_xdl_cached(f"# filler {i}\n" + text)
        assert len(parser_mod._parse_cache) == parser_mod._PARSE_CACHE_MAX
        # the original entry was the least recently used -> evicted
        assert parse_xdl_cached(text) is not first
        clear_parse_cache()
