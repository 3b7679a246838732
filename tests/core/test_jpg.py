"""JPG tool tests — the paper's pipeline, piece by piece."""

import pytest

from repro.bitstream.reader import apply_bitstream
from repro.core import Granularity, Jpg, JpgOptions
from repro.core.verify import verify_partial_equivalence
from repro.errors import InterfaceMismatchError, JpgError
from repro.ucf import parse_ucf
from repro.xdl import parse_xdl


@pytest.fixture()
def project(demo_project):
    return demo_project


def fresh_jpg(project):
    return Jpg(project.part, project.base_bitfile, base_design=project.base_flow.design)


class TestMakePartial:
    def test_column_partial_applies_cleanly(self, project):
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        result = jpg.make_partial(mv.design, region=project.regions["r1"])
        # applying the partial to the base configuration must yield exactly
        # the tool's merged state
        base = Jpg(project.part, project.base_bitfile).frames
        assert verify_partial_equivalence(base, result.data, jpg.frames).ok

    def test_region_from_ucf(self, project):
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        result = jpg.make_partial(
            parse_xdl(mv.xdl), ucf=parse_ucf(mv.ucf)
        )
        assert result.region == project.regions["r1"]

    def test_no_region_rejected(self, project):
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        with pytest.raises(JpgError, match="region"):
            jpg.make_partial(mv.design)

    def test_xdl_text_accepted(self, project):
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        result = jpg.make_partial(mv.xdl, region=project.regions["r1"])
        assert result.size > 0

    def test_partial_much_smaller_than_full(self, project):
        jpg = fresh_jpg(project)
        mv = project.versions[("r2", "right")]
        result = jpg.make_partial(mv.design, region=project.regions["r2"])
        assert 0.1 < result.ratio < 0.6

    def test_columns_cover_region(self, project):
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        result = jpg.make_partial(mv.design, region=project.regions["r1"])
        assert set(project.regions["r1"].clb_columns()) <= set(result.columns)

    def test_frame_granularity_smaller(self, project):
        jpg_col = fresh_jpg(project)
        jpg_frm = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        col = jpg_col.make_partial(mv.design, region=project.regions["r1"])
        frm = jpg_frm.make_partial(
            mv.design,
            region=project.regions["r1"],
            options=JpgOptions(granularity=Granularity.FRAME),
        )
        assert frm.size < col.size
        assert frm.granularity is Granularity.FRAME

    def test_interface_mismatch_rejected(self, project):
        import copy

        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        bad = copy.deepcopy(mv.design)
        g = next(iter(bad.gclks.values()))
        g.index = (g.index + 1) % 4
        with pytest.raises(InterfaceMismatchError):
            jpg.make_partial(bad, region=project.regions["r1"])

    def test_region_violation_rejected(self, project):
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        wrong_region = project.regions["r2"]  # module is placed in r1
        with pytest.raises(JpgError):
            jpg.make_partial(mv.design, region=wrong_region)

    def test_checks_can_be_disabled(self, project):
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        result = jpg.make_partial(
            mv.design,
            region=project.regions["r2"],
            options=JpgOptions(check_region=False, check_interface=False,
                               clear_region=False),
        )
        assert result.size > 0


class TestClearingSemantics:
    def test_stale_logic_removed(self, project):
        """Generating v2's partial must erase v1's logic from the region's
        frames, not just overlay it."""
        jpg = fresh_jpg(project)
        region = project.regions["r1"]
        mv = project.versions[("r1", "down")]
        result = jpg.make_partial(mv.design, region=region)
        # every base-design slice in r1 whose site the new module does not
        # reuse must now be blank
        new_sites = {c.site for c in mv.design.slices.values()}
        from repro.devices.resources import SLICE

        for comp in project.base_flow.design.slices.values():
            r, c, s = comp.site
            if not region.contains(r, c) or (r, c, s) in new_sites:
                continue
            assert jpg.frames.get_field(r, c, SLICE[s].FFX_USED) == 0

    def test_result_metadata(self, project):
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        result = jpg.make_partial(mv.design, region=project.regions["r1"])
        assert result.module_name == mv.design.name
        assert result.frames == sorted(result.frames)
        assert result.full_size > result.size

    def test_bitfile_wrapper(self, project, tmp_path):
        from repro.bitstream.bitfile import BitFile

        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        result = jpg.make_partial(mv.design, region=project.regions["r1"])
        path = str(tmp_path / "p.bit")
        result.save(path, project.part)
        loaded = BitFile.load(path)
        assert loaded.config_bytes == result.data

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "frame-cache"])
    def test_region_past_device_leaves_state_untouched(self, project, cached):
        """A target region that reaches past the device raises before any
        frame is cleared, so the next partial from the same tool is
        byte-identical to a fresh tool's."""
        from repro.batch.cache import FrameCache
        from repro.errors import DeviceError
        from repro.flow.floorplan import RegionRect

        cache = FrameCache() if cached else None
        jpg = Jpg(project.part, project.base_bitfile,
                  base_design=project.base_flow.design, frame_cache=cache)
        region = project.regions["r1"]
        too_tall = RegionRect(region.rmin, region.cmin,
                              jpg.jbits.device.rows + 5, region.cmax)
        mv = project.versions[("r1", "down")]
        before, dirty = jpg.frames.data.copy(), jpg.jbits.dirty_frames
        with pytest.raises(DeviceError):
            jpg.make_partial(mv.design, region=too_tall)
        assert (jpg.frames.data == before).all()
        assert jpg.jbits.dirty_frames == dirty

        result = jpg.make_partial(mv.design, region=region)
        expected = fresh_jpg(project).make_partial(mv.design, region=region)
        assert result.data == expected.data
        assert result.frames == expected.frames


class TestDownload:
    def test_download_to_board(self, project):
        from repro.hwsim import Board
        from repro.jbits import SimulatedXhwif

        board = Board(project.part)
        board.download(project.base_bitfile)
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        result = jpg.make_partial(mv.design, region=project.regions["r1"])
        seconds = jpg.download(SimulatedXhwif(board), result)
        assert seconds > 0
        assert board.frames == jpg.frames

    def test_download_part_mismatch(self, project):
        from repro.hwsim import Board
        from repro.jbits import SimulatedXhwif

        board = Board("XCV100")
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        result = jpg.make_partial(mv.design, region=project.regions["r1"])
        with pytest.raises(JpgError, match="board"):
            jpg.download(SimulatedXhwif(board), result)


class TestMergedState:
    def test_full_bitstream_reflects_partials(self, project):
        jpg = fresh_jpg(project)
        mv = project.versions[("r1", "down")]
        jpg.make_partial(mv.design, region=project.regions["r1"])
        merged = jpg.full_bitstream()
        from repro.bitstream.frames import FrameMemory
        from repro.devices import get_device

        fm = FrameMemory(get_device(project.part))
        apply_bitstream(fm, merged)
        assert fm == jpg.frames
