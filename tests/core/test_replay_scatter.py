"""Replay as one bit scatter, held to the per-bit path it replaced.

Two reference paths stay here as oracles:

* :func:`reference_frames` — bitgen's per-bit setters (``set_field`` /
  ``set_pip`` / ``set_iob_enable`` / ``set_gclk_enable``) on a
  :class:`FrameMemory`, optionally on a copy of a base;
* :func:`reference_replay` — the replay :class:`Jpg` ran before: those
  setters on a clone of the live frames, then :meth:`JBits.merge_frames`,
  and a frame-cache hit that reloads the whole cached state.

The write list plus scatter (:func:`bit_writes`,
:meth:`FrameMemory.apply_bits`, :meth:`JBits.apply_bits`) must match both
bit for bit, in dirty frames, and in the errors it raises.
"""

import contextlib
import random

import numpy as np
import pytest

from repro.batch.cache import FrameCache
from repro.bitstream.bitgen import bit_writes, generate_frames
from repro.bitstream.frames import BitWrites, FrameMemory
from repro.core import Granularity, Jpg, JpgOptions
from repro.core import jpg as jpg_module
from repro.devices import get_device
from repro.devices.resources import SLICE
from repro.errors import BitstreamError, DeviceError, FlowError
from repro.flow.ncd import NcdDesign
from repro.jbits import JBits
from repro.netlist.library import expand_init
from repro.workloads import flow_cases, make_project, scale_plan
from tests.flow.test_route_golden import golden_designs, xcv50_designs


def reference_frames(design: NcdDesign, base: FrameMemory | None = None) -> FrameMemory:
    """bitgen as a loop of per-bit setters, on a copy of ``base`` if given."""
    device = get_device(design.part)
    if not design.placed():
        raise FlowError("bitgen requires a placed design")
    if not design.routed():
        raise FlowError("bitgen requires a routed design")
    fm = base.clone() if base is not None else FrameMemory(device)
    for comp in design.slices.values():
        r, c, s = comp.site
        res = SLICE[s]
        for bel in comp.bels.values():
            if bel.lut_cell is not None:
                pin_map = bel.pin_map or list(range(bel.lut_width))
                init = expand_init(bel.lut_init, bel.lut_width, 4, pin_map)
                fm.set_field(r, c, res.lut(bel.letter), init)
            if bel.ff_cell is not None:
                used = res.FFX_USED if bel.letter == "F" else res.FFY_USED
                init_f = res.FFX_INIT if bel.letter == "F" else res.FFY_INIT
                dmux = res.DXMUX if bel.letter == "F" else res.DYMUX
                fm.set_field(r, c, used, 1)
                fm.set_field(r, c, init_f, bel.ff_init)
                fm.set_field(r, c, dmux, 0 if bel.ff_d_from_lut else 1)
        if any(b.ff_cell for b in comp.bels.values()):
            ff_sync = any(b.ff_cell and b.ff_sync for b in comp.bels.values())
            fm.set_field(r, c, res.SYNC_ATTR, int(ff_sync))
            fm.set_field(r, c, res.CE_USED, int(comp.ce_net is not None))
            fm.set_field(r, c, res.SR_USED, int(comp.sr_net is not None))
    for net in design.nets.values():
        for r, c, pip in net.pips:
            fm.set_pip(r, c, pip, 1)
    for iob in design.iobs.values():
        if iob.site is None:
            raise FlowError(f"IOB {iob.name} unplaced")
        fm.set_iob_enable(iob.site, 0 if iob.direction == "in" else 1, 1)
    for g in design.gclks.values():
        if g.index is None:
            raise FlowError(f"clock buffer {g.name} has no GCLK index")
        fm.set_gclk_enable(g.index, 1)
    return fm


def _reference_apply(self: JBits, design: NcdDesign) -> list[int]:
    return self.merge_frames(reference_frames(design, base=self.frames))


def _reference_clear_region(self: Jpg, region, base_key) -> None:
    if self.frame_cache is None:
        self.jbits.clear_region(region)
        return
    if base_key is None:
        base_key = self.frame_cache.base_key(self.frames)

    def compute():
        prev = set(self.jbits.dirty_frames)
        self.jbits.clear_region(region)
        return self.frames.clone(), frozenset(set(self.jbits.dirty_frames) - prev)

    prev_dirty = set(self.jbits.dirty_frames)
    cleared, clear_dirty = self.frame_cache.cleared(base_key, region, compute)
    self.jbits.read(cleared)
    self.jbits.touch_frames(prev_dirty | clear_dirty)


@contextlib.contextmanager
def replay_path(*, reference: bool):
    """Run Jpg on the scatter path or on the reference replay; yields the
    list that collects the dirty set right after each replay."""
    dirty_after_replay: list[list[int]] = []
    apply = _reference_apply if reference else JBits.apply_bits

    def spy(self, writes):
        changed = apply(self, writes)
        dirty_after_replay.append(self.dirty_frames)
        return changed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(JBits, "apply_bits", spy)
        if reference:
            mp.setattr(jpg_module, "bit_writes", lambda design: design)
            mp.setattr(Jpg, "_clear_region", _reference_clear_region)
        yield dirty_after_replay


def run_jpgs(project, runs, *, reference, options=None, cached=False):
    """Make partials through a sequence of Jpg instances (``runs`` lists
    each instance's (region, version) steps) sharing one frame cache when
    ``cached``; returns every step's outcome and each instance's final
    frames."""
    cache = FrameCache() if cached else None
    outcomes, finals = [], []
    with replay_path(reference=reference) as dirty:
        for steps in runs:
            jpg = Jpg(project.part, project.base_bitfile,
                      base_design=project.base_flow.design, frame_cache=cache)
            for region, version in steps:
                mv = project.versions[(region, version)]
                r = jpg.make_partial(mv.design, region=project.regions[region],
                                     options=options)
                outcomes.append((r.data, r.frames, r.columns, dirty[-1]))
            finals.append(jpg.frames.data.copy())
    return outcomes, finals


def assert_same_runs(project, runs, **kwargs):
    new, new_finals = run_jpgs(project, runs, reference=False, **kwargs)
    old, old_finals = run_jpgs(project, runs, reference=True, **kwargs)
    assert len(new) == len(old) == sum(len(steps) for steps in runs)
    for got, want in zip(new, old):
        assert got[0] == want[0]          # partial bytes
        assert got[1:] == want[1:]        # frames, columns, dirty after replay
    for got, want in zip(new_finals, old_finals):
        assert np.array_equal(got, want)


def assert_frames_equal(design, base=None):
    want = reference_frames(design, base)
    if base is None:
        got = generate_frames(design)
    else:
        jb = JBits(design.part)
        jb.read(base)
        jb.apply_bits(bit_writes(design))
        got = jb.frames
    assert np.array_equal(got.data, want.data), design.name


def _copy(design: NcdDesign) -> NcdDesign:
    return NcdDesign.from_bytes(design.to_bytes())


# -- generate_frames == the per-bit setters ------------------------------------


class TestGenerateFramesMatchesSetters:
    def test_xcv50_designs(self):
        for _, design, _ in xcv50_designs():
            assert_frames_equal(design)

    def test_figure4_versions(self):
        designs = dict(golden_designs())
        assert len(designs) == 14
        for design in designs.values():
            assert_frames_equal(design)
        # a module written onto the configured base, as the replay does
        base = generate_frames(designs["base"])
        for label, design in designs.items():
            if label.startswith("r"):
                assert_frames_equal(design, base)

    def test_flow_case_bases(self):
        from repro.flow import run_flow

        for _, part, netlist, constraints in flow_cases():
            assert_frames_equal(run_flow(netlist, part, constraints, seed=5).design)

    def test_demo_versions_on_the_base(self, demo_project):
        base = generate_frames(demo_project.base_flow.design)
        for mv in demo_project.versions.values():
            assert_frames_equal(mv.design)
            assert_frames_equal(mv.design, base)


# -- the scatter itself ---------------------------------------------------------


class TestApplyBits:
    def test_last_write_wins(self, xcv50):
        fm = FrameMemory(xcv50)
        fm.apply_bits(BitWrites([3, 3, 4, 4], [7, 7, 8, 8], [1, 0, 0, 1]))
        assert fm.get_bit(3, 7) == 0
        assert fm.get_bit(4, 8) == 1
        assert fm.nonzero_frames() == [4]

    def test_random_writes_match_set_bit_loop(self, xcv50):
        rng = random.Random(19)
        g = xcv50.geometry
        for _ in range(20):
            base = FrameMemory(xcv50)
            for _ in range(200):
                base.set_bit(rng.randrange(40), rng.randrange(g.frame_bits), 1)
            # few frames and bits, so words and bits repeat
            n = rng.randrange(1, 300)
            writes = BitWrites(
                [rng.randrange(40) for _ in range(n)],
                [rng.randrange(64) if rng.random() < 0.5 else rng.randrange(g.frame_bits)
                 for _ in range(n)],
                [rng.randrange(2) for _ in range(n)],
            )
            want = base.clone()
            for f, b, v in zip(writes.frames, writes.bits, writes.values):
                want.set_bit(f, b, v)
            got = base.clone()
            changed = got.apply_bits(writes)
            assert np.array_equal(got.data, want.data)
            assert changed == base.diff_frames(want)

    def test_empty_write_list_changes_nothing(self, xcv50):
        fm = FrameMemory(xcv50)
        assert fm.apply_bits(BitWrites()) == []
        assert fm.nonzero_frames() == []

    def test_unchanged_bits_are_not_reported(self, xcv50):
        fm = FrameMemory(xcv50)
        fm.set_bit(5, 40, 1)
        assert fm.apply_bits(BitWrites([5, 6], [40, 41], [1, 0])) == []

    @pytest.mark.parametrize("frame, bit, error", [
        (-1, 0, DeviceError), (10**6, 0, DeviceError),
        (0, -1, BitstreamError), (0, 10**6, BitstreamError),
    ])
    def test_bad_write_raises_before_any_write(self, xcv50, frame, bit, error):
        fm = FrameMemory(xcv50)
        with pytest.raises(error):
            fm.apply_bits(BitWrites([1, frame, 2], [1, bit, 2], [1, 1, 1]))
        assert fm.nonzero_frames() == []


# -- errors: same type and text as the setters, no frame written ------------------


def _error_of(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared below
        return type(exc), str(exc)
    return None


def _off_device(design):
    comp = next(iter(design.slices.values()))
    comp.site = (999, 0, comp.site[2])


def _oversized_ff_init(design):
    comp = next(c for c in design.slices.values()
                if any(b.ff_cell for b in c.bels.values()))
    bel = next(b for b in comp.bels.values() if b.ff_cell)
    bel.ff_init = 2


def _unplaced_iob(design):
    next(iter(design.iobs.values())).site = None


def _unrouted(design):
    next(iter(design.nets.values())).routed = False


def _gclk_without_index(design):
    next(iter(design.gclks.values())).index = None


class TestErrors:
    @pytest.mark.parametrize("breakage, error", [
        (_off_device, DeviceError),
        (_oversized_ff_init, BitstreamError),
        (_unplaced_iob, FlowError),
        (_unrouted, FlowError),
        (_gclk_without_index, FlowError),
    ])
    def test_same_error_and_frames_unchanged(self, counter_flow, counter_bitfile,
                                             breakage, error):
        design = _copy(counter_flow.design)
        breakage(design)
        want = _error_of(reference_frames, design)
        assert want is not None and want[0] is error
        assert _error_of(bit_writes, design) == want
        assert _error_of(generate_frames, design) == want
        jpg = Jpg("XCV50", counter_bitfile)
        before = jpg.frames.data.copy()
        opts = JpgOptions(clear_region=False, check_region=False)
        with pytest.raises(error):
            jpg.make_partial(design, options=opts)
        assert np.array_equal(jpg.frames.data, before)
        assert jpg.jbits.dirty_frames == []


# -- Jpg.make_partial == the clone + merge_frames replay ---------------------------


#: One Jpg making several partials, then a second Jpg (sharing the frame
#: cache, when there is one) starting over on the base.
RUNS = [
    [("r1", "down"), ("r2", "right"), ("r1", "up"), ("r1", "up")],
    [("r1", "down"), ("r2", "left")],
]


class TestReplayMatchesMerge:
    @pytest.mark.parametrize("granularity", list(Granularity))
    @pytest.mark.parametrize("clear", [True, False])
    @pytest.mark.parametrize("cached", [False, True])
    def test_partials_frames_and_dirty_sets(self, demo_project, granularity,
                                            clear, cached):
        opts = JpgOptions(granularity=granularity, clear_region=clear)
        assert_same_runs(demo_project, RUNS, options=opts, cached=cached)

    def test_dirty_set_equals_merge_frames(self, demo_project):
        base = Jpg(demo_project.part, demo_project.base_bitfile).frames
        for mv in demo_project.versions.values():
            new, old = JBits(demo_project.part), JBits(demo_project.part)
            new.read(base)
            old.read(base)
            changed = new.apply_bits(bit_writes(mv.design))
            assert changed == _reference_apply(old, mv.design)
            assert new.dirty_frames == old.dirty_frames == changed
            assert new.frames == old.frames

    def test_figure4_partials(self):
        from repro.workloads import figure4_plan

        project = make_project("fig4", "XCV100", figure4_plan("XCV100"))
        versions = [key for key in project.versions if key[1] != "base"]
        assert len(versions) == 10
        assert_same_runs(project, [versions], cached=True)
        assert_same_runs(project, [[key] for key in versions], cached=True)

    def test_cleared_region_restored_from_cache(self, demo_project):
        """A frame-cache hit copies back only the region's columns, and the
        result equals a fresh clear."""
        cache = FrameCache()
        region = demo_project.regions["r1"]
        mv = demo_project.versions[("r1", "down")]
        first = Jpg(demo_project.part, demo_project.base_bitfile, frame_cache=cache)
        first.make_partial(mv.design, region=region)
        second = Jpg(demo_project.part, demo_project.base_bitfile, frame_cache=cache)
        second._clear_region(region, None)
        assert cache.stats.hits == 1
        fresh = Jpg(demo_project.part, demo_project.base_bitfile)
        fresh.jbits.clear_region(region)
        assert second.frames == fresh.frames
        assert second.jbits.dirty_frames == fresh.jbits.dirty_frames


@pytest.mark.slow
def test_xcv1000_scale_partials_match_reference():
    """All 108 XCV1000 scale partials, each on a fresh Jpg over one shared
    frame cache (the batch shape), and all on one Jpg in sequence."""
    project = make_project("x1000", "XCV1000", scale_plan("XCV1000"))
    versions = [key for key in project.versions if key[1] != "base"]
    assert len(versions) == 108
    assert_same_runs(project, [[key] for key in versions], cached=True)
    assert_same_runs(project, [versions])
