"""Differential conformance: BatchJpg vs the independent baselines.

Three generators that share no code path above the frame layer must agree
on the final device state:

* **BatchJpg** (shared base, frame cache) emitting a partial that is then
  applied to a clone of the base configuration, on a first run and on a
  second run over the same engine;
* the sequential **Jpg** single-shot path (`make_partial`), whose partial
  must be byte-identical to BatchJpg's;
* **JBitsDiff** core extraction/replay (`repro.baselines.jbitsdiff`),
  which reaches the same state through tile-bit edits instead of a
  configuration stream.

Any divergence fails with a frame-level dump (frame index, major.minor
address, column kind) so the first differing frame is attributable.
"""

from __future__ import annotations

import pytest

from repro.baselines.jbitsdiff import extract_core, replay_core
from repro.batch import BatchItem, BatchJpg
from repro.bitstream.frames import FrameMemory, frame_runs
from repro.bitstream.reader import apply_bitstream, parse_bitstream
from repro.core.jpg import Jpg
from repro.jbits import JBits

from ..conftest import FAMILY_PARTS, family_project, random_family_project

VERSIONS = [("r1", "up"), ("r1", "down"), ("r2", "left"), ("r2", "right")]


def _items(demo_project) -> list[BatchItem]:
    return [
        BatchItem(
            f"{region}/{version}",
            demo_project.versions[(region, version)].xdl,
            region=demo_project.regions[region],
            ucf=demo_project.versions[(region, version)].ucf,
        )
        for region, version in VERSIONS
    ]


def frame_diff_dump(a: FrameMemory, b: FrameMemory, *, label_a: str,
                    label_b: str, limit: int = 16) -> str:
    """Human-attributable frame-level diff (what a divergence failure prints)."""
    changed = a.diff_frames(b)
    geometry = a.device.geometry
    lines = [
        f"{label_a} vs {label_b}: {len(changed)} of "
        f"{geometry.total_frames} frames differ"
    ]
    for start, count in frame_runs(changed)[:limit]:
        major, minor = geometry.frame_address(start)
        col = geometry.column(major)
        where = col.kind.value
        if col.clb_col is not None:
            where += f" col {col.clb_col + 1}"
        first_bad_word = int(
            (a.frame(start) != b.frame(start)).argmax()
        )
        lines.append(
            f"  frame {start} (+{count}): major.minor {major}.{minor}, "
            f"{where}, first differing word {first_bad_word}"
        )
    if len(frame_runs(changed)) > limit:
        lines.append(f"  ... {len(frame_runs(changed)) - limit} more run(s)")
    return "\n".join(lines)


def assert_frame_identical(a: FrameMemory, b: FrameMemory, *, label_a: str,
                           label_b: str) -> None:
    if a != b:
        pytest.fail(frame_diff_dump(a, b, label_a=label_a, label_b=label_b))


@pytest.fixture(scope="module")
def base_frames(demo_project):
    frames, _ = parse_bitstream(
        demo_project.device, demo_project.base_bitfile.config_bytes
    )
    return frames


@pytest.fixture(scope="module")
def engine(demo_project):
    return BatchJpg("XCV50", demo_project.base_bitfile)


@pytest.fixture(scope="module")
def sequential_partials(demo_project):
    """name -> bytes from the single-shot Jpg path (the reference)."""
    out = {}
    for region, version in VERSIONS:
        mv = demo_project.versions[(region, version)]
        result = Jpg("XCV50", demo_project.base_bitfile).make_partial(
            mv.xdl, region=demo_project.regions[region], ucf=mv.ucf
        )
        out[f"{region}/{version}"] = result.data
    return out


class TestBatchVsSequential:
    @pytest.mark.parametrize("region,version", VERSIONS)
    def test_partials_byte_identical(self, demo_project, engine,
                                     region, version):
        mv = demo_project.versions[(region, version)]
        rect = demo_project.regions[region]
        batch = engine.generate_one(
            BatchItem(f"{region}/{version}", mv.xdl, region=rect, ucf=mv.ucf)
        )
        assert batch.ok, batch.error
        sequential = Jpg("XCV50", demo_project.base_bitfile).make_partial(
            mv.xdl, region=rect, ucf=mv.ucf
        )
        assert batch.result.data == sequential.data, (
            f"{region}/{version}: batch and sequential partials diverge "
            f"({len(batch.result.data)} vs {len(sequential.data)} bytes)"
        )


class TestEngineConformance:
    """The batch engine emits the sequential path's exact bytes, run after
    run."""

    def test_partials_byte_identical_across_runs(self, demo_project,
                                                 sequential_partials):
        """Both a first run and a second run on the same engine (caches
        seeded) emit the sequential partials."""
        engine = BatchJpg("XCV50", demo_project.base_bitfile)
        reports = [engine.run(_items(demo_project)) for _ in ("first", "second")]
        for run, report in zip(("first", "second"), reports):
            assert report.ok, [f.error for f in report.failures]
            partials = report.partials()
            assert set(partials) == set(sequential_partials)
            for name, reference in sequential_partials.items():
                assert partials[name].data == reference, (
                    f"{run} run: {name} diverges from the sequential partial "
                    f"({len(partials[name].data)} vs {len(reference)} bytes)"
                )
        # shared-clear accounting on the first run: every item cleared its
        # region exactly once, one miss per region and a hit for the rest
        cs = reports[0].cache_stats
        assert cs.lookups == len(VERSIONS)
        assert cs.misses == 2 and cs.hits == 2

    def test_applied_state_matches_base_plus_module(self, demo_project,
                                                    base_frames):
        """Applying the engine's partial on the base reproduces the merged
        configuration, frame for frame."""
        engine = BatchJpg("XCV50", demo_project.base_bitfile)
        report = engine.run(_items(demo_project))
        mv = demo_project.versions[("r1", "down")]
        applied = base_frames.clone()
        apply_bitstream(applied, report.partials()["r1/down"].data)
        jpg = Jpg("XCV50", demo_project.base_bitfile)
        jpg.make_partial(mv.xdl, region=demo_project.regions["r1"], ucf=mv.ucf)
        after, _ = parse_bitstream(demo_project.device, jpg.full_bitstream())
        assert_frame_identical(
            applied, after,
            label_a="base+batch partial",
            label_b="Jpg merged full configuration",
        )


class TestBatchVsJBitsDiff:
    @pytest.mark.parametrize("region,version", VERSIONS)
    def test_applied_state_matches_core_replay(self, demo_project, engine,
                                               base_frames, region, version):
        mv = demo_project.versions[(region, version)]
        rect = demo_project.regions[region]

        batch = engine.generate_one(
            BatchItem(f"{region}/{version}", mv.xdl, region=rect, ucf=mv.ucf)
        )
        assert batch.ok, batch.error
        applied = base_frames.clone()
        apply_bitstream(applied, batch.result.data)

        # independent path: merged full config -> tile-bit core -> replay
        jpg = Jpg("XCV50", demo_project.base_bitfile)
        jpg.make_partial(mv.xdl, region=rect, ucf=mv.ucf)
        after, _ = parse_bitstream(demo_project.device, jpg.full_bitstream())
        # versions already resident in the base diff to an empty core; the
        # swapped-in versions must produce edits
        core = extract_core(f"{region}/{version}", base_frames, after)
        if version not in ("up", "left"):
            assert len(core) > 0, "core extraction found no edits (dead module?)"

        jb = JBits("XCV50")
        jb.read(base_frames.clone())
        replay_core(core, jb)

        assert_frame_identical(
            applied, jb.frames,
            label_a="base+BatchJpg partial",
            label_b="jbitsdiff core replay",
        )
        assert_frame_identical(
            applied, after,
            label_a="base+BatchJpg partial",
            label_b="Jpg merged full configuration",
        )


def assert_differential_conformance(project) -> None:
    """The three-way byte/frame agreement, on any device a project runs on.

    BatchJpg and the sequential Jpg must emit byte-identical partials;
    applying them to the base must reproduce the merged configuration;
    and the jbitsdiff tile-bit core replay must land on the same frames.
    A failure names the device spec so seeded-random cases reproduce from
    the report alone.
    """
    part = project.device.name
    label = f"[{part}]"
    mv = project.versions[("r1", "down")]
    rect = project.regions["r1"]
    engine = BatchJpg(part, project.base_bitfile)
    batch = engine.generate_one(
        BatchItem("r1/down", mv.xdl, region=rect, ucf=mv.ucf)
    )
    assert batch.ok, f"{label} batch generation failed: {batch.error}"
    sequential = Jpg(part, project.base_bitfile).make_partial(
        mv.xdl, region=rect, ucf=mv.ucf
    )
    assert batch.result.data == sequential.data, (
        f"{label} batch and sequential partials diverge "
        f"({len(batch.result.data)} vs {len(sequential.data)} bytes); "
        f"spec={project.device.spec.to_dict()}"
    )

    base_frames, _ = parse_bitstream(
        project.device, project.base_bitfile.config_bytes
    )
    applied = base_frames.clone()
    apply_bitstream(applied, batch.result.data)
    jpg = Jpg(part, project.base_bitfile)
    jpg.make_partial(mv.xdl, region=rect, ucf=mv.ucf)
    after, _ = parse_bitstream(project.device, jpg.full_bitstream())

    core = extract_core("r1/down", base_frames, after)
    assert core, f"{label} core extraction found no edits (dead module?)"
    jb = JBits(part)
    jb.read(base_frames.clone())
    replay_core(core, jb)

    assert_frame_identical(
        applied, jb.frames,
        label_a=f"{label} base+BatchJpg partial",
        label_b=f"{label} jbitsdiff core replay",
    )
    assert_frame_identical(
        applied, after,
        label_a=f"{label} base+BatchJpg partial",
        label_b=f"{label} Jpg merged full configuration",
    )


@pytest.mark.families
class TestFamilyConformance:
    """The same three-way agreement on every irregular family variant and
    a handful of seeded random devices (the wide sweep is slow-marked)."""

    @pytest.mark.parametrize("part", FAMILY_PARTS)
    def test_variant_conformance(self, part):
        assert_differential_conformance(family_project(part))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_device_conformance(self, seed):
        assert_differential_conformance(random_family_project(seed))


@pytest.mark.families
@pytest.mark.slow
class TestRandomDeviceSweep:
    """20 seeded random geometries; each failure reports seed and spec."""

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_sweep(self, seed):
        assert_differential_conformance(random_family_project(seed))


class TestServedVsGenerated:
    def test_disk_served_partial_is_byte_identical(self, demo_project, tmp_path):
        from repro.serve import GenerationService, GenRequest

        mv = demo_project.versions[("r1", "down")]
        req = GenRequest(name="r1/down", xdl=mv.xdl, ucf=mv.ucf,
                         region=demo_project.regions["r1"].to_ucf())
        svc = GenerationService("XCV50", demo_project.base_bitfile,
                                cache_dir=str(tmp_path / "cache"))
        fresh = svc.generate(req)
        assert fresh.ok and fresh.source == "generated"
        served = svc.generate(req)
        assert served.ok and served.source == "disk"
        assert served.data == fresh.data

        # ... and identical to a service with no disk cache at all
        bare = GenerationService("XCV50", demo_project.base_bitfile)
        assert bare.generate(req).data == fresh.data


class TestDiffDump:
    def test_dump_names_the_diverging_frames(self, base_frames):
        mutated = base_frames.clone()
        mutated.data[7, 3] ^= 1
        mutated.data[250, 0] ^= 2
        dump = frame_diff_dump(base_frames, mutated, label_a="a", label_b="b")
        assert "2 of" in dump
        assert "frame 7" in dump and "frame 250" in dump
        assert "major.minor" in dump
