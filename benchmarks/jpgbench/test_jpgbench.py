"""jpgbench checks: every declared metric is printed with its unit, and
every oracle rejects a partial with one flipped frame bit.

Marked ``bench``, so the tier-1 suite does not run them:

    PYTHONPATH=src python -m pytest benchmarks/jpgbench -m bench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest

from benchmarks.jpgbench import ROOT
from benchmarks.jpgbench.context import Context
from benchmarks.jpgbench.harness import WORKLOADS, load_spec
from benchmarks.jpgbench.oracles import (
    OracleError,
    behaviour,
    configures,
    consistent,
    digest,
    same_bytes,
)
from benchmarks.jpgbench.pace import REFERENCE_S, Pace
from benchmarks.jpgbench.scenarios import Scenario
from benchmarks.jpgbench.tracer import NullTracer, self_times
from repro.bitstream.assembler import partial_stream
from repro.jbits import SLICE, JBits
from repro.workloads import version_name
from repro.xdl.parser import parse_xdl

pytestmark = pytest.mark.bench


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "jpgbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    # every time is measured, never a constant: each layer runs somewhere
    zero = [n for n, m in result["metrics"].items() if m["unit"] in ("ms", "s")
            and not m["value"] > 0]
    assert not zero


@pytest.fixture(scope="module")
def fig4(tmp_path_factory):
    """The Figure-4 base, the partials of one combination, its reference."""
    ctx = Context(5, 1.0, 1, NullTracer(), tmp_path_factory.mktemp("jpgbench"))
    sc = Scenario.figure4()
    base = sc.implement_base(ctx)
    choice = {"r1": "down", "r2": "taps_b", "r3": "1010"}
    sources, partials = [], []
    for plan, spec in sc.versions:
        if choice[plan.name] == version_name(spec):
            src = sc.implement_version(ctx, plan, spec, base)
            sources.append(src)
            partials.append(ctx.jpg_generate(sc.part, base.bitfile, src.xdl, src.ucf))
    return ctx, sc, base, sources, partials, sc.reference(ctx, choice, 11)


def _flip_ff_init(sc, base, src, partial) -> bytes:
    """The partial with the INIT bit of one of its flip-flops inverted,
    re-assembled so the stream stays valid (CRC included)."""
    jbits = JBits(sc.part)
    jbits.read(base.bitfile)
    jbits.read_partial(partial.data)
    comp = next(c for c in parse_xdl(src.xdl).slices.values()
                if any(bel.ff_cell for bel in c.bels.values()))
    bel = next(bel for bel in comp.bels.values() if bel.ff_cell)
    row, col, s = comp.site
    field = SLICE[s].FFX_INIT if bel.letter == "F" else SLICE[s].FFY_INIT
    jbits.set(row, col, field, 1 - jbits.get(row, col, field))
    return partial_stream(jbits.frames, partial.frames)


def _flip_stream_bit(data: bytes) -> bytes:
    """One bit flipped in the middle of the frame data (CRC left stale)."""
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 0x01]) + data[mid + 1:]


def test_behaviour_oracle_accepts_the_real_partials(fig4):
    ctx, sc, base, _, partials, reference = fig4
    behaviour(ctx, "ok", sc.part, base, [p.data for p in partials], reference,
              random.Random(1))


@pytest.mark.parametrize("flip", ["ff-init", "stream"])
def test_behaviour_oracle_rejects_one_flipped_frame_bit(fig4, flip):
    ctx, sc, base, sources, partials, reference = fig4
    data = [p.data for p in partials]
    data[0] = (_flip_ff_init(sc, base, sources[0], partials[0]) if flip == "ff-init"
               else _flip_stream_bit(data[0]))
    assert data[0] != partials[0].data
    with pytest.raises(OracleError) as info:
        behaviour(ctx, "flipped", sc.part, base, data, reference, random.Random(1))
    assert info.value.oracle == "behaviour"


def test_configures_oracle_rejects_one_flipped_stream_bit(fig4):
    ctx, sc, base, _, partials, _ = fig4
    partial = partials[0]
    configures(ctx, "ok", sc.part, base, partial.data, len(partial.frames))
    with pytest.raises(OracleError, match="configures"):
        configures(ctx, "flipped", sc.part, base, _flip_stream_bit(partial.data),
                   len(partial.frames))


def test_byte_oracles_reject_one_flipped_frame_bit(fig4):
    _, sc, base, sources, partials, _ = fig4
    good = partials[0].data
    flipped = _flip_ff_init(sc, base, sources[0], partials[0])
    same_bytes("batch-repeat", "ok", good, bytes(good))
    consistent("serve-consistent", {"k": {digest(good), digest(bytes(good))}})
    with pytest.raises(OracleError, match="batch-repeat"):
        same_bytes("batch-repeat", "flipped", good, flipped)
    with pytest.raises(OracleError, match="serve-consistent"):
        consistent("serve-consistent", {"k": {digest(good), digest(flipped)}})


@pytest.mark.xfail(raises=OracleError, strict=True,
                   reason="XCV1000 base routing crosses the 7-column slabs a partial "
                          "clears (README, Findings)")
def test_xcv1000_partial_behaves_like_its_conventional_build(tmp_path):
    ctx = Context(5, 1.0, 1, NullTracer(), tmp_path)
    sc = Scenario.xcv1000()
    base = sc.implement_base(ctx)
    plan, spec = sc.versions[0]                      # r1, the base's own version
    src = sc.implement_version(ctx, plan, spec, base)
    partial = ctx.jpg_generate(sc.part, base.bitfile, src.xdl, src.ucf)
    reference = sc.reference(ctx, {**sc.base_choice(), src.region: src.version}, 7)
    behaviour(ctx, src.label, sc.part, base, [partial.data], reference, random.Random(1))


def test_pace_scales_by_the_trimmed_mean_reference_loop_time():
    pace = Pace()
    # one preempted loop in ten is trimmed away; the rest ran 1.5x slow
    pace.samples = [1.5 * REFERENCE_S] * 9 + [40 * REFERENCE_S]
    assert pace.slowdown == pytest.approx(1.5)
    assert pace.scaled([3.0, 0.3]) == pytest.approx([2.0, 0.2])
    pace.keep_up(100 * REFERENCE_S)
    assert len(pace.samples) == 10 + 2


def test_self_time_subtracts_enclosed_spans_on_the_same_thread():
    spans = [
        ("op", 0.0, 10.0, 1, 0, "timed"),
        ("flow.run_flow", 1.0, 6.0, 1, 0, "timed"),
        ("flow.place", 2.0, 5.0, 1, 0, "timed"),
        ("core.emit", 7.0, 9.0, 1, 0, "timed"),
        ("core.replay", 2.0, 8.0, 2, 0, "timed"),     # another thread: no parent
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 2.0, 6.0])
