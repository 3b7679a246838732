"""Run one workload and print its result line.

    python3 benchmarks/jpgbench/run.py --workload fig4-e2e --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json``, or with ``--trace 1`` every per-layer metric, each
with its unit.  Progress goes to standard error.  When an oracle fails the
line reads ``"correct": false`` with no metrics, and the exit code is 1.

``--out DIR`` also writes the run's record to DIR (commit, CPU count,
seed, both metric sets and the workload's details) and, when traced, its
spans.  ``--smoke`` is a short run with one set-up, for tests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from repro.obs import use_metrics

from . import ROOT, fig4_e2e, fullchip_flow, serve_mixed, xcv1000_batch
from .context import Context, Outcome, quantile, tail
from .oracles import OracleError
from .tracer import NullTracer, Tracer, coverage, layer_table

WORKLOADS = {
    "fig4-e2e": fig4_e2e.run,
    "xcv1000-batch": xcv1000_batch.run,
    "fullchip-flow": fullchip_flow.run,
    "serve-mixed": serve_mixed.run,
}

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
SMOKE_SECONDS = 2.0

#: Layers whose per-layer metric is the mean self time per call, over the
#: timed phase when the layer runs there and over the whole run otherwise,
#: scaled to the reference host by the timed phase's slowdown.
SPAN_LAYERS = (
    "flow.run_flow", "flow.techmap", "flow.pack", "flow.place", "flow.route",
    "flow.timing", "xdl.write", "ucf.write", "core.jpg_init", "core.make_partial",
    "core.parse_xdl", "core.verify", "core.clear_region", "core.replay",
    "core.frame_select", "core.emit", "jbits.init_base", "bitstream.bitgen",
    "bitstream.generate_frames", "bitstream.full_stream", "bitstream.partial_stream",
    "hwsim.download",
)

#: Per-layer values only the batch and serve workloads measure.
WORKLOAD_LAYER_VALUES = (
    "batch.framecache_hit_ratio", "exec.concurrency", "serve.disk_hit_ratio",
    "serve.wire_share.p50", "serve.coalesced", "serve.rejected",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def end_to_end(outcome: Outcome) -> dict[str, float]:
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "op_ms.p50": 1e3 * statistics.median(outcome.op_s),
        "item_ms.tail": 1e3 * tail(outcome.item_s, outcome.tail_q),
        "items_per_s": outcome.items_per_s,
        "output_ratio": outcome.output_ratio,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(tracer: Tracer, outcome: Outcome, slowdown: float) -> dict[str, float]:
    timed, whole = layer_table(tracer.spans, "timed"), layer_table(tracer.spans)
    out = {}
    for layer in SPAN_LAYERS:
        calls, total = timed.get(layer) or whole.get(layer, (0, 0.0))
        out[f"{layer}_ms"] = 1e3 * total / calls / slowdown if calls else 0.0

    def values(name: str) -> list[float]:
        return tracer.values.get(("timed", name)) or [
            v for (_, n), vs in tracer.values.items() if n == name for v in vs]

    def mean(name: str) -> float:
        vs = values(name)
        return statistics.fmean(vs) if vs else 0.0

    def ratio(num: str, den: str) -> float:
        d = sum(values(den))
        return sum(values(num)) / d if d else 0.0

    out.update({
        "flow.place_moves": mean("flow.place_moves"),
        "flow.place_accept_ratio": ratio("flow.place_accepted", "flow.place_moves"),
        "flow.route_iterations": mean("flow.route_iterations"),
        "flow.route_nodes_popped": mean("flow.route_nodes_popped"),
        "flow.route_rip_ups": mean("flow.route_rip_ups"),
        "flow.nets_reused_ratio": ratio("flow.nets_reused", "flow.route_nets"),
        "bitstream.frames_per_partial": mean("bitstream.frames_per_partial"),
        "hwsim.download_cclk_cycles": mean("hwsim.download_cclk_cycles"),
        "item_ms.p50": 1e3 * quantile(outcome.item_s, 0.50),
        "item_ms.p99": 1e3 * quantile(outcome.item_s, 0.99),
        "span.coverage": coverage(tracer.spans)[2],
    })
    for name in WORKLOAD_LAYER_VALUES:
        out[name] = outcome.layer_values.get(name, 0.0)
    return out


def declared(values: dict[str, float], metrics: list[dict]) -> dict[str, dict]:
    """``values`` restricted to, and labelled by, ``BENCHMARK.json``."""
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/jpgbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="timed phase length "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the run record and spans")
    parser.add_argument("--smoke", action="store_true", help="short run, one set-up")
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])
    tracer = Tracer() if args.trace else NullTracer()
    workdir = ROOT / ".jpgbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(args.seed, seconds, 1 if args.smoke else SETUPS, tracer, workdir)
    registry = tracer.registry()
    print(f"jpgbench: {args.workload} seed {args.seed}, {seconds:g} s"
          f"{', traced' if args.trace else ''}", file=sys.stderr)
    try:
        with use_metrics(registry) if registry is not None else contextlib.nullcontext():
            outcome = WORKLOADS[args.workload](ctx)
    except OracleError as exc:
        print(f"jpgbench: {args.workload}: oracle {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": ctx.attempted,
                          "failed": ctx.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    e2e = declared(end_to_end(outcome), spec["end_to_end"])
    slowdowns = {phase: pace.slowdown for phase, pace in ctx.paces.items()}
    layers = (declared(per_layer(tracer, outcome, slowdowns["timed"]), spec["per_layer"])
              if args.trace else {})
    printed = layers if args.trace else e2e
    for name, m in printed.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        ops, op_seconds, covered = coverage(tracer.spans)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "trace": bool(args.trace), "smoke": args.smoke, "commit": commit(),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "correct": True, "attempted": ctx.attempted, "failed": ctx.failed,
            "oracles": outcome.oracles, "slowdown": slowdowns,
            "end_to_end": e2e, "per_layer": layers,
            "details": outcome.details,
        }
        name = f"{stem}-{'traced' if args.trace else 'untraced'}.json"
        with open(out / name, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
        if args.trace:
            tracer.dump(str(out / f"{stem}.spans.json.gz"), workload=args.workload,
                        seed=args.seed, ops=ops, op_seconds=op_seconds, coverage=covered,
                        slowdown=slowdowns["timed"])
    print(json.dumps({"correct": True, "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": printed}))
    return 0
