"""jpgbench command line.

    PYTHONPATH=src python -m benchmarks.jpgbench run --seed S --out DIR [--workload W]
                                                     [--trace] [--smoke]
    PYTHONPATH=src python -m benchmarks.jpgbench trace DIR
    PYTHONPATH=src python -m benchmarks.jpgbench compare A B

``run`` runs each workload in its own process, one after another, prints
every end-to-end metric with its unit and writes one record per run into
DIR; with ``--trace`` each workload also gets a traced run, whose spans
land in DIR too.  It exits 1, printing no metrics, when any oracle fails.
``trace`` prints per-layer self times, span coverage and tracing overhead;
``compare`` prints one row per (metric, workload) with a verdict.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import ROOT
from .harness import load_spec
from .report import compare_report, trace_report


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    passes = (0, 1) if args.trace else (0,)
    results = []
    for name in names:
        for trace in passes:
            cmd = [sys.executable, str(ROOT / "benchmarks" / "jpgbench" / "run.py"),
                   "--workload", name, "--seed", str(args.seed), "--trace", str(trace),
                   "--out", str(Path(args.out).resolve())]
            if args.seconds:
                cmd += ["--seconds", str(args.seconds)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            if proc.returncode or not result.get("correct"):
                print(f"jpgbench: {name}{' (traced)' if trace else ''} failed "
                      f"(exit {proc.returncode}); no metrics reported", file=sys.stderr)
                return 1
            results.append((name, trace, result))
    for name, trace, result in results:
        print(f"{name}{' (traced)' if trace else ''}: seed {args.seed}, "
              f"{result['attempted']} attempted, {result['failed']} failed")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.jpgbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run workloads, one process each, and record them")
    p.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for run records and spans")
    p.add_argument("--seconds", type=float, help="timed phase length per run")
    p.add_argument("--trace", action="store_true", help="add a traced run per workload")
    p.add_argument("--smoke", action="store_true", help="short runs with one set-up")
    p = sub.add_parser("trace", help="per-layer self times of the traced runs in DIR")
    p.add_argument("dir")
    p = sub.add_parser("compare", help="compare the untraced runs of two directories")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "trace":
        print(trace_report(args.dir))
    else:
        print(compare_report(args.a, args.b, load_spec()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
