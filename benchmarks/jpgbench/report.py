"""Reading run records and span files back: trace analysis and comparison."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .tracer import PHASE, coverage, layer_table, load_spans


def load_records(directory: str) -> list[dict]:
    """Every run record in ``directory``."""
    records = []
    for path in sorted(Path(directory).glob("*-seed*-*traced.json")):
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    return records


def trace_report(directory: str) -> str:
    """Per-layer self times of each traced workload in ``directory`` (on
    the reference host, like the per-layer metrics), the share of its
    timed operations the spans cover, and the tracing overhead: the
    traced run's ``op_ms.p50`` against the median of the directory's
    untraced runs of that workload (a single untraced run would carry
    the machine's drift between the two)."""
    records = load_records(directory)
    lines = []
    for path in sorted(Path(directory).glob("*.spans.json.gz")):
        data = load_spans(str(path))
        spans = data["spans"]
        timed = [s for s in spans if s[PHASE] == "timed"]
        ops, op_seconds, covered = coverage(timed)
        slowdown = data["slowdown"]
        lines.append(f"{data['workload']} (seed {data['seed']}): {ops} timed operations, "
                     f"{op_seconds:.2f} s wall at slowdown {slowdown:.3f}; "
                     f"spans cover {100 * covered:.1f}% of it")
        untraced = [r["end_to_end"]["op_ms.p50"]["value"] for r in records
                    if r["workload"] == data["workload"] and not r["trace"]]
        traced = [r["end_to_end"]["op_ms.p50"]["value"] for r in records
                  if r["workload"] == data["workload"] and r["seed"] == data["seed"]
                  and r["trace"]]
        if untraced and traced:
            a, b = statistics.median(untraced), traced[0]
            lines.append(f"  trace_overhead: op_ms.p50 {a:.3f} ms (median of "
                         f"{len(untraced)} untraced) -> {b:.3f} ms traced "
                         f"({100 * (b / a - 1):+.1f}%)")
        table = layer_table(timed)
        lines.append(f"  {'layer':28s} {'calls':>8s} {'self ms/op':>11s} {'share':>7s}")
        for name, (calls, total) in sorted(table.items(), key=lambda kv: -kv[1][1]):
            per_op = 1e3 * total / slowdown / max(ops, 1)
            lines.append(f"  {name:28s} {calls:8d} {per_op:11.4f} "
                         f"{100 * total / op_seconds:6.1f}%")
        if ops:
            lines.append(f"  {'(outside every layer)':28s} {'':8s} "
                         f"{1e3 * (1 - covered) * op_seconds / slowdown / ops:11.4f} "
                         f"{100 * (1 - covered):6.1f}%")
        lines.append("")
    return "\n".join(lines) if lines else f"no span files in {directory}"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """better / within bound / worse / unresolved, for B against A."""
    sign = 1.0 if better == "lower" else -1.0
    q1, med_a, q3 = _quartiles(a)
    med_b = statistics.median(b)
    scale = abs(med_a) or 1.0
    spread = (q3 - q1) / scale
    worse_by = sign * (med_b - med_a) / scale
    wins = sum(sign * (y - x) < 0 for x in a for y in b) / (len(a) * len(b))
    if spread > bound:
        return "better" if wins == 1.0 else "unresolved"
    if -worse_by > spread and wins >= 0.9:
        return "better"
    return "worse" if worse_by > bound else "within bound"


def compare_report(dir_a: str, dir_b: str, spec: dict) -> str:
    """One row per (metric, workload) over the untraced runs of A and B."""
    def runs(directory: str) -> dict[tuple[str, str], list[float]]:
        out: dict[tuple[str, str], list[float]] = {}
        for r in load_records(directory):
            if r["trace"]:
                continue
            for name, m in r["end_to_end"].items():
                out.setdefault((name, r["workload"]), []).append(m["value"])
        return out

    a, b = runs(dir_a), runs(dir_b)
    lines = [f"{'metric':14s} {'workload':14s} {'A median [q1, q3]':>30s} "
             f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict"]
    for m in spec["end_to_end"]:
        for w in spec["workloads"]:
            key = (m["name"], w["name"])
            if key not in a or key not in b:
                continue
            qa, qb = _quartiles(a[key]), _quartiles(b[key])
            change = (qb[1] - qa[1]) / (abs(qa[1]) or 1.0)
            lines.append(
                f"{m['name']:14s} {w['name']:14s} {_cell(qa):>30s} {_cell(qb):>30s} "
                f"{100 * change:+7.1f}%  {verdict(a[key], b[key], m['better'], m['bound'])}")
            lines.append(f"{'':29s} A runs: {', '.join(f'{v:.5g}' for v in a[key])}")
            lines.append(f"{'':29s} B runs: {', '.join(f'{v:.5g}' for v in b[key])}")
    return "\n".join(lines)
