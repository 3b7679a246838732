#!/usr/bin/env python3
"""Regenerate every paper-comparison table (the source of EXPERIMENTS.md).

Run:  python benchmarks/report.py [part]     (default XCV100)

Covers the experiment index in DESIGN.md §4: FIG4 (combinations/storage),
SIZE (partial ratio vs region width and across the family), PNR (module vs
full-design flow time), DLOAD (download cycles), TOOLS (JPG vs PARBIT vs
JBitsDiff), GRAN (granularity ablation).
"""

from __future__ import annotations

import sys
import time

from repro.baselines.fullflow import enumerate_combinations
from repro.baselines.jbitsdiff import extract_core
from repro.baselines.parbit import ParbitOptions, parbit
from repro.bitstream.assembler import full_stream, partial_stream
from repro.bitstream.frames import FrameMemory
from repro.core import Granularity, Jpg, JpgOptions
from repro.core.partial import clb_column_frames
from repro.devices import get_device, part_names
from repro.flow import clear_flow_cache, run_flow
from repro.hwsim import Board
from repro.jbits import JBits
from repro.utils import format_table, si_bytes
from repro.workloads import build_base_netlist, build_module_netlist, figure4_plan, make_project


def section(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def fig4_report(part: str):
    section(f"FIG4 — 3 regions x (3,3,4) variants on {part} (paper §4.1)")
    t0 = time.perf_counter()
    plans = figure4_plan(part)
    project = make_project("fig4", part, plans, seed=5)
    build_s = time.perf_counter() - t0
    partials = project.generate_all_partials()
    full = project.base_bitfile.size
    combos = enumerate_combinations(plans)

    rows = [
        (f"{r}/{v}", si_bytes(p.size), f"{100 * p.ratio:.1f}%", len(p.columns))
        for (r, v), p in sorted(partials.items())
    ]
    print(format_table(["partial", "size", "of full", "columns"], rows))
    partial_total = sum(p.size for p in partials.values())
    print(f"\ncombinations               : {len(combos)} (paper: 36)")
    print(f"partial bitstreams         : {len(partials)} (paper: 10)")
    print(f"complete bitstream         : {si_bytes(full)}")
    print(f"storage, conventional flow : {si_bytes(len(combos) * full)}")
    print(f"storage, JPG flow          : {si_bytes(full + partial_total)}")
    print(f"storage ratio              : {len(combos) * full / (full + partial_total):.1f}x")
    print(f"mean partial/full ratio    : {sum(p.ratio for p in partials.values()) / len(partials):.2f} (paper: ~1/3)")
    print(f"(project implementation took {build_s:.1f}s: 1 base + 10 module flows)")
    return project, plans


def size_report(part: str):
    section(f"SIZE — partial size vs region width on {part} (paper §2.1)")
    dev = get_device(part)
    fm = FrameMemory(dev)
    full = len(full_stream(fm))
    rows = []
    for frac_name, n_cols in [
        ("1 column", 1),
        ("1/6 width", dev.cols // 6),
        ("1/4 width", dev.cols // 4),
        ("1/3 width", dev.cols // 3),
        ("1/2 width", dev.cols // 2),
        ("full width", dev.cols),
    ]:
        p = len(partial_stream(fm, clb_column_frames(dev, range(n_cols))))
        rows.append((frac_name, n_cols, si_bytes(p), f"{100 * p / full:.1f}%"))
    print(format_table(["region", "columns", "partial size", "of full"], rows))

    print("\nacross the family (1/3-width region):")
    rows = []
    for name in part_names():
        d = get_device(name)
        f = FrameMemory(d)
        full_n = len(full_stream(f))
        p = len(partial_stream(f, clb_column_frames(d, range(d.cols // 3))))
        rows.append((name, f"{d.rows}x{d.cols}", si_bytes(full_n), si_bytes(p),
                     f"{100 * p / full_n:.1f}%"))
    print(format_table(["part", "CLBs", "full", "1/3-width partial", "ratio"], rows))


def pnr_report(part: str, plans):
    section(f"PNR — module vs full-design implementation time on {part} (paper §4.1)")
    base = build_base_netlist("base", plans)
    clear_flow_cache()  # time real place-and-route, not a cache hit
    t_full = run_flow(base, part, seed=5)
    module = build_module_netlist("mod", "r1", plans[0].variants[1])
    t_mod = run_flow(module, part, seed=5)
    rows = [
        ("full base design (3 modules)", len(t_full.design.slices),
         f"{t_full.total_seconds:.2f}s"),
        ("single module re-implementation", len(t_mod.design.slices),
         f"{t_mod.total_seconds:.2f}s"),
    ]
    print(format_table(["flow", "slices", "map+place+route"], rows))
    print(f"\nmodule flow speedup: {t_full.total_seconds / t_mod.total_seconds:.1f}x "
          f"(paper: 'significantly less')")
    return t_full


def dload_report(part: str, project):
    section(f"DLOAD — reconfiguration time at 50 MHz SelectMAP on {part} (paper §2.1)")
    board = Board(part)
    full_rep = board.download(project.base_bitfile)
    rows = [("complete bitstream", si_bytes(full_rep.bytes), full_rep.cycles,
             f"{full_rep.seconds * 1e3:.3f} ms")]
    for (r, v), p in sorted(project.generate_all_partials().items())[:4]:
        rep = board.port.download(p.data)
        rows.append((f"partial {r}/{v}", si_bytes(rep.bytes), rep.cycles,
                     f"{rep.seconds * 1e3:.3f} ms"))
    print(format_table(["download", "size", "CCLK cycles", "time"], rows))


def tools_report(part: str, project):
    section(f"TOOLS — JPG vs PARBIT vs JBitsDiff on {part} (paper §2.3)")
    mv = project.versions[("r1", "down")]
    region = project.regions["r1"]
    dev = get_device(part)

    t0 = time.perf_counter()
    jpg = Jpg(part, project.base_bitfile, base_design=project.base_flow.design)
    jpg_result = jpg.make_partial(mv.design, region=region)
    t_jpg = time.perf_counter() - t0
    target_full = jpg.full_bitstream()

    t0 = time.perf_counter()
    pb = parbit(target_full, ParbitOptions(clb_blocks=[(region.cmin, region.cmax)]),
                device=dev)
    t_parbit = time.perf_counter() - t0

    base_frames = JBits(part)
    base_frames.read(project.base_bitfile)
    t0 = time.perf_counter()
    core = extract_core("swap", base_frames.frames, jpg.frames)
    t_diff = time.perf_counter() - t0

    rows = [
        ("JPG", f"{t_jpg * 1e3:.0f} ms", si_bytes(jpg_result.size),
         "XDL + UCF from the CAD flow", "clears region, checks interface"),
        ("PARBIT", f"{t_parbit * 1e3:.0f} ms", si_bytes(pb.size),
         "options file + full TARGET bitstream", "copies frames verbatim"),
        ("JBitsDiff", f"{t_diff * 1e3:.0f} ms", f"{len(core)} bit edits",
         "two full bitstreams", "relocatable core, not a bitstream"),
    ]
    print(format_table(["tool", "time", "output", "inputs", "semantics"], rows))
    print("\n(PARBIT/JBitsDiff additionally require a full implementation run to")
    print(" produce their input bitstream — the cost JPG's flow integration avoids.)")


def gran_report(part: str, project):
    section(f"GRAN — granularity ablation on {part} (DESIGN.md decision 1)")
    mv = project.versions[("r1", "down")]
    region = project.regions["r1"]
    rows = []
    for gran in (Granularity.COLUMN, Granularity.FRAME):
        jpg = Jpg(part, project.base_bitfile, base_design=project.base_flow.design)
        res = jpg.make_partial(mv.design, region=region,
                               options=JpgOptions(granularity=gran))
        valid = "any prior state" if gran is Granularity.COLUMN else "base state only"
        rows.append((gran.value, len(res.frames), si_bytes(res.size),
                     f"{100 * res.ratio:.1f}%", valid))
    print(format_table(["granularity", "frames", "size", "of full", "valid against"], rows))


def main() -> None:
    part = sys.argv[1] if len(sys.argv) > 1 else "XCV100"
    print(f"JPG reproduction report — device {part}")
    project, plans = fig4_report(part)
    size_report(part)
    pnr_report(part, plans)
    dload_report(part, project)
    tools_report(part, project)
    gran_report(part, project)
    print("\ndone.")


if __name__ == "__main__":
    main()
