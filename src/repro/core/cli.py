"""Command-line front-end: the JPG tool as a program.

Subcommands mirror the paper's tool usage (§3.2.1) plus inspection
helpers::

    jpg info XCV300                      device/frame geometry
    jpg generate -p XCV100 --base b.bit --xdl m.xdl --ucf m.ucf -o out.bit
    jpg batch -p XCV100 --base b.bit --manifest modules.json -o outdir
    jpg deploy --base b.bit p1.bit p2.bit --seu 3          retry/verify/scrub
    jpg merge --base b.bit --partial p.bit -o merged.bit   (or --overwrite)
    jpg inspect some.bit                 packet-level bitstream summary
    jpg floorplan XCV100 --region r1=CLB_R1C3:CLB_R16C12   ASCII Figure 3
    jpg parbit --base b.bit --options o.txt -o out.bit     the baseline
    jpg serve -p XCV100 --base b.bit --socket /tmp/jpg.sock --cache-dir .jpgcache
    jpg serve -p XCV100 --base b.bit --tcp 0.0.0.0:4100 --cache-dir .jpgcache
    jpg submit --socket /tmp/jpg.sock --xdl m.xdl --ucf m.ucf -o out.bit

``jpg batch`` is the Figure-4 workflow: a JSON manifest lists N module
versions (xdl/ucf/region each) and the engine generates all their partials
against one base with shared frame caching, printing a per-module
timing/size table (see :mod:`repro.batch`).  ``jpg serve`` keeps that
engine resident (see :mod:`repro.serve`): clients ``jpg submit`` requests
over a unix socket or TCP and repeated requests are answered from the
persistent on-disk cache.

Exit codes are distinct so scripts can branch without parsing stderr:

* ``0`` — success;
* ``1`` — the operation ran and failed (generation error, unverified
  deployment, diverging bitstreams);
* ``2`` — usage error: bad arguments, unknown part, unreadable input,
  malformed manifest (argparse's own errors also exit 2);
* ``3`` — the generation service is unavailable or shedding load
  (no socket / connection refused / bounded queue full).
"""

from __future__ import annotations

import argparse
import sys

from .. import utils
from ..bitstream.assembler import full_stream_size
from ..bitstream.bitfile import BitFile
from ..bitstream.reader import parse_bitstream
from ..devices import get_device, part_names
from ..errors import (
    BitfileError,
    QueueFullError,
    ReproError,
    ServiceUnavailableError,
    UnknownPartError,
    UsageError,
)
from ..flow.floorplan import RegionRect
from .jpg import Jpg, JpgOptions
from .partial import Granularity

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_UNAVAILABLE = 3


def _load_bitfile(path: str) -> BitFile:
    """Load a .bit argument; corrupt files are usage errors (exit 2).

    Missing/unreadable paths already exit 2 through the ``OSError``
    handler in :func:`main`; this maps a file that exists but is not a
    valid .bit (bad magic, truncated header) onto the same contract so a
    bad input never reads as an operation failure.
    """
    try:
        return BitFile.load(path)
    except BitfileError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_region(text: str, what: str) -> RegionRect:
    """Parse a SITE:SITE region argument; malformed values exit 2."""
    try:
        return RegionRect.from_ucf(text)
    except ReproError as exc:
        raise UsageError(f"{what} {text!r}: {exc}") from None


def _cmd_info(args) -> int:
    dev = get_device(args.part)
    g = dev.geometry
    rows = [
        ("part", dev.name),
        ("CLB array", f"{dev.rows} x {dev.cols}"),
        ("slices", dev.part.slices),
        ("4-input LUTs", dev.part.lut4s),
        ("block RAMs", dev.part.bram_blocks),
        ("IOB sites", len(g.iob_sites)),
        ("config columns", len(g.columns)),
        ("frames", g.total_frames),
        ("frame length", f"{g.frame_words} words ({g.frame_bits} payload bits)"),
        ("full bitstream", utils.si_bytes(full_stream_size(dev))),
        ("IDCODE", f"0x{dev.part.idcode:08x}"),
    ]
    print(utils.format_table(["property", "value"], rows))
    return 0


def _cmd_generate(args) -> int:
    from ..ucf.parser import load_ucf
    from ..xdl.parser import load_xdl

    base = _load_bitfile(args.base)
    base_design = None
    if args.base_ncd:
        from ..flow.ncd import NcdDesign

        base_design = NcdDesign.load(args.base_ncd)
    jpg = Jpg(args.part, base, base_design=base_design)
    module = load_xdl(args.xdl)
    ucf = load_ucf(args.ucf) if args.ucf else None
    region = _parse_region(args.region, "--region") if args.region else None
    options = JpgOptions(
        granularity=Granularity(args.granularity),
        check_interface=base_design is not None,
        check_region=not args.no_checks,
    )
    result = jpg.make_partial(module, region=region, ucf=ucf, options=options)

    from .floorview import render_column_footprint

    print(render_column_footprint(get_device(args.part), result.columns, len(result.frames)))
    result.save(args.output, args.part)
    print(
        f"wrote {args.output}: {utils.si_bytes(result.size)} "
        f"({100 * result.ratio:.1f}% of the complete bitstream)"
    )
    if args.write_base:
        BitFile(
            design_name=base.design_name,
            part_name=base.part_name,
            config_bytes=jpg.full_bitstream(),
        ).save(args.base)
        print(f"overwrote {args.base} with the merged configuration (option 2)")
    return 0


def _cmd_batch(args) -> int:
    import json
    import os

    from ..batch import BatchItem, BatchJpg

    with open(args.manifest) as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{args.manifest}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise UsageError(f"{args.manifest}: manifest must be a JSON object")
    modules = manifest.get("modules")
    if not isinstance(modules, list) or not modules:
        raise UsageError(f"{args.manifest}: manifest needs a non-empty 'modules' list")
    root = os.path.dirname(os.path.abspath(args.manifest))

    base = _load_bitfile(args.base)
    base_design = None
    if args.base_ncd:
        from ..flow.ncd import NcdDesign

        base_design = NcdDesign.load(args.base_ncd)

    items = []
    for i, entry in enumerate(modules):
        if not isinstance(entry, dict) or "xdl" not in entry:
            raise UsageError(f"{args.manifest}: modules[{i}] needs at least an 'xdl' path")
        with open(os.path.join(root, entry["xdl"])) as f:
            xdl = f.read()
        ucf = None
        if entry.get("ucf"):
            with open(os.path.join(root, entry["ucf"])) as f:
                ucf = f.read()
        region = (_parse_region(entry["region"], f"modules[{i}].region")
                  if entry.get("region") else None)
        name = entry.get("name") or os.path.splitext(os.path.basename(entry["xdl"]))[0]
        options = JpgOptions(
            granularity=Granularity(args.granularity),
            check_region=not args.no_checks,
            check_interface=base_design is not None,
        )
        items.append(BatchItem(name, xdl, region=region, ucf=ucf, options=options))

    engine = BatchJpg(args.part, base, base_design=base_design)
    plan = engine.plan(items)
    print(
        f"batch: {plan.total} module(s) in {len(plan.groups)} region group(s), "
        f"{plan.expected_cache_hits} shared clear(s) expected"
    )
    report = engine.run(items)
    print(report.table())
    print(report.summary())
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        for name, partial in report.partials().items():
            path = os.path.join(args.output_dir, name.replace("/", "_") + ".bit")
            partial.save(path, args.part)
        print(f"wrote {len(report.partials())} partial(s) to {args.output_dir}")
    if args.metrics:
        print(utils.format_table(
            ["stage", "count", "total", "mean"], report.metrics.stage_table()
        ))
    for failure in report.failures:
        print(f"error: {failure.item.name}: {failure.error}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_deploy(args) -> int:
    from ..devices import normalize_part_name
    from ..hwsim import Board
    from ..jbits import SimulatedXhwif
    from ..runtime import Deployer, DeployItem, FaultPlan, RetryPolicy, ScrubPolicy

    base = _load_bitfile(args.base)
    part = args.part or normalize_part_name(base.part_name)
    plan = None
    fault_args = (args.send_errors, args.readback_errors, args.corrupt,
                  args.truncate, args.seu)
    if any(fault_args):
        plan = FaultPlan(
            args.fault_seed,
            send_errors=args.send_errors,
            send_error_every=args.fault_every,
            readback_errors=args.readback_errors,
            readback_error_every=args.fault_every,
            corruptions=args.corrupt,
            corrupt_every=args.fault_every,
            truncations=args.truncate,
            truncate_every=args.fault_every,
            seu_flips=args.seu,
            seu_per_window=args.seu_per_window,
        )
        print(
            f"fault plan: seed={args.fault_seed} send_errors={args.send_errors} "
            f"readback_errors={args.readback_errors} corrupt={args.corrupt} "
            f"truncate={args.truncate} seu={args.seu}"
        )
    board = Board(part, fault_plan=plan)
    sanctioned = ([_parse_region(s, "--sanction") for s in args.sanction]
                  if args.sanction else None)
    deployer = Deployer(
        SimulatedXhwif(board),
        base,
        retry=RetryPolicy(max_attempts=args.retries),
        scrub=ScrubPolicy(max_rounds=args.max_scrubs),
        gate=True if (args.lint or sanctioned is not None) else None,
        sanctioned=sanctioned,
    )
    items = []
    for path in args.partials:
        import os

        bf = _load_bitfile(path)
        items.append(DeployItem(os.path.splitext(os.path.basename(path))[0],
                                bf.config_bytes))
    report = deployer.run(items)
    print(report.table())
    print(report.summary())
    if args.metrics:
        print(utils.format_table(
            ["stage", "count", "total", "mean"], report.metrics.stage_table()
        ))
        counters = [(k, v) for k, v in sorted(report.metrics.counters.items())
                    if k.startswith("runtime.")]
        print(utils.format_table(["counter", "value"], counters))
    for failure in report.failures:
        print(f"error: {failure.item.name}: not verified", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_merge(args) -> int:
    from .merge import merge_partial_into_full, overwrite_base_bitfile

    if args.overwrite:
        out = overwrite_base_bitfile(args.base, _load_bitfile(args.partial).config_bytes)
        print(f"overwrote {args.base} ({utils.si_bytes(out.size)})")
        return 0
    base = _load_bitfile(args.base)
    partial = _load_bitfile(args.partial)
    from ..devices import normalize_part_name

    merged = merge_partial_into_full(
        normalize_part_name(base.part_name), base.config_bytes, partial.config_bytes
    )
    BitFile(base.design_name, base.part_name, config_bytes=merged).save(args.output)
    print(f"wrote {args.output} ({utils.si_bytes(len(merged))})")
    return 0


def _cmd_inspect(args) -> int:
    bf = _load_bitfile(args.bitfile)
    print(f"design : {bf.design_name}")
    print(f"part   : {bf.part_name}")
    print(f"date   : {bf.date} {bf.time}")
    print(f"size   : {utils.si_bytes(bf.size)}")
    dev = get_device(bf.part_name)
    fm, stats = parse_bitstream(dev, bf.config_bytes)
    kind = "complete" if stats.frames_written == dev.geometry.total_frames else "partial"
    print(f"kind   : {kind} ({stats.frames_written} of {dev.geometry.total_frames} frames)")
    print(f"packets: {stats.packets}, CRC checks passed: {stats.crc_checks_passed}, "
          f"startup: {'yes' if stats.started else 'no'}")
    if stats.writes:
        runs = ", ".join(f"{s}+{n}" for s, n in stats.writes[:8])
        print(f"writes : {runs}{' ...' if len(stats.writes) > 8 else ''}")
    return 0


def _cmd_relocate(args) -> int:
    import os

    from ..analyze import decode_stream, prove_relocatable, relocate
    from ..devices import normalize_part_name

    bf = _load_bitfile(args.bitfile)
    part = args.part or normalize_part_name(bf.part_name)
    device = get_device(part)
    subject = os.path.splitext(os.path.basename(args.bitfile))[0]
    model = decode_stream(device, bf.config_bytes, subject=subject)
    proof = prove_relocatable(device, model)
    if not proof.relocatable:
        for reason in proof.reasons:
            print(f"R001 {subject}: {reason}", file=sys.stderr)
        print(f"error: {subject} is not relocatable", file=sys.stderr)
        return EXIT_FAILURE
    out = relocate(device, bf.config_bytes, args.to_column - 1,
                   subject=subject, model=model, proof=proof)
    BitFile(
        design_name=bf.design_name,
        part_name=bf.part_name,
        config_bytes=out,
    ).save(args.output)
    first, last = proof.span or (0, 0)
    width = last - first + 1
    target = args.to_column
    print(
        f"relocated columns {first + 1}..{last + 1} -> "
        f"{target}..{target + width - 1}; wrote {args.output} "
        f"({utils.si_bytes(len(out))})"
    )
    return EXIT_OK


def _cmd_floorplan(args) -> int:
    from .floorview import render_floorplan

    dev = get_device(args.part)
    regions = {}
    for spec in args.region or []:
        name, _, rng = spec.partition("=")
        if not rng:
            raise UsageError(f"--region wants NAME=SITE:SITE, got {spec!r}")
        regions[name] = _parse_region(rng, "--region")
    print(render_floorplan(dev, regions))
    return 0


def _cmd_flow(args) -> int:
    from ..bitstream.bitgen import bitgen
    from ..flow.driver import run_flow
    from ..netlist.verilog import elaborate
    from ..ucf.parser import load_ucf

    with open(args.verilog) as f:
        src = f.read()
    params = {}
    for spec in args.param or []:
        name, _, value = spec.partition("=")
        if not value:
            raise UsageError(f"--param wants NAME=INT, got {spec!r}")
        try:
            params[name] = int(value, 0)
        except ValueError:
            raise UsageError(f"--param wants NAME=INT, got {spec!r}") from None
    em = elaborate(src, params or None, top=args.top)
    constraints = load_ucf(args.ucf).constraints if args.ucf else None
    result = run_flow(em.netlist, args.part, constraints, seed=args.seed)
    print(result.summary())
    if args.ncd:
        result.design.save(args.ncd)
        print(f"wrote {args.ncd}")
    if args.xdl:
        from ..xdl.writer import save_xdl

        save_xdl(result.design, args.xdl)
        print(f"wrote {args.xdl}")
    bitfile = bitgen(result.design)
    bitfile.save(args.output)
    print(f"wrote {args.output} ({utils.si_bytes(bitfile.size)})")
    worst = result.timing.worst(3)
    if worst:
        rows = [(e.endpoint, f"{e.arrival_ns:.2f} ns", e.kind) for e in worst]
        print(utils.format_table(["critical endpoints", "arrival", "kind"], rows))
    return 0


def _cmd_diff(args) -> int:
    a = _load_bitfile(args.first)
    b = _load_bitfile(args.second)
    dev = get_device(a.part_name)
    if get_device(b.part_name) != dev:
        raise UsageError(
            f"cannot diff bitstreams for different parts "
            f"({a.part_name} vs {b.part_name})"
        )
    fa, _ = parse_bitstream(dev, a.config_bytes)
    fb, _ = parse_bitstream(dev, b.config_bytes)
    changed = fa.diff_frames(fb)
    print(f"{len(changed)} of {dev.geometry.total_frames} frames differ")
    if not changed:
        return 0
    from ..bitstream.frames import frame_runs

    rows = []
    for start, count in frame_runs(changed)[: args.limit]:
        major, minor = dev.geometry.frame_address(start)
        col = dev.geometry.column(major)
        where = col.kind.value
        if col.clb_col is not None:
            where += f" col {col.clb_col + 1}"
        rows.append((start, count, f"{major}.{minor}", where))
    print(utils.format_table(["frame", "run", "major.minor", "column"], rows))
    cols = sorted(
        {
            dev.geometry.column(dev.geometry.frame_address(f)[0]).clb_col
            for f in changed
            if dev.geometry.column(dev.geometry.frame_address(f)[0]).clb_col is not None
        }
    )
    if cols:
        print(f"CLB columns touched: {[c + 1 for c in cols]}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import os

    from ..serve import GenerationService, JpgServer, parse_address

    chosen = sum(1 for flag in (args.socket, args.stdio, args.tcp) if flag)
    if chosen != 1:
        raise UsageError(
            "serve needs exactly one of --socket PATH, --tcp HOST:PORT, or --stdio"
        )
    base = _load_bitfile(args.base)
    base_design = None
    if args.base_ncd:
        from ..flow.ncd import NcdDesign

        base_design = NcdDesign.load(args.base_ncd)
    xhwif = None
    if args.deploy_sim:
        from ..hwsim import Board
        from ..jbits import SimulatedXhwif

        xhwif = SimulatedXhwif(Board(args.part))
    service = GenerationService(
        args.part,
        base,
        base_design,
        cache_dir=args.cache_dir,
        max_cache_bytes=args.max_cache_bytes,
        xhwif=xhwif,
        lint=args.lint,
        sanctioned=([_parse_region(s, "--sanction") for s in args.sanction]
                    if args.sanction else None),
    )
    server = JpgServer(service, max_queue=args.max_queue, workers=args.workers)

    async def _serve_tcp() -> None:
        # publish the bound (possibly ephemeral) port once the listener
        # is up, so whoever spawned the node with --tcp HOST:0 can dial it
        host, port = parse_address(args.tcp)
        task = asyncio.ensure_future(
            server.serve_tcp(host, port, handle_signals=True)
        )
        while server.tcp_address is None and not task.done():
            await asyncio.sleep(0.01)
        if server.tcp_address is not None:
            bound = server.tcp_address
            print(f"jpg serve: {args.part}, listening on {bound[0]}:{bound[1]}",
                  file=sys.stderr)
            if args.port_file:
                tmp = args.port_file + ".tmp"
                with open(tmp, "w", encoding="utf-8") as f:
                    f.write(str(bound[1]))
                os.replace(tmp, args.port_file)
        await task

    if args.stdio:
        asyncio.run(server.serve_stdio())
    elif args.tcp:
        asyncio.run(_serve_tcp())
    else:
        print(f"jpg serve: {args.part}, listening on {args.socket}",
              file=sys.stderr)
        asyncio.run(server.serve_unix(args.socket, handle_signals=True))
    print("jpg serve: drained and stopped", file=sys.stderr)
    return EXIT_OK


def _cmd_submit(args) -> int:
    from ..serve import ServeClient, decode_partial

    with ServeClient(args.socket, timeout=args.timeout) as client:
        if args.shutdown:
            client.shutdown()
            print("server drained and shut down")
            return EXIT_OK
        if args.stats:
            import json

            print(json.dumps(client.stats()["stats"], indent=2, sort_keys=True))
            return EXIT_OK
        if not args.xdl:
            raise UsageError("submit needs --xdl (or --stats / --shutdown)")
        with open(args.xdl) as f:
            xdl = f.read()
        ucf = None
        if args.ucf:
            with open(args.ucf) as f:
                ucf = f.read()
        import os

        name = args.name or os.path.splitext(os.path.basename(args.xdl))[0]
        resp = client.submit(
            name, xdl, ucf=ucf, region=args.region, granularity=args.granularity
        )
    if not resp.get("ok"):
        code = resp.get("code")
        if code == "queue-full":
            raise QueueFullError(resp.get("error", "queue full"))
        if code == "bad-request":
            raise UsageError(resp.get("error", "bad request"))
        print(f"error: {name}: {resp.get('error')}", file=sys.stderr)
        return EXIT_FAILURE
    data = decode_partial(resp)
    deployed = ", deployed" if resp.get("deployed") else ""
    print(
        f"{name}: {utils.si_bytes(len(data))} from {resp['source']} "
        f"({100 * len(data) / resp['full_size']:.1f}% of full{deployed})"
    )
    if args.output:
        BitFile(design_name=name, part_name=resp["part"], config_bytes=data).save(
            args.output
        )
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_lint(args) -> int:
    import json
    import os

    from ..analyze import LintTarget, RuleEngine
    from ..devices import normalize_part_name
    from ..flow.ncd import NcdDesign
    from ..ucf.parser import load_ucf
    from ..xdl.parser import load_xdl

    files = args.bitfiles or []
    xdls = args.xdl or []
    ucfs = args.ucf or []
    regions = args.region or []
    if not files and not xdls and not args.readback:
        raise UsageError("lint needs at least one partial .bit or --xdl design")
    n = max(len(files), len(xdls), 1)

    def spread(values: list, what: str) -> list:
        """One value applies to every target; N values pair positionally."""
        if not values:
            return [None] * n
        if len(values) == 1:
            return values * n
        if len(values) != n:
            raise UsageError(
                f"{what} given {len(values)} time(s) for {n} target(s); "
                f"pass it once or once per target"
            )
        return values
    if files and xdls and len(files) != len(xdls) and len(xdls) != 1:
        raise UsageError(
            f"{len(files)} bitstream(s) but {len(xdls)} --xdl design(s); "
            f"pass one --xdl per file or a single shared one"
        )

    xdls = spread(xdls, "--xdl")
    ucfs = spread(ucfs, "--ucf")
    regions = spread(regions, "--region")
    part = args.part
    targets = []
    for i in range(n):
        data = None
        name = None
        if i < len(files):
            bf = _load_bitfile(files[i])
            data = bf.config_bytes
            name = os.path.splitext(os.path.basename(files[i]))[0]
            if part is None:
                part = normalize_part_name(bf.part_name)
        design = None
        if xdls[i]:
            if args.ncd:
                design = NcdDesign.load(xdls[i])
            else:
                design = load_xdl(xdls[i])
            if name is None:
                name = os.path.splitext(os.path.basename(xdls[i]))[0]
        constraints = load_ucf(ucfs[i]).constraints if ucfs[i] else None
        region = _parse_region(regions[i], "--region") if regions[i] else None
        targets.append(LintTarget(
            name or f"target{i}", data=data, region=region,
            design=design, constraints=constraints,
        ))
    golden = _load_bitfile(args.golden).config_bytes if args.golden else None
    sanctioned = ([_parse_region(s, "--sanction") for s in args.sanction]
                  if args.sanction else None)
    engine = RuleEngine(part, conflicts=not args.no_conflicts,
                        golden=golden, sanctioned=sanctioned,
                        relocatable=args.relocatable,
                        independence=args.independent,
                        canonical=args.canonical)
    report = engine.run(targets)
    if args.readback:
        from ..analyze import check_readback_drift
        from ..bitstream.reader import parse_bitstream
        from ..devices import get_device

        if part is None:
            raise UsageError("--readback needs a device: pass -p PART")
        if golden is None:
            raise UsageError("--readback needs --golden BASE.bit to diff against")
        device = get_device(part) if isinstance(part, str) else part
        observed, _stats = parse_bitstream(
            device, _load_bitfile(args.readback).config_bytes
        )
        golden_frames = engine.golden_frames(device)
        assert golden_frames is not None
        subject = os.path.splitext(os.path.basename(args.readback))[0]
        report.targets.append(subject)
        report.extend(check_readback_drift(
            device, golden_frames, observed, sanctioned or [], subject=subject,
        ))
    if args.json:
        print(report.to_json())
    else:
        if report.findings:
            print(report.table())
        print(report.summary())
    return EXIT_OK if report.ok(strict=args.strict) else EXIT_FAILURE


def _cmd_parbit(args) -> int:
    from ..baselines.parbit import parbit

    with open(args.options) as f:
        options = f.read()
    out = parbit(_load_bitfile(args.base), options)
    out.save(args.output)
    print(f"wrote {args.output} ({utils.si_bytes(out.size)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jpg",
        description="JPG: partial bitstream generation for Virtex-class devices "
                    "(IPPS 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="device geometry summary")
    p.add_argument("part", metavar="PART",
                   help="device name: a Virtex part (%s) or any registered "
                        "family variant" % ", ".join(part_names()))
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("generate", help="XDL+UCF -> partial bitstream (the JPG step)")
    p.add_argument("-p", "--part", required=True)
    p.add_argument("--base", required=True, help="base design .bit file")
    p.add_argument("--base-ncd", help="base design .ncd (enables interface checks)")
    p.add_argument("--xdl", required=True, help="module implementation .xdl")
    p.add_argument("--ucf", help="constraints .ucf (provides the region)")
    p.add_argument("--region", help="explicit region SITE:SITE (overrides UCF)")
    p.add_argument("--granularity", choices=["column", "frame"], default="column")
    p.add_argument("--no-checks", action="store_true", help="skip region containment checks")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--write-base", action="store_true",
                   help="also overwrite the base .bit with the merged result (option 2)")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("batch", help="generate many partials from one base "
                                     "(JSON manifest, shared frame cache)")
    p.add_argument("-p", "--part", required=True)
    p.add_argument("--base", required=True, help="base design .bit file")
    p.add_argument("--base-ncd", help="base design .ncd (enables interface checks)")
    p.add_argument("--manifest", required=True,
                   help='JSON manifest: {"modules": [{"name", "xdl", "ucf", "region"}, ...]} '
                        "(paths relative to the manifest file)")
    p.add_argument("-o", "--output-dir", help="save each partial as NAME.bit here")
    p.add_argument("--granularity", choices=["column", "frame"], default="column")
    p.add_argument("--no-checks", action="store_true", help="skip region containment checks")
    p.add_argument("--metrics", action="store_true",
                   help="also print the aggregated per-stage timing table")
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("deploy", help="deploy base + partials onto a simulated "
                                      "board with retries, verify, and scrubbing")
    p.add_argument("partials", nargs="*", help="partial .bit files, deployed in order")
    p.add_argument("-p", "--part", help="device (default: from the base .bit header)")
    p.add_argument("--base", required=True, help="base design .bit file")
    p.add_argument("--retries", type=int, default=4,
                   help="max send/readback attempts per transfer (default 4)")
    p.add_argument("--max-scrubs", type=int, default=3,
                   help="partial-repair rounds before escalating to a full "
                        "reconfiguration (default 3)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the injected-fault plan (deterministic)")
    p.add_argument("--send-errors", type=int, default=0,
                   help="inject N transient send errors")
    p.add_argument("--readback-errors", type=int, default=0,
                   help="inject N transient readback errors")
    p.add_argument("--corrupt", type=int, default=0,
                   help="corrupt N configuration streams in flight")
    p.add_argument("--truncate", type=int, default=0,
                   help="truncate N configuration streams in flight")
    p.add_argument("--seu", type=int, default=0,
                   help="inject N SEU bit-flips between port operations")
    p.add_argument("--seu-per-window", type=int, default=1,
                   help="SEU flips armed per completed download (default 1)")
    p.add_argument("--fault-every", type=int, default=1,
                   help="inject on every K-th opportunity (default 1)")
    p.add_argument("--sanction", action="append", metavar="SITE:SITE",
                   help="sanctioned region of the deployment policy (repeat "
                        "per region); arms the tamper rules against the base "
                        "(T001/T002 pre-deploy, T003 post-deploy readback)")
    p.add_argument("--lint", action="store_true",
                   help="run the static pre-deploy gate; conflicting or "
                        "malformed partials abort before any transfer")
    p.add_argument("--metrics", action="store_true",
                   help="also print runtime.* counters and stage timings")
    p.set_defaults(fn=_cmd_deploy)

    p = sub.add_parser("merge", help="apply a partial onto a complete bitstream")
    p.add_argument("--base", required=True)
    p.add_argument("--partial", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--overwrite", action="store_true", help="overwrite the base file in place")
    p.set_defaults(fn=_cmd_merge)

    p = sub.add_parser("inspect", help="summarize a .bit file at packet level")
    p.add_argument("bitfile")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("floorplan", help="ASCII floorplan view (Figure 3)")
    p.add_argument("part", metavar="PART",
                   help="device name (any registered spec; see jpg info)")
    p.add_argument("--region", action="append", metavar="NAME=SITE:SITE")
    p.set_defaults(fn=_cmd_floorplan)

    p = sub.add_parser("flow", help="Verilog -> map/place/route -> complete .bit")
    p.add_argument("verilog", help="Verilog source file (supported subset)")
    p.add_argument("-p", "--part", required=True)
    p.add_argument("-o", "--output", required=True, help="output .bit path")
    p.add_argument("--ucf", help="constraints file")
    p.add_argument("--top", help="top module (default: uninstantiated root)")
    p.add_argument("--param", action="append", metavar="NAME=INT",
                   help="parameter override (repeatable)")
    p.add_argument("--ncd", help="also save the design database here")
    p.add_argument("--xdl", help="also save the XDL dump here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("diff", help="frame-level diff of two complete .bit files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--limit", type=int, default=20, help="max runs to list")
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("relocate", help="retarget a proven-relocatable partial "
                                        "to another column (R001 + FAR rewrite)")
    p.add_argument("bitfile", help="partial .bit to relocate")
    p.add_argument("--to-column", type=int, required=True, metavar="N",
                   help="1-based fabric column the partial's first written "
                        "column moves to")
    p.add_argument("-p", "--part", help="device (default: from the .bit header)")
    p.add_argument("-o", "--output", required=True,
                   help="write the relocated partial here")
    p.set_defaults(fn=_cmd_relocate)

    p = sub.add_parser("serve", help="long-lived generation service on a unix "
                                     "socket or TCP port (persistent cache, "
                                     "coalescing)")
    p.add_argument("-p", "--part", required=True)
    p.add_argument("--base", required=True, help="base design .bit file")
    p.add_argument("--base-ncd", help="base design .ncd (enables interface checks)")
    p.add_argument("--socket", help="unix socket path to listen on")
    p.add_argument("--tcp", metavar="HOST:PORT",
                   help="TCP address to listen on instead of a unix socket "
                        "(port 0 binds an ephemeral port)")
    p.add_argument("--port-file", metavar="FILE",
                   help="write the bound TCP port here once listening "
                        "(how a caller learns the port of --tcp HOST:0)")
    p.add_argument("--stdio", action="store_true",
                   help="serve one client over stdin/stdout instead of a socket")
    p.add_argument("--cache-dir",
                   help="persistent cache directory (cleared states + partials "
                        "survive restarts; omit for in-memory only)")
    p.add_argument("--max-cache-bytes", type=int,
                   help="LRU-evict the disk cache past this size")
    p.add_argument("--max-queue", type=int, default=32,
                   help="pending-request bound before rejecting (default 32)")
    p.add_argument("--workers", type=int,
                   help="concurrent generations (default: auto — JPG_WORKERS, "
                        "then CPU count)")
    p.add_argument("--deploy-sim", action="store_true",
                   help="deploy each served partial onto a simulated board")
    p.add_argument("--lint", action="store_true",
                   help="gate every served partial through static analysis; "
                        "requests whose streams fail are answered with an error")
    p.add_argument("--sanction", action="append", metavar="SITE:SITE",
                   help="sanctioned region of the service policy (repeat per "
                        "region, implies --lint); served partials must stay "
                        "inside these regions (T001/T002 vs the base)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("submit", help="submit one generation request to a "
                                      "running jpg serve")
    p.add_argument("--socket", required=True,
                   help="server address: unix socket path or HOST:PORT")
    p.add_argument("--xdl", help="module implementation .xdl")
    p.add_argument("--ucf", help="constraints .ucf (provides the region)")
    p.add_argument("--region", help="explicit region SITE:SITE (overrides UCF)")
    p.add_argument("--name", help="module name (default: xdl basename)")
    p.add_argument("--granularity", choices=["column", "frame"], default="column")
    p.add_argument("-o", "--output", help="save the partial as a .bit here")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for the server (default 300)")
    p.add_argument("--stats", action="store_true",
                   help="print the server's stats snapshot instead of submitting")
    p.add_argument("--shutdown", action="store_true",
                   help="drain and stop the server instead of submitting")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("lint", help="static analysis of partials and designs "
                                    "(containment, conflicts, netlist, stream)")
    p.add_argument("bitfiles", nargs="*", help="partial .bit files to analyze")
    p.add_argument("-p", "--part", help="device (default: from the first .bit header)")
    p.add_argument("--xdl", action="append", metavar="FILE",
                   help="module design (.xdl) — once for all targets, or once "
                        "per target (enables netlist rules and containment "
                        "proof of boundary routing)")
    p.add_argument("--ncd", action="store_true",
                   help="treat --xdl arguments as binary .ncd databases")
    p.add_argument("--ucf", action="append", metavar="FILE",
                   help="constraints file — once for all targets, or once per "
                        "target (provides RANGE/LOC for the N* rules)")
    p.add_argument("--region", action="append", metavar="SITE:SITE",
                   help="declared region — once for all targets, or once per "
                        "target (overrides any UCF RANGE)")
    p.add_argument("--golden", metavar="FILE",
                   help="golden base .bit: arms the tamper rules (T002 routing "
                        "edits vs this base; T003 with --readback)")
    p.add_argument("--sanction", action="append", metavar="SITE:SITE",
                   help="sanctioned region of the deployment policy (repeat "
                        "per region); arms T001 unsanctioned-write detection")
    p.add_argument("--readback", metavar="FILE",
                   help="readback .bit to diff against --golden for "
                        "out-of-policy drift (T003)")
    p.add_argument("--json", action="store_true",
                   help="emit the findings as JSON instead of a table")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on warnings too, not just errors")
    p.add_argument("--no-conflicts", action="store_true",
                   help="skip cross-partial conflict detection")
    p.add_argument("--relocatable", action="store_true",
                   help="require every target to prove column-shift "
                        "invariance (R001)")
    p.add_argument("--independent", action="store_true",
                   help="require every pair of targets to prove a commuting "
                        "effect (R002)")
    p.add_argument("--canonical", action="store_true",
                   help="flag streams that differ from their canonical "
                        "re-assembly (R003)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("parbit", help="PARBIT baseline: extract a region from a full .bit")
    p.add_argument("--base", required=True)
    p.add_argument("--options", required=True, help="PARBIT options file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_parbit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "merge" and not args.overwrite and not args.output:
        parser.error("merge needs -o/--output or --overwrite")
    try:
        return args.fn(args)
    except (QueueFullError, ServiceUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except (UsageError, UnknownPartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        # unreadable/missing inputs and unwritable outputs are invocation
        # problems, not generation failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
