"""CLI tests (run in-process through main())."""

import pytest

from repro.bitstream.assembler import full_stream
from repro.bitstream.frames import FrameMemory
from repro.core.cli import main
from repro.devices import get_device
from repro.utils import si_bytes
from repro.xdl import save_xdl


@pytest.fixture()
def artifacts(tmp_path, demo_project):
    base_bit = tmp_path / "base.bit"
    demo_project.base_bitfile.save(str(base_bit))
    base_ncd = tmp_path / "base.ncd"
    demo_project.base_flow.design.save(str(base_ncd))
    mv = demo_project.versions[("r1", "down")]
    xdl = tmp_path / "down.xdl"
    xdl.write_text(mv.xdl)
    ucf = tmp_path / "down.ucf"
    ucf.write_text(mv.ucf)
    return {
        "base_bit": str(base_bit),
        "base_ncd": str(base_ncd),
        "xdl": str(xdl),
        "ucf": str(ucf),
        "tmp": tmp_path,
    }


class TestInfo:
    def test_info(self, capsys):
        assert main(["info", "XCV300"]) == 0
        out = capsys.readouterr().out
        assert "32 x 48" in out and "frames" in out

    def test_info_full_size_is_the_assembled_stream(self, capsys):
        assert main(["info", "XCV100"]) == 0
        out = capsys.readouterr().out
        size = len(full_stream(FrameMemory(get_device("XCV100"))))
        assert si_bytes(size) in out and "approx" not in out

    def test_unknown_part(self, capsys):
        # not an argparse choices error anymore: any registered spec is
        # accepted, unknown names map to UnknownPartError -> exit 2
        assert main(["info", "XCV9000"]) == 2
        err = capsys.readouterr().err
        assert "unknown part" in err and "XCV50" in err

    def test_info_family_variant(self, capsys):
        assert main(["info", "XCVT24"]) == 0
        out = capsys.readouterr().out
        assert "frames" in out


class TestGenerate:
    def test_generate_from_xdl_ucf(self, artifacts, capsys):
        out = str(artifacts["tmp"] / "partial.bit")
        rc = main([
            "generate", "-p", "XCV50",
            "--base", artifacts["base_bit"],
            "--base-ncd", artifacts["base_ncd"],
            "--xdl", artifacts["xdl"],
            "--ucf", artifacts["ucf"],
            "-o", out,
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "wrote" in text and "%" in text
        from repro.bitstream.bitfile import BitFile

        assert BitFile.load(out).size > 1000

    def test_generate_explicit_region(self, artifacts, demo_project, capsys):
        out = str(artifacts["tmp"] / "partial2.bit")
        region = demo_project.regions["r1"].to_ucf()
        rc = main([
            "generate", "-p", "XCV50",
            "--base", artifacts["base_bit"],
            "--xdl", artifacts["xdl"],
            "--region", region,
            "-o", out,
        ])
        assert rc == 0

    def test_generate_frame_granularity(self, artifacts, capsys):
        out = str(artifacts["tmp"] / "p3.bit")
        rc = main([
            "generate", "-p", "XCV50",
            "--base", artifacts["base_bit"],
            "--xdl", artifacts["xdl"],
            "--ucf", artifacts["ucf"],
            "--granularity", "frame",
            "-o", out,
        ])
        assert rc == 0

    def test_missing_region_is_error(self, artifacts, capsys):
        rc = main([
            "generate", "-p", "XCV50",
            "--base", artifacts["base_bit"],
            "--xdl", artifacts["xdl"],
            "-o", str(artifacts["tmp"] / "x.bit"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestMergeInspect:
    def test_merge_then_inspect(self, artifacts, capsys):
        partial = str(artifacts["tmp"] / "p.bit")
        main([
            "generate", "-p", "XCV50",
            "--base", artifacts["base_bit"],
            "--xdl", artifacts["xdl"],
            "--ucf", artifacts["ucf"],
            "-o", partial,
        ])
        merged = str(artifacts["tmp"] / "merged.bit")
        assert main(["merge", "--base", artifacts["base_bit"],
                     "--partial", partial, "-o", merged]) == 0
        capsys.readouterr()
        assert main(["inspect", merged]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert main(["inspect", partial]) == 0
        out = capsys.readouterr().out
        assert "partial" in out

    def test_merge_overwrite(self, artifacts, capsys):
        partial = str(artifacts["tmp"] / "p.bit")
        main([
            "generate", "-p", "XCV50",
            "--base", artifacts["base_bit"],
            "--xdl", artifacts["xdl"],
            "--ucf", artifacts["ucf"],
            "-o", partial,
        ])
        assert main(["merge", "--base", artifacts["base_bit"],
                     "--partial", partial, "--overwrite"]) == 0
        assert "overwrote" in capsys.readouterr().out


class TestDiff:
    def test_diff_identical(self, artifacts, capsys):
        assert main(["diff", artifacts["base_bit"], artifacts["base_bit"]]) == 0
        assert "0 of" in capsys.readouterr().out

    def test_diff_after_merge(self, artifacts, capsys):
        partial = str(artifacts["tmp"] / "p.bit")
        main([
            "generate", "-p", "XCV50",
            "--base", artifacts["base_bit"],
            "--xdl", artifacts["xdl"],
            "--ucf", artifacts["ucf"],
            "-o", partial,
        ])
        merged = str(artifacts["tmp"] / "m.bit")
        main(["merge", "--base", artifacts["base_bit"], "--partial", partial,
              "-o", merged])
        capsys.readouterr()
        assert main(["diff", artifacts["base_bit"], merged]) == 0
        out = capsys.readouterr().out
        assert "frames differ" in out
        assert "CLB columns touched" in out


class TestFlowCommand:
    VERILOG = """
    module blink (input clk, output reg [3:0] q);
        always @(posedge clk) q <= q + 1;
    endmodule
    """

    def test_verilog_to_bitstream(self, tmp_path, capsys):
        src = tmp_path / "blink.v"
        src.write_text(self.VERILOG)
        out = str(tmp_path / "blink.bit")
        ncd = str(tmp_path / "blink.ncd")
        xdl = str(tmp_path / "blink.xdl")
        rc = main(["flow", str(src), "-p", "XCV50", "-o", out,
                   "--ncd", ncd, "--xdl", xdl])
        assert rc == 0
        text = capsys.readouterr().out
        assert "MHz" in text and "wrote" in text
        # the artifacts are loadable and consistent
        from repro.bitstream.bitfile import BitFile
        from repro.flow.ncd import NcdDesign
        from repro.xdl import load_xdl

        assert BitFile.load(out).size > 10_000
        assert NcdDesign.load(ncd).routed()
        load_xdl(xdl)

    def test_param_override(self, tmp_path, capsys):
        src = tmp_path / "p.v"
        src.write_text("""
        module wide #(parameter W = 2) (input clk, output reg [W-1:0] q);
            always @(posedge clk) q <= q + 1;
        endmodule
        """)
        rc = main(["flow", str(src), "-p", "XCV50",
                   "-o", str(tmp_path / "w.bit"), "--param", "W=6"])
        assert rc == 0

    def test_bad_param_spec(self, tmp_path, capsys):
        src = tmp_path / "p.v"
        src.write_text(self.VERILOG)
        rc = main(["flow", str(src), "-p", "XCV50",
                   "-o", str(tmp_path / "x.bit"), "--param", "W"])
        assert rc == 2  # malformed --param is a usage error, not a flow failure

    def test_non_integer_param_value(self, tmp_path, capsys):
        src = tmp_path / "p.v"
        src.write_text(self.VERILOG)
        rc = main(["flow", str(src), "-p", "XCV50",
                   "-o", str(tmp_path / "x.bit"), "--param", "W=six"])
        assert rc == 2
        assert "NAME=INT" in capsys.readouterr().err

    def test_verilog_error_reported(self, tmp_path, capsys):
        src = tmp_path / "bad.v"
        src.write_text("module broken (input a, output y); assign y = ; endmodule")
        rc = main(["flow", str(src), "-p", "XCV50", "-o", str(tmp_path / "x.bit")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestFloorplanAndParbit:
    def test_floorplan(self, capsys):
        rc = main(["floorplan", "XCV50", "--region", "mod=CLB_R1C3:CLB_R16C12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "XCV50" in out and "M" in out

    def test_floorplan_bad_region(self, capsys):
        assert main(["floorplan", "XCV50", "--region", "oops"]) == 2

    def test_parbit(self, artifacts, capsys):
        opts = artifacts["tmp"] / "opts.txt"
        opts.write_text("target v50\nblock clb 3 12\n")
        out = str(artifacts["tmp"] / "pb.bit")
        rc = main(["parbit", "--base", artifacts["base_bit"],
                   "--options", str(opts), "-o", out])
        assert rc == 0
        from repro.bitstream.bitfile import BitFile

        assert BitFile.load(out).size > 1000


class TestDeploy:
    @pytest.fixture()
    def deploy_files(self, artifacts):
        partial = str(artifacts["tmp"] / "p.bit")
        main([
            "generate", "-p", "XCV50",
            "--base", artifacts["base_bit"],
            "--xdl", artifacts["xdl"],
            "--ucf", artifacts["ucf"],
            "-o", partial,
        ])
        return {"base": artifacts["base_bit"], "partial": partial}

    def test_clean_deploy(self, deploy_files, capsys):
        rc = main(["deploy", "--base", deploy_files["base"],
                   deploy_files["partial"]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2/2 module(s) deployed and verified" in out  # base + partial
        assert "send#1" in out and "verify" in out

    def test_deploy_under_faults_with_metrics(self, deploy_files, capsys):
        rc = main([
            "deploy", "--base", deploy_files["base"], deploy_files["partial"],
            "--send-errors", "1", "--seu", "2", "--fault-seed", "5",
            "--metrics",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault plan" in out
        assert "scrub#1" in out                      # the SEUs got repaired
        assert "runtime.frames_scrubbed" in out      # --metrics counter table
        assert "1 send retries" in out
        assert "deployed and verified" in out

    def test_deploy_part_mismatch_is_error(self, deploy_files, capsys):
        rc = main(["deploy", "-p", "XCV100", "--base", deploy_files["base"],
                   deploy_files["partial"]])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_deploy_missing_base(self, tmp_path, capsys):
        rc = main(["deploy", "--base", str(tmp_path / "nope.bit")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestBatch:
    @pytest.fixture()
    def manifest(self, tmp_path, demo_project):
        import json

        base_bit = tmp_path / "base.bit"
        demo_project.base_bitfile.save(str(base_bit))
        modules = []
        for (region, version), mv in sorted(demo_project.versions.items()):
            if version == "base":
                continue
            stem = f"{region}_{version}"
            (tmp_path / f"{stem}.xdl").write_text(mv.xdl)
            (tmp_path / f"{stem}.ucf").write_text(mv.ucf)
            modules.append({
                "name": f"{region}/{version}",
                "xdl": f"{stem}.xdl",
                "ucf": f"{stem}.ucf",
                "region": demo_project.regions[region].to_ucf(),
            })
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"modules": modules}))
        return {"path": str(path), "base": str(base_bit), "tmp": tmp_path}

    def test_batch_generates_all(self, manifest, capsys):
        outdir = str(manifest["tmp"] / "out")
        rc = main([
            "batch", "-p", "XCV50",
            "--base", manifest["base"],
            "--manifest", manifest["path"],
            "-o", outdir, "--metrics",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "4/4 partials" in text
        assert "hit rate" in text
        assert "r1/down" in text and "r2/right" in text
        assert "jpg.emit" in text  # --metrics stage table
        from repro.bitstream.bitfile import BitFile

        for stem in ["r1_up", "r1_down", "r2_left", "r2_right"]:
            assert BitFile.load(f"{outdir}/{stem}.bit").size > 1000

    def test_batch_reports_failures(self, manifest, capsys):
        import json

        data = json.loads((manifest["tmp"] / "manifest.json").read_text())
        del data["modules"][0]["region"]
        del data["modules"][0]["ucf"]  # no region at all -> that item fails
        (manifest["tmp"] / "manifest.json").write_text(json.dumps(data))
        rc = main([
            "batch", "-p", "XCV50",
            "--base", manifest["base"],
            "--manifest", manifest["path"],
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "3/4 partials" in captured.out
        assert "error" in captured.err

    def test_batch_missing_manifest(self, manifest, capsys):
        rc = main([
            "batch", "-p", "XCV50",
            "--base", manifest["base"],
            "--manifest", str(manifest["tmp"] / "nope.json"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_batch_unknown_part(self, manifest, capsys):
        rc = main([
            "batch", "-p", "XCV9000",
            "--base", manifest["base"],
            "--manifest", manifest["path"],
        ])
        assert rc == 2
        assert "XCV9000" in capsys.readouterr().err

    def test_batch_pool_size_needs_a_pooled_backend(self, manifest, capsys):
        rc = main([
            "batch", "-p", "XCV50",
            "--base", manifest["base"],
            "--manifest", manifest["path"],
            "--backend", "serial", "--pool-size", "2",
        ])
        assert rc == 2
        assert "pooled backends: warm" in capsys.readouterr().err

    def test_batch_manifest_not_json(self, manifest, capsys):
        (manifest["tmp"] / "manifest.json").write_text("{not json")
        rc = main([
            "batch", "-p", "XCV50",
            "--base", manifest["base"],
            "--manifest", manifest["path"],
        ])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_batch_bad_manifest(self, manifest, capsys):
        (manifest["tmp"] / "manifest.json").write_text('{"modules": []}')
        rc = main([
            "batch", "-p", "XCV50",
            "--base", manifest["base"],
            "--manifest", manifest["path"],
        ])
        assert rc == 2
        assert "manifest" in capsys.readouterr().err


@pytest.mark.serve
class TestServeSubmit:
    """jpg serve / jpg submit over a real unix socket (server in a thread)."""

    @pytest.fixture()
    def server(self, artifacts, tmp_path):
        import asyncio
        import threading
        import time

        from repro.bitstream.bitfile import BitFile
        from repro.serve import GenerationService, JpgServer

        sock = str(tmp_path / "jpg.sock")
        service = GenerationService(
            "XCV50", BitFile.load(artifacts["base_bit"]),
            cache_dir=str(tmp_path / "cache"),
        )
        srv = JpgServer(service, max_queue=8, workers=2)
        thread = threading.Thread(
            target=lambda: asyncio.run(srv.serve_unix(sock)), daemon=True
        )
        thread.start()
        # wait until the server is actually *listening* (socket-file
        # existence alone leaves a bind->listen race window)
        import socket as socketlib
        deadline = time.monotonic() + 30
        while True:
            probe = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            try:
                probe.connect(sock)
                probe.close()
                break
            except OSError:
                probe.close()
                assert time.monotonic() < deadline, "server never listened"
                time.sleep(0.02)
        yield {"sock": sock, "service": service}
        if thread.is_alive():
            main(["submit", "--socket", sock, "--shutdown"])
            thread.join(timeout=30)

    def test_submit_roundtrip_disk_and_stats(self, server, artifacts, capsys):
        out1 = str(artifacts["tmp"] / "s1.bit")
        out2 = str(artifacts["tmp"] / "s2.bit")
        rc = main(["submit", "--socket", server["sock"],
                   "--xdl", artifacts["xdl"], "--ucf", artifacts["ucf"],
                   "-o", out1])
        assert rc == 0
        assert "from generated" in capsys.readouterr().out
        rc = main(["submit", "--socket", server["sock"],
                   "--xdl", artifacts["xdl"], "--ucf", artifacts["ucf"],
                   "-o", out2])
        assert rc == 0
        assert "from disk" in capsys.readouterr().out

        from repro.bitstream.bitfile import BitFile

        served = BitFile.load(out1).config_bytes
        assert served == BitFile.load(out2).config_bytes

        # byte-identical to the single-shot jpg generate path
        direct = str(artifacts["tmp"] / "direct.bit")
        assert main(["generate", "-p", "XCV50",
                     "--base", artifacts["base_bit"],
                     "--xdl", artifacts["xdl"], "--ucf", artifacts["ucf"],
                     "-o", direct]) == 0
        assert served == BitFile.load(direct).config_bytes
        capsys.readouterr()

        assert main(["submit", "--socket", server["sock"], "--stats"]) == 0
        stats = capsys.readouterr().out
        assert "serve.generated" in stats and "disk" in stats

    def test_submit_bad_region_is_usage_error(self, server, artifacts, capsys):
        rc = main(["submit", "--socket", server["sock"],
                   "--xdl", artifacts["xdl"], "--region", "oops"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_submit_generation_failure(self, server, artifacts, capsys):
        # no region anywhere: the engine cannot place the module
        rc = main(["submit", "--socket", server["sock"],
                   "--xdl", artifacts["xdl"]])
        assert rc == 1
        assert "error" in capsys.readouterr().err


@pytest.mark.serve
class TestServeTcpNode:
    """A spawned ``jpg serve --tcp 127.0.0.1:0 --port-file F`` process:
    the way a caller starts a node whose port it does not choose."""

    def test_spawned_node_serves_generated_then_disk(self, artifacts, capsys):
        import os
        import subprocess
        import sys
        import time

        from repro.bitstream.bitfile import BitFile

        tmp = artifacts["tmp"]
        port_file = tmp / "port"
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "serve", "-p", "XCV50",
             "--base", artifacts["base_bit"], "--tcp", "127.0.0.1:0",
             "--port-file", str(port_file), "--cache-dir", str(tmp / "cache")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists():
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "no port file"
                time.sleep(0.02)
            address = f"127.0.0.1:{int(port_file.read_text())}"

            served = []
            for source in ("generated", "disk"):
                out = str(tmp / f"{source}.bit")
                assert main(["submit", "--socket", address,
                             "--xdl", artifacts["xdl"], "--ucf", artifacts["ucf"],
                             "-o", out]) == 0
                assert f"from {source}" in capsys.readouterr().out
                served.append(BitFile.load(out).config_bytes)

            direct = str(tmp / "direct.bit")
            assert main(["generate", "-p", "XCV50",
                         "--base", artifacts["base_bit"],
                         "--xdl", artifacts["xdl"], "--ucf", artifacts["ucf"],
                         "-o", direct]) == 0
            assert served == [BitFile.load(direct).config_bytes] * 2

            assert main(["submit", "--socket", address, "--shutdown"]) == 0
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "drained and stopped" in err.decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestServeSubmitErrors:
    def test_submit_without_server(self, tmp_path, capsys):
        rc = main(["submit", "--socket", str(tmp_path / "absent.sock"),
                   "--xdl", "whatever.xdl"])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_submit_queue_full(self, tmp_path, capsys):
        """A shedding server answers queue-full; the CLI exits 3."""
        import json
        import socket
        import threading

        sock_path = str(tmp_path / "fake.sock")
        srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        srv.bind(sock_path)
        srv.listen(1)

        def shed_one():
            conn, _ = srv.accept()
            f = conn.makefile("rwb")
            req = json.loads(f.readline())
            f.write((json.dumps({
                "id": req["id"], "ok": False, "code": "queue-full",
                "error": "queue full: 8 request(s) pending (max 8)",
            }) + "\n").encode())
            f.flush()
            conn.close()

        thread = threading.Thread(target=shed_one, daemon=True)
        thread.start()
        xdl = tmp_path / "m.xdl"
        xdl.write_text("design d XCV50;\n")
        rc = main(["submit", "--socket", sock_path, "--xdl", str(xdl)])
        thread.join(timeout=10)
        srv.close()
        assert rc == 3
        assert "queue full" in capsys.readouterr().err

    def test_submit_to_a_regular_file_is_unavailable(self, tmp_path, capsys):
        """--socket names one node; a regular file is no server."""
        not_a_socket = tmp_path / "nodes.json"
        not_a_socket.write_text('{"nodes": {}}')
        xdl = tmp_path / "m.xdl"
        xdl.write_text("design d XCV50;\n")
        rc = main(["submit", "--socket", str(not_a_socket), "--xdl", str(xdl)])
        assert rc == 3
        assert f"cannot reach jpg serve at {not_a_socket}" in capsys.readouterr().err

    def test_serve_needs_a_transport(self, tmp_path, capsys):
        base = tmp_path / "b.bit"
        base.write_bytes(b"")
        rc = main(["serve", "-p", "XCV50", "--base", str(base)])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["batch", "serve"])
    def test_backend_process_is_a_usage_error(self, tmp_path, command, capsys):
        """The backend choices come from the registry: a retired name
        exits 2 through argparse."""
        args = [command, "-p", "XCV50", "--base", str(tmp_path / "b.bit"),
                "--backend", "process"]
        if command == "batch":
            args += ["--manifest", str(tmp_path / "m.json")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["batch", "serve"])
    def test_backend_thread_is_a_usage_error(self, tmp_path, command, capsys):
        """The in-process thread pool is gone: serial is the one
        in-process backend."""
        args = [command, "-p", "XCV50", "--base", str(tmp_path / "b.bit"),
                "--backend", "thread"]
        if command == "batch":
            args += ["--manifest", str(tmp_path / "m.json")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_batch_jobs_is_a_usage_error(self, tmp_path, capsys):
        """Batch worker counts size a warm pool through --pool-size only."""
        with pytest.raises(SystemExit) as exc:
            main(["batch", "-p", "XCV50", "--base", str(tmp_path / "b.bit"),
                  "--manifest", str(tmp_path / "m.json"), "-j", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -j 2" in capsys.readouterr().err

    def test_submit_needs_xdl(self, tmp_path, capsys):
        """--stats/--shutdown aside, a submit without --xdl is usage."""
        import json
        import socket
        import threading

        sock_path = str(tmp_path / "fake2.sock")
        srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        srv.bind(sock_path)
        srv.listen(1)
        thread = threading.Thread(
            target=lambda: (srv.accept(), None), daemon=True
        )
        thread.start()
        rc = main(["submit", "--socket", sock_path])
        srv.close()
        assert rc == 2
