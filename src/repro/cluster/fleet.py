"""Spawn and manage a local worker fleet (one process per node).

:class:`LocalFleet` is the loopback fleet behind the load harness and the
CI smoke job; clients reach it through its fleet file
(:attr:`LocalFleet.fleet_file`), routing on the client.  It solves the
two-phase startup problem: each worker must bind before its address is
known (ephemeral ports), but peer fill needs the *full* membership.  So:

1. every worker starts with ``--tcp 127.0.0.1:0 --port-file <pf>`` and
   publishes its bound port by writing the file atomically;
2. the spawner collects all port files and writes the shared *fleet
   file* (``{"nodes": {name: "host:port"}}``);
3. each worker's :class:`~repro.cluster.Membership` picks the
   fleet file up on mtime change — no restart, no ordering dependency.

Workers are real ``jpg serve`` processes (own interpreter, own
scheduler, own disk cache directory), so a three-node loopback fleet
exercises exactly the code a distributed deployment runs.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from ..errors import ServeError

#: How the workers re-enter the CLI: ``python -c`` (the package has no
#: ``__main__``), with ``src`` prepended to the child's ``PYTHONPATH``.
_BOOT = "import sys; from repro.core.cli import main; sys.exit(main(sys.argv[1:]))"


def _child_env() -> dict[str, str]:
    """The spawn environment: inherit, but make ``repro`` importable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


class LocalFleet:
    """N ``jpg serve`` worker processes on loopback, wired for peer fill.

    Use as a context manager; :meth:`stop` SIGTERMs every worker (which
    drains in-flight requests — see
    :meth:`~repro.serve.protocol.JpgServer.request_shutdown`) and
    escalates to SIGKILL only for stragglers.  :meth:`kill` is the chaos
    hook: immediate SIGKILL of one node, no drain, for testing client
    failover to the next owner.
    """

    def __init__(
        self,
        part: str,
        base_path: str,
        *,
        nodes: int = 3,
        workdir: str | None = None,
        host: str = "127.0.0.1",
        start_timeout: float = 60.0,
        extra_args: list[str] | None = None,
    ):
        """``base_path`` is the base bitstream file every worker serves
        against.  ``workdir`` holds port files, the fleet file, and one
        cache directory per node (a temp dir when omitted, removed on
        :meth:`stop`)."""
        if nodes < 1:
            raise ServeError(f"a fleet needs at least 1 node, got {nodes}")
        self.part = part
        self.base_path = base_path
        self.host = host
        self.start_timeout = start_timeout
        self.extra_args = list(extra_args or [])
        self._own_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="jpg-fleet-")
        os.makedirs(self.workdir, exist_ok=True)
        self.fleet_file = os.path.join(self.workdir, "fleet.json")
        self.names = [f"n{i}" for i in range(nodes)]
        self.procs: dict[str, subprocess.Popen] = {}
        self.addresses: dict[str, str] = {}

    def __enter__(self) -> "LocalFleet":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> dict[str, str]:
        """Spawn every worker, collect bound ports, publish the fleet
        file; returns the ``name -> address`` membership map."""
        for name in self.names:
            self._spawn(name)
        deadline = time.monotonic() + self.start_timeout
        for name in self.names:
            port = self._await_port(name, deadline)
            self.addresses[name] = f"{self.host}:{port}"
        payload = json.dumps({"nodes": self.addresses}, indent=2)
        tmp = self.fleet_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(payload)
        os.replace(tmp, self.fleet_file)
        return dict(self.addresses)

    def _spawn(self, name: str) -> None:
        cache_dir = os.path.join(self.workdir, f"cache-{name}")
        argv = [
            sys.executable, "-c", _BOOT,
            "serve", "-p", self.part, "--base", self.base_path,
            "--tcp", f"{self.host}:0",
            "--port-file", self._port_file(name),
            "--peers-file", self.fleet_file,
            "--node-id", name,
            "--cache-dir", cache_dir,
            *self.extra_args,
        ]
        self.procs[name] = subprocess.Popen(
            argv, env=_child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def _port_file(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.port")

    def _await_port(self, name: str, deadline: float) -> int:
        path = self._port_file(name)
        while time.monotonic() < deadline:
            proc = self.procs[name]
            if proc.poll() is not None:
                raise ServeError(
                    f"fleet worker {name} exited with {proc.returncode} "
                    "before publishing its port"
                )
            try:
                with open(path, encoding="utf-8") as f:
                    text = f.read().strip()
                if text:
                    return int(text)
            except (OSError, ValueError):
                pass
            time.sleep(0.05)
        raise ServeError(f"fleet worker {name} did not publish a port in time")

    def kill(self, name: str) -> None:
        """Chaos hook: SIGKILL one worker immediately (no drain)."""
        proc = self.procs.get(name)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    def stop(self, *, timeout: float = 10.0) -> None:
        """Drain-stop the fleet: SIGTERM all, wait, SIGKILL stragglers;
        then remove the temp workdir when this fleet created it."""
        for proc in self.procs.values():
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for proc in self.procs.values():
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(0.1, remaining))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()
        if self._own_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
