"""serve-mixed: reads beside writes on one ``jpg serve`` node.

One node runs with its defaults plus ``--tcp`` and ``--cache-dir``.  Load
comes from this process, on this thread, over two connections:

* latency pass (the first four fifths of the run): open loop, Poisson
  arrivals at :data:`RATE_PER_S`, each request timed from when it was
  due, so a stall also charges the requests queued behind it; how late
  the generator ran is reported;
* saturation pass (the last fifth): closed loop, :data:`DEPTH` requests
  in flight per connection, for the highest sustained rate.

The mix is 90% zipf(1.1) repeats over keys served during set-up (disk
reads) and 10% keys never seen before (generation plus a disk write).  A
faster read path moves the median, a faster generate path the tail.

The rate is about a fifth of the node's saturation rate.  At 400/s, two
fifths, queueing turned every swing in the host's speed into a larger
swing in latency (1.3 times as large, in log terms), which scaling by
the measured host speed (pace.py) cannot take out.
"""

from __future__ import annotations

import base64
import ctypes
import itertools
import json
import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.errors import ServeError
from repro.serve import GenerationService, GenRequest, ServeClient, decode_partial

from . import ROOT
from .context import Context, Outcome, quantile
from .oracles import OracleError, behaviour, consistent, digest, same_bytes
from .pace import REFERENCE_S
from .scenarios import Scenario, Source
from .tracer import OP

RATE_PER_S = 200.0
CONNECTIONS = 2
HOT_SALTS = 8                      # hot keys per module version
FRESH_SHARE = 0.10
ZIPF_S = 1.1
LATENCY_SHARE = 0.8                # of the run; the rest is the saturation pass
ORACLE_KEYS = 8
RATE_WINDOW = 500                  # saturation replies per throughput sample
#: Requests in flight per connection in the saturation pass: with one, the
#: rate is the client's round trip, not the node's capacity.  2 x 8 stays
#: under the node's default queue bound of 32.
DEPTH = 8
#: Give up when no reply arrives for this long.
STALL_S = 60.0
_PR_SET_PDEATHSIG = 1                # linux/prctl.h


@dataclass(frozen=True)
class Key:
    name: str
    source: Source

    def line(self, rid: int) -> bytes:
        return json.dumps({
            "op": "submit", "id": rid, "name": self.name, "xdl": self.source.xdl,
            "ucf": self.source.ucf, "region": self.source.rect.to_ucf(),
        }).encode() + b"\n"

    def request(self) -> GenRequest:
        return GenRequest(name=self.name, xdl=self.source.xdl, ucf=self.source.ucf,
                          region=self.source.rect.to_ucf())


@dataclass
class Reply:
    key: Key
    due: float
    sent: float
    received: float
    ok: bool
    source: str = ""
    server_s: float = 0.0
    size_ratio: float = 0.0
    digest: str = ""


def _die_with_parent() -> None:
    """In the child: get SIGTERM (a graceful drain) if the benchmark dies
    before it could stop the node."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class Server:
    """A spawned ``jpg serve`` node with a fresh cache directory."""

    def __init__(self, ctx: Context, part: str, base_path: str, index: int):
        home = ctx.workdir / f"serve{index}"
        home.mkdir()
        port_file = home / "port"
        self._log = open(home / "serve.log", "wb")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "serve", "-p", part,
             "--base", base_path, "--tcp", "127.0.0.1:0", "--port-file", str(port_file),
             "--cache-dir", str(home / "cache")],
            stdout=subprocess.DEVNULL, stderr=self._log, cwd=ROOT, env=env,
            preexec_fn=_die_with_parent)
        deadline = time.perf_counter() + STALL_S
        while not port_file.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.proc.kill()
                self.proc.wait()
                self._log.close()
                raise ServeError(f"jpg serve did not start; see {home / 'serve.log'}")
            time.sleep(0.005)
        self.address = ("127.0.0.1", int(port_file.read_text()))

    def peak_rss_mb(self) -> float:
        """The node's peak resident set (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain and stop the node; kill it if it does not exit."""
        if self.proc.poll() is None:
            try:
                with ServeClient(self.address, timeout=STALL_S) as client:
                    client.shutdown()
                self.proc.wait(timeout=STALL_S)
            except (OSError, ServeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Pipeline:
    """Raw JSON-lines connections driven from one thread, any number of
    requests in flight on each (``ServeClient`` waits for every reply)."""

    def __init__(self, address: tuple[str, int], connections: int):
        self.socks = [socket.create_connection(address, timeout=STALL_S)
                      for _ in range(connections)]
        # select(2) takes microseconds; epoll would round each wait up to
        # a whole millisecond and make the open-loop generator run late
        self.selector = selectors.SelectSelector()
        self.buffers = {}
        for sock in self.socks:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.selector.register(sock, selectors.EVENT_READ)
            self.buffers[sock] = bytearray()

    def send(self, conn: int, line: bytes) -> float:
        sent = time.perf_counter()
        self.socks[conn].sendall(line)
        return sent

    def poll(self, timeout: float) -> list[tuple[float, dict]]:
        """Replies that arrived within ``timeout``, each with its time."""
        out = []
        for event, _ in self.selector.select(timeout):
            sock = event.fileobj
            data = sock.recv(1 << 20)
            received = time.perf_counter()
            if not data:
                raise ServeError("jpg serve closed a benchmark connection")
            buf = self.buffers[sock]
            buf += data
            while (end := buf.find(b"\n")) >= 0:
                out.append((received, json.loads(buf[:end])))
                del buf[:end + 1]
        return out

    def close(self) -> None:
        self.selector.close()
        for sock in self.socks:
            sock.close()


class Mix:
    """The seeded request stream: zipf repeats over hot keys, fresh keys."""

    def __init__(self, ctx: Context, hot: list[Key], sources: list[Source]):
        self.rng = ctx.rng
        self.hot = list(hot)
        self.rng.shuffle(self.hot)          # popularity rank -> key
        self.cum = list(itertools.accumulate(k ** -ZIPF_S for k in range(1, len(hot) + 1)))
        self.sources = sources
        self.fresh = 0

    def draw(self) -> Key:
        if self.rng.random() < FRESH_SHARE:
            self.fresh += 1
            src = self.rng.choice(self.sources)
            return Key(f"{src.label}#n{self.fresh}", src)
        return self.rng.choices(self.hot, cum_weights=self.cum)[0]


def _reply(ctx: Context, key: Key, due: float, sent: float, received: float, rid: int,
           resp: dict) -> Reply:
    ctx.tracer.add(OP, due, received, f"r{rid}", rid)
    ctx.tracer.add("serve.request", sent, received, f"r{rid}", rid)
    if not resp.get("ok"):
        return Reply(key, due, sent, received, False)
    return Reply(key, due, sent, received, True, resp["source"], resp["seconds"],
                 resp["size"] / resp["full_size"], digest(resp["data"].encode()))


def open_loop(ctx: Context, pipe: Pipeline, mix: Mix, seconds: float) -> list[Reply]:
    """Poisson arrivals at :data:`RATE_PER_S`, replies timed from due time.
    The host's speed is sampled in gaps with no request due."""
    rng = mix.rng
    pace = ctx.pace("timed")
    start = time.perf_counter()
    end = start + seconds
    due = start + rng.expovariate(RATE_PER_S)
    inflight: dict[int, tuple[Key, float, float]] = {}
    replies: list[Reply] = []
    rid = 0
    last = start
    while due < end or inflight:
        now = time.perf_counter()
        if due < end and due <= now:
            key = mix.draw()
            rid += 1
            inflight[rid] = (key, due, pipe.send(rid % CONNECTIONS, key.line(rid)))
            due += rng.expovariate(RATE_PER_S)
            continue
        if now - last > STALL_S:
            raise ServeError(f"no reply for {STALL_S:.0f} s")
        if due - now > 2 * REFERENCE_S:
            pace.tick()
            now = time.perf_counter()
        for received, resp in pipe.poll(max(0.0, due - now) if due < end else 0.1):
            key, due_at, sent = inflight.pop(resp["id"])
            replies.append(_reply(ctx, key, due_at, sent, received, resp["id"], resp))
            last = received
    return replies


def closed_loop(ctx: Context, pipe: Pipeline, mix: Mix, seconds: float,
                first_id: int) -> tuple[list[Reply], float]:
    """:data:`DEPTH` requests in flight per connection until ``seconds``
    pass; returns the replies and the median completion rate over windows
    of :data:`RATE_WINDOW` replies."""
    start = time.perf_counter()
    end = start + seconds
    inflight: dict[int, tuple[Key, float, int]] = {}
    rid = itertools.count(first_id)

    def issue(conn: int) -> None:
        key, r = mix.draw(), next(rid)
        sent = pipe.send(conn, key.line(r))
        inflight[r] = (key, sent, conn)

    for conn in range(CONNECTIONS):
        for _ in range(DEPTH):
            issue(conn)
    replies: list[Reply] = []
    last = start
    pace = ctx.pace("saturation")
    while inflight:
        if time.perf_counter() - last > STALL_S:
            raise ServeError(f"no reply for {STALL_S:.0f} s")
        pace.tick()
        for received, resp in pipe.poll(0.1):
            key, sent, conn = inflight.pop(resp["id"])
            replies.append(_reply(ctx, key, sent, sent, received, resp["id"], resp))
            last = received
            if received < end:
                issue(conn)
    done = [r.received for r in replies if r.ok]
    windows = [done[i:i + RATE_WINDOW]
               for i in range(0, len(done) - RATE_WINDOW + 1, RATE_WINDOW)]
    rates = [(len(w) - 1) / (w[-1] - w[0]) for w in windows] or [len(done) / (last - start)]
    return replies, statistics.median(rates)


def run(ctx: Context) -> Outcome:
    sc = Scenario.figure4()
    rng = ctx.rng
    with ctx.phase("inputs"):
        base = sc.implement_base(ctx)
        sources = [sc.implement_version(ctx, plan, spec, base) for plan, spec in sc.versions]
        base_path = str(ctx.workdir / "base.bit")
        base.bitfile.save(base_path)
    hot = [Key(f"{src.label}#h{i}", src) for src in sources for i in range(HOT_SALTS)]
    served: dict[str, set[str]] = {}
    primed: dict[str, bytes] = {}
    setups = itertools.count()

    def setup() -> Server:
        with ctx.span("serve.spawn"):
            server = Server(ctx, sc.part, base_path, next(setups))
        try:
            with ServeClient(server.address, timeout=STALL_S) as client:
                for key in hot:
                    with ctx.span("serve.request"):
                        resp = client.submit(key.name, key.source.xdl, ucf=key.source.ucf,
                                             region=key.source.rect.to_ucf())
                    data = decode_partial(resp)
                    served.setdefault(key.name, set()).add(digest(resp["data"].encode()))
                    primed.setdefault(key.source.label, data)
        except BaseException:
            server.stop()
            raise
        return server

    setup_s, server = ctx.repeat_setup(setup, Server.stop)
    try:
        mix = Mix(ctx, hot, sources)
        with ServeClient(server.address, timeout=STALL_S) as client:
            before = client.stats()["stats"]
            pipe = Pipeline(server.address, CONNECTIONS)
            try:
                with ctx.phase("timed"):
                    latency = open_loop(ctx, pipe, mix, ctx.seconds * LATENCY_SHARE)
                    saturation, rate = closed_loop(ctx, pipe, mix,
                                                   ctx.seconds * (1 - LATENCY_SHARE),
                                                   len(latency) + 1)
            finally:
                pipe.close()
            after = client.stats()["stats"]
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    replies = latency + saturation
    ctx.attempted += len(replies)
    ctx.failed += sum(not r.ok for r in replies)
    ok = [r for r in replies if r.ok]
    for r in ok:
        served.setdefault(r.key.name, set()).add(r.digest)
    lat_ok = [r for r in latency if r.ok]
    if not lat_ok:
        raise OracleError("serve-ok", "no request of the latency pass succeeded")

    with ctx.phase("oracle"):
        consistent("serve-consistent", served)
        orng = ctx.rng_for("oracle")
        keys = {r.key.name: r.key for r in lat_ok}
        service = GenerationService(sc.part, base.bitfile, metrics=ctx.tracer.registry())
        try:
            for name in orng.sample(sorted(keys), min(ORACLE_KEYS, len(keys))):
                key = keys[name]
                with ctx.span("serve.service_generate"):
                    direct = service.generate(key.request())
                if direct.data is None:
                    raise OracleError("serve-vs-direct", f"{name}: {direct.error}")
                consistent("serve-vs-direct",
                           {name: served[name] | {digest(base64.b64encode(direct.data))}})
                jpg = ctx.jpg_generate(sc.part, base.bitfile, key.source.xdl, key.source.ucf)
                same_bytes("serve-vs-direct", name, jpg.data, direct.data)
        finally:
            service.close()
        choice = orng.choice(sc.combinations())
        labels = [f"{region}/{version}" for region, version in sorted(choice.items())]
        reference = sc.reference(ctx, choice, orng.randrange(1 << 16))
        behaviour(ctx, "+".join(labels), sc.part, base, [primed[lb] for lb in labels],
                  reference, orng)

    def delta(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    slowdown = ctx.pace("timed").slowdown

    def ms(values, q):
        """Reference-host milliseconds of a latency-pass quantile."""
        return 1e3 * quantile(values, q) / slowdown if values else 0.0

    latencies = ctx.pace("timed").scaled([r.received - r.due for r in lat_ok])
    return Outcome(
        setup_s=setup_s,
        op_s=latencies,
        item_s=latencies,
        tail_q=0.95,
        items_per_s=rate * ctx.pace("saturation").slowdown,
        output_ratio=statistics.fmean(r.size_ratio for r in ok),
        peak_rss_mb=rss,
        oracles=["serve-ok", "serve-consistent", "serve-vs-direct", "behaviour"],
        layer_values={
            "serve.disk_hit_ratio": sum(r.source == "disk" for r in ok) / len(ok),
            "serve.wire_share.p50": statistics.median(
                1 - r.server_s / (r.received - r.sent) for r in lat_ok),
            "serve.coalesced": delta("serve.coalesced"),
            "serve.rejected": delta("serve.rejected"),
        },
        details={
            "requests": {"latency": len(latency), "saturation": len(saturation)},
            "serve.hit_ms.p50": ms([r.received - r.due for r in lat_ok if r.source == "disk"],
                                   0.5),
            "serve.miss_ms.p50": ms([r.received - r.due for r in lat_ok
                                     if r.source == "generated"], 0.5),
            "serve.wire_ms.p50": ms([r.received - r.sent - r.server_s for r in lat_ok], 0.5),
            "serve.client_late_ms.p99": ms([r.sent - r.due for r in latency], 0.99),
            # the node's own quantiles, unscaled
            "serve.wait_ms.p99": after["latency"].get("serve.wait", {}).get("p99", 0.0),
            "serve.generate_ms.p50": after["latency"].get("serve.generate", {}).get("p50", 0.0),
        },
    )
