"""Membership views and the two-tier peer-fill path.

The wire-level tests run a real ``JpgServer`` over TCP with a fake
service; the integration tests wire two *real* generation services
together so a disk miss on one is served from the other's cache.
"""

import asyncio
import base64
import json
import os
import socket
import sys
import threading
import time

import pytest

from repro.cluster import Membership, PeerFiller
from repro.obs import Metrics, use_metrics
from repro.serve import GenerationService, GenRequest, JpgServer

from ..serve.test_scheduler import FakeService

pytestmark = [pytest.mark.cluster, pytest.mark.serve]


class TestMembership:
    def test_static_mapping(self):
        m = Membership({"n0": "127.0.0.1:1", "n1": "127.0.0.1:2"})
        assert m.nodes() == {"n0": "127.0.0.1:1", "n1": "127.0.0.1:2"}
        assert m.address("n1") == "127.0.0.1:2"
        assert m.address("ghost") is None

    def test_file_backed_reload_on_mtime_change(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"nodes": {"n0": "127.0.0.1:1"}}))
        m = Membership(path=str(path))
        assert m.nodes() == {"n0": "127.0.0.1:1"}
        path.write_text(json.dumps({"nodes": {"n0": "127.0.0.1:1",
                                              "n1": "127.0.0.1:2"}}))
        os.utime(path, (time.time() + 5, time.time() + 5))
        assert m.nodes() == {"n0": "127.0.0.1:1", "n1": "127.0.0.1:2"}

    def test_malformed_file_keeps_last_good_view(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"nodes": {"n0": "a:1"}}))
        m = Membership(path=str(path))
        assert m.nodes() == {"n0": "a:1"}
        path.write_text("{ torn json")
        os.utime(path, (time.time() + 5, time.time() + 5))
        assert m.nodes() == {"n0": "a:1"}          # half-written edit ignored

    def test_missing_file_is_empty_not_fatal(self, tmp_path):
        m = Membership(path=str(tmp_path / "absent.json"))
        assert m.nodes() == {}


class FetchPeer(FakeService):
    """Fake worker whose cache holds one peer-fillable entry."""

    def fetch_partial(self, base_key, tag, digest):
        if digest == "hit" * 21 + "h":
            return b"peer-bytes"
        return None


class ReversingPeer:
    """A raw peer that answers the fetches pending on its connection in
    reverse arrival order, once the line goes quiet — as a pipelined
    server may.  A client thread that took another thread's reply for its
    own would wait out its timeout."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.address = f"127.0.0.1:{self.sock.getsockname()[1]}"
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        conn, _ = self.sock.accept()
        conn.settimeout(0.03)
        data = base64.b64encode(b"peer-bytes").decode()
        buf, pending = b"", []
        with conn:
            while True:
                try:
                    chunk = conn.recv(65536)
                except TimeoutError:
                    for rid in reversed(pending):
                        conn.sendall(json.dumps({"id": rid, "ok": True,
                                                 "found": True,
                                                 "data": data}).encode() + b"\n")
                    pending.clear()
                    continue
                if not chunk:
                    return
                *lines, buf = (buf + chunk).split(b"\n")
                pending += [json.loads(line)["id"] for line in lines if line.strip()]

    def close(self):
        self.sock.close()


def _start_tcp(service):
    srv = JpgServer(service, max_queue=8, workers=2)
    thread = threading.Thread(
        target=lambda: asyncio.run(srv.serve_tcp("127.0.0.1", 0)), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10
    while srv.tcp_address is None:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return srv, thread, f"{srv.tcp_address[0]}:{srv.tcp_address[1]}"


@pytest.fixture()
def peer_node():
    srv, thread, address = _start_tcp(FetchPeer())
    yield address
    from repro.serve import ServeClient

    with ServeClient(address) as c:
        c.shutdown()
    thread.join(timeout=10)


HIT = "hit" * 21 + "h"


class TestPeerFiller:
    def test_fetches_from_owning_peer(self, peer_node):
        m = Membership({"self": "127.0.0.1:1", "peer": peer_node})
        filler = PeerFiller(m, "self", probes=2)
        try:
            assert filler("base", "t", HIT) == b"peer-bytes"
            assert filler("base", "t", "m" * 64) is None      # peer miss
        finally:
            filler.close()

    def test_single_node_fleet_skips_probing(self):
        filler = PeerFiller(Membership({"self": "a:1"}), "self")
        assert filler("base", "t", HIT) is None

    def test_dead_peer_degrades_to_miss(self):
        m = Membership({"self": "127.0.0.1:1", "peer": "127.0.0.1:1"})
        filler = PeerFiller(m, "self", timeout=0.5)
        try:
            assert filler("base", "t", HIT) is None            # not an error
        finally:
            filler.close()


class TestConcurrentPeerFill:
    def test_threads_sharing_one_peer_connection_all_hit(self):
        """The scheduler's worker threads share one connection per peer:
        every concurrent fetch must get its own reply, none a timeout.
        Two bursts of 8 threads, each released by a barrier."""
        peer = ReversingPeer()
        filler = PeerFiller(Membership({"self": "127.0.0.1:1",
                                        "peer": peer.address}),
                            "self", probes=1, timeout=2.0)
        metrics = Metrics()
        barrier = threading.Barrier(8)
        results = []

        def fetch():
            with use_metrics(metrics):
                barrier.wait()
                results.append(filler("base", "t", HIT))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(2):
                workers = [threading.Thread(target=fetch) for _ in range(8)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
                assert not any(w.is_alive() for w in workers)
            assert results == [b"peer-bytes"] * 16
            assert metrics.counter("cluster.peer_fetch_hits") == 16
            assert metrics.counter("cluster.peer_fetch_errors") == 0
        finally:
            sys.setswitchinterval(switch)
            filler.close()
            peer.close()


class TestServicePeerFill:
    """Two real services: B disk-misses, peer-fills from A, serves, and
    warms its own tier-1 so the next request is a plain disk hit."""

    @pytest.fixture()
    def request_r1(self, demo_project):
        mv = demo_project.versions[("r1", "down")]
        return GenRequest(name="r1/down", xdl=mv.xdl, ucf=mv.ucf,
                          region=demo_project.regions["r1"].to_ucf())

    def test_miss_peer_disk_progression(self, demo_project, request_r1, tmp_path):
        node_a = GenerationService(
            "XCV50", demo_project.base_bitfile,
            demo_project.base_flow.design,
            cache_dir=str(tmp_path / "a"), backend="serial",
        )
        first = node_a.generate(request_r1)       # A generates and caches
        assert first.ok and first.source == "generated"
        srv, thread, address = _start_tcp(node_a)

        membership = Membership({"a": address, "b": "127.0.0.1:1"})
        filler = PeerFiller(membership, "b", part="XCV50")
        node_b = GenerationService(
            "XCV50", demo_project.base_bitfile,
            demo_project.base_flow.design,
            cache_dir=str(tmp_path / "b"), backend="serial",
            peer_fetch=filler,
        )
        try:
            served = node_b.generate(request_r1)
            assert served.ok and served.source == "peer"
            assert served.data == first.data       # byte-identical transfer
            again = node_b.generate(request_r1)
            assert again.source == "disk"          # tier 1 warmed by the fill
            assert again.data == first.data
            stats = node_b.stats()
            assert stats["counters"]["serve.served_from_peer"] == 1
            assert "serve.peer_fill" in stats["latency"]
        finally:
            filler.close()
            node_b.close()
            from repro.serve import ServeClient

            with ServeClient(address) as c:
                c.shutdown()
            thread.join(timeout=10)

    def test_fetch_partial_never_generates(self, demo_project, request_r1):
        service = GenerationService(
            "XCV50", demo_project.base_bitfile,
            demo_project.base_flow.design, backend="serial",
        )
        try:
            # no disk cache configured: fetch is a miss, never a generate
            assert service.fetch_partial(service.base_key, "t", "d") is None
            assert service.metrics.counter("serve.fetch_miss") == 1
            assert service.metrics.counter("serve.generated") == 0
        finally:
            service.close()

    def test_fetch_partial_rejects_foreign_base(self, demo_project, tmp_path):
        service = GenerationService(
            "XCV50", demo_project.base_bitfile,
            demo_project.base_flow.design,
            cache_dir=str(tmp_path), backend="serial",
        )
        try:
            assert service.fetch_partial("not-my-base", "t", "d") is None
        finally:
            service.close()
