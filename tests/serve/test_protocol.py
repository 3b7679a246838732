"""JSON-lines protocol: server ops, error envelopes, pipelining, client.

The server runs in a thread over a real unix socket with the fake service
from the scheduler tests (fast, deterministic); the CLI-level tests in
``tests/core/test_cli.py`` cover the real-generation path.
"""

import asyncio
import base64
import gc
import json
import socket
import sys
import threading
import time
import warnings

import pytest

from repro.errors import ServiceUnavailableError
from repro.serve import JpgServer, ServeClient, decode_partial

from .test_scheduler import FakeService


def connect(path: str, deadline: float = 10.0) -> socket.socket:
    """Connect to a unix socket, retrying the bind->listen window."""
    end = time.monotonic() + deadline
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except (ConnectionRefusedError, FileNotFoundError):
            sock.close()
            if time.monotonic() > end:
                raise
            time.sleep(0.01)


@pytest.fixture()
def server(tmp_path):
    service = FakeService()
    srv = JpgServer(service, max_queue=8, workers=2)
    sock = str(tmp_path / "jpg.sock")
    thread = threading.Thread(
        target=lambda: asyncio.run(srv.serve_unix(sock)), daemon=True
    )
    thread.start()
    connect(sock).close()  # wait until the server is actually listening
    yield {"sock": sock, "service": service, "thread": thread}
    if thread.is_alive():
        try:
            with ServeClient(sock) as c:
                c.shutdown()
        except ServiceUnavailableError:
            pass
        thread.join(timeout=10)


class TestOps:
    def test_ping(self, server):
        with ServeClient(server["sock"]) as client:
            resp = client.ping()
        assert resp["ok"] and resp["op"] == "pong"

    def test_stats(self, server):
        with ServeClient(server["sock"]) as client:
            resp = client.stats()
        assert resp["ok"] and resp["pending"] == 0
        assert resp["stats"] == {"calls": 0}

    def test_submit_roundtrip(self, server):
        with ServeClient(server["sock"]) as client:
            resp = client.submit("mod", "some xdl text", region="CLB_R1C3:CLB_R4C6")
        assert resp["ok"]
        assert resp["name"] == "mod"
        assert resp["part"] == "XCV50"
        assert resp["source"] == "generated"
        assert decode_partial(resp) == b"data:mod"
        assert resp["size"] == len(b"data:mod")

    def test_generation_failure_envelope(self, server):
        with ServeClient(server["sock"]) as client:
            resp = client.submit("explode", "boom")
        assert not resp["ok"]
        assert resp["code"] == "generation-failed"
        assert "synthetic" in resp["error"]

    def test_missing_xdl_is_bad_request(self, server):
        with ServeClient(server["sock"]) as client:
            resp = client.request({"op": "submit", "name": "x"})
        assert not resp["ok"] and resp["code"] == "bad-request"

    def test_unknown_op(self, server):
        # "fetch" was the retired peer-fill op: it is now just unknown
        with ServeClient(server["sock"]) as client:
            for op in ("frobnicate", "fetch"):
                resp = client.request({"op": op, "base": "b", "region": "none",
                                       "digest": "d"})
                assert not resp["ok"] and resp["code"] == "bad-request"
                assert repr(op) in resp["error"]

    def test_malformed_line(self, server):
        sock = connect(server["sock"])
        f = sock.makefile("rwb")
        f.write(b"this is not json\n")
        f.flush()
        resp = json.loads(f.readline())
        assert not resp["ok"] and resp["code"] == "bad-request"
        sock.close()

    def test_shutdown_stops_server(self, server):
        with ServeClient(server["sock"]) as client:
            assert client.shutdown()["ok"]
        server["thread"].join(timeout=10)
        assert not server["thread"].is_alive()
        with pytest.raises(ServiceUnavailableError):
            ServeClient(server["sock"]).ping()


class BrokenService(FakeService):
    """A service whose generate fails outside ReproError, as a bug or a
    full disk under the cache would."""

    def generate(self, request):
        if request.name == "oserror":
            raise OSError(28, "No space left on device")
        if request.name == "bug":
            raise RuntimeError("synthetic bug")
        return super().generate(request)


class TestInternalErrors:
    @pytest.mark.parametrize("name, text", [
        ("bug", "RuntimeError: synthetic bug"),
        ("oserror", "No space left on device"),
    ])
    def test_non_repro_error_gets_a_reply(self, tmp_path, name, text):
        """The client gets an internal-error envelope at once, not a
        timeout, and the node keeps serving and counts the fault."""
        service = BrokenService()
        srv = JpgServer(service, max_queue=8, workers=2)
        path = str(tmp_path / "b.sock")
        thread = threading.Thread(
            target=lambda: asyncio.run(srv.serve_unix(path)), daemon=True
        )
        thread.start()
        connect(path).close()
        try:
            with ServeClient(path, timeout=30) as client:
                start = time.monotonic()
                resp = client.submit(name, "some xdl")
                assert time.monotonic() - start < 5
                assert not resp["ok"] and resp["code"] == "internal-error"
                assert text in resp["error"]
                assert client.submit("fine", "some xdl")["ok"]
            assert service.metrics.counter("serve.internal_errors") == 1
        finally:
            with ServeClient(path) as c:
                c.shutdown()
            thread.join(timeout=10)


class TestPipelining:
    def test_many_submits_one_connection(self, server):
        """Responses are id-matched, whatever order they complete in."""
        sock = connect(server["sock"])
        f = sock.makefile("rwb")
        for i in range(5):
            f.write((json.dumps({
                "op": "submit", "id": i, "name": f"m{i}", "xdl": f"xdl {i}",
            }) + "\n").encode())
        f.flush()
        got = {}
        for _ in range(5):
            resp = json.loads(f.readline())
            got[resp["id"]] = resp
        sock.close()
        assert sorted(got) == list(range(5))
        for i, resp in got.items():
            assert resp["ok"]
            assert base64.b64decode(resp["data"]) == f"data:m{i}".encode()

    def test_interleaved_ping_answers_before_slow_submit(self, tmp_path):
        service = FakeService(delay=0.3)
        srv = JpgServer(service, max_queue=8, workers=2)
        path = str(tmp_path / "s.sock")
        thread = threading.Thread(
            target=lambda: asyncio.run(srv.serve_unix(path)), daemon=True
        )
        thread.start()
        sock = connect(path)
        f = sock.makefile("rwb")
        f.write(b'{"op": "submit", "id": 1, "name": "slow", "xdl": "x"}\n')
        f.write(b'{"op": "ping", "id": 2}\n')
        f.flush()
        first = json.loads(f.readline())
        second = json.loads(f.readline())
        sock.close()
        assert first["id"] == 2 and first["op"] == "pong"
        assert second["id"] == 1 and second["ok"]
        with ServeClient(path) as c:
            c.shutdown()
        thread.join(timeout=10)


class TestClient:
    def test_threads_sharing_one_client_each_get_their_reply(self, server):
        """Requests on one connection are serialised per client: every
        thread gets its own reply, none a timeout.  Two bursts of 8
        threads, each released by a barrier."""
        barrier = threading.Barrier(8)
        replies = []

        def submit(client, i):
            barrier.wait()
            replies.append((i, client.submit(f"m{i}", f"xdl {i}")))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServeClient(server["sock"], timeout=10.0) as client:
                for burst in range(2):
                    workers = [threading.Thread(target=submit,
                                                args=(client, 8 * burst + i))
                               for i in range(8)]
                    for w in workers:
                        w.start()
                    for w in workers:
                        w.join(timeout=30)
                    assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(switch)
        assert sorted(i for i, _ in replies) == list(range(16))
        for i, resp in replies:
            assert resp["ok"] and resp["name"] == f"m{i}"
            assert decode_partial(resp) == f"data:m{i}".encode()

    def test_connect_failure_raises_unavailable(self, tmp_path):
        with pytest.raises(ServiceUnavailableError) as exc:
            ServeClient(str(tmp_path / "absent.sock"))
        assert "cannot reach" in str(exc.value)

    def test_connect_failure_closes_the_unix_socket(self, tmp_path):
        """A failed unix-socket connect leaves no open socket behind for
        the garbage collector to find (and warn about)."""
        def dial() -> None:
            with pytest.raises(ServiceUnavailableError):
                ServeClient(str(tmp_path / "absent.sock"))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dial()
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]

    def test_decode_partial_rejects_failures(self):
        with pytest.raises(ServiceUnavailableError):
            decode_partial({"ok": False, "error": "nope"})


class TestParseAddress:
    def test_host_port(self):
        from repro.serve import parse_address

        assert parse_address("127.0.0.1:4100") == ("127.0.0.1", 4100)
        assert parse_address("example.com:80") == ("example.com", 80)

    def test_bare_port_defaults_to_loopback(self):
        from repro.serve import parse_address

        assert parse_address(":0") == ("127.0.0.1", 0)

    def test_paths_stay_paths(self):
        from repro.serve import parse_address

        assert parse_address("/tmp/jpg.sock") == "/tmp/jpg.sock"
        assert parse_address("relative.sock") == "relative.sock"

    def test_tuples_pass_through(self):
        from repro.serve import parse_address

        assert parse_address(("0.0.0.0", 9)) == ("0.0.0.0", 9)


@pytest.fixture()
def tcp_server():
    service = FakeService()
    srv = JpgServer(service, max_queue=8, workers=2)
    thread = threading.Thread(
        target=lambda: asyncio.run(srv.serve_tcp("127.0.0.1", 0)), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10
    while srv.tcp_address is None:
        assert time.monotonic() < deadline, "server did not bind"
        time.sleep(0.01)
    address = f"{srv.tcp_address[0]}:{srv.tcp_address[1]}"
    yield {"address": address, "service": service, "thread": thread}
    if thread.is_alive():
        try:
            with ServeClient(address) as c:
                c.shutdown()
        except ServiceUnavailableError:
            pass
        thread.join(timeout=10)


class TestTcpTransport:
    def test_submit_roundtrip_over_tcp(self, tcp_server):
        with ServeClient(tcp_server["address"]) as client:
            assert client.ping()["ok"]
            resp = client.submit("mod", "xdl text")
        assert resp["ok"] and decode_partial(resp) == b"data:mod"

    def test_ephemeral_port_is_published(self, tcp_server):
        host, port = tcp_server["address"].rsplit(":", 1)
        assert host == "127.0.0.1" and int(port) > 0

    def test_connect_failure_raises_unavailable(self):
        with pytest.raises(ServiceUnavailableError):
            ServeClient("127.0.0.1:1")  # reserved port, nothing listens


class TestLifecycle:
    def test_stale_socket_file_is_replaced(self, tmp_path):
        """A dead socket file from a crashed server must not block startup."""
        path = str(tmp_path / "stale.sock")
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(path)
        dead.close()  # closed without listen/accept: connecting now fails

        service = FakeService()
        srv = JpgServer(service, max_queue=8, workers=2)
        thread = threading.Thread(
            target=lambda: asyncio.run(srv.serve_unix(path)), daemon=True
        )
        thread.start()
        connect(path).close()  # wait out the unlink->rebind window
        with ServeClient(path) as client:
            assert client.ping()["ok"]
            client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_live_socket_is_not_stolen(self, server):
        """A second server on the same path must refuse, not unlink."""
        from repro.errors import ServeError

        second = JpgServer(FakeService(), max_queue=8, workers=2)
        with pytest.raises(ServeError, match="live server"):
            asyncio.run(second.serve_unix(server["sock"]))
        # the original server is untouched
        with ServeClient(server["sock"]) as client:
            assert client.ping()["ok"]

    def test_sigterm_drains_inflight_before_stopping(self, tmp_path):
        """SIGTERM answers in-flight requests, then stops (no lost work)."""
        import os
        import signal as _signal

        service = FakeService(delay=0.3)
        srv = JpgServer(service, max_queue=8, workers=2)
        path = str(tmp_path / "term.sock")
        responses = {}

        def client_side():
            sock = connect(path)
            f = sock.makefile("rwb")
            f.write(b'{"op": "submit", "id": 7, "name": "m", "xdl": "x"}\n')
            f.flush()
            time.sleep(0.05)  # let the submit reach the scheduler
            os.kill(os.getpid(), _signal.SIGTERM)
            responses[7] = json.loads(f.readline())
            sock.close()

        client = threading.Thread(target=client_side, daemon=True)

        async def main():
            client.start()
            # signal handlers require the main thread's running loop
            await srv.serve_unix(path, handle_signals=True)

        asyncio.run(main())
        client.join(timeout=10)
        assert responses[7]["ok"]
        assert decode_partial(responses[7]) == b"data:m"
