"""JSON-lines wire protocol: ``jpg serve`` and ``jpg submit``.

One request or response per line, UTF-8 JSON.  Ops:

``{"op": "ping", "id": 1}``
    → ``{"id": 1, "ok": true, "op": "pong"}``
``{"op": "stats", "id": 2}``
    → ``{"id": 2, "ok": true, "stats": {...}, "pending": N}``
``{"op": "submit", "id": 3, "name": ..., "xdl": ..., "ucf": ...,
"region": ..., "granularity": ...}``
    → ``{"id": 3, "ok": true, "name": ..., "part": ..., "size": N,
    "frames": N, "source": "generated"|"disk", "full_size": N,
    "data": <base64 config bytes>}``
    or ``{"id": 3, "ok": false, "code": "queue-full"|"bad-request"|
    "generation-failed"|"internal-error", "error": "..."}``; an
    ``internal-error`` is a fault of the service itself (any exception
    that is not a :class:`~repro.errors.ReproError`), counted as
    ``serve.internal_errors``.
``{"op": "shutdown", "id": 4}``
    → ``{"id": 4, "ok": true}`` after the scheduler drains; the server
    then stops accepting connections.

Submits are pipelined: a client may send many on one connection without
waiting; responses carry the request's ``id`` and arrive in completion
order.  Identical concurrent submits — same XDL/UCF/region/granularity
against the same base — coalesce onto one generation (see
:mod:`repro.serve.scheduler`).

The server listens on a unix socket (``jpg serve --socket PATH``), a TCP
host:port (``--tcp HOST:PORT``; port 0 binds an ephemeral port,
published via ``JpgServer.tcp_address``), or stdin/stdout
(``--stdio``, one client).  :class:`ServeClient` is the blocking client
the ``jpg submit`` CLI uses; it dials either transport
(:func:`parse_address` decides which form an address string is).

Lifecycle: a stale unix-socket file (left by a killed server) is removed
on startup instead of failing the bind, and with ``handle_signals=True``
a ``SIGTERM`` triggers a graceful drain — in-flight requests finish and
get their responses before the scheduler closes.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import json
import os
import signal
import socket
import sys
import threading
import traceback

from ..errors import (
    QueueFullError,
    ReproError,
    ServeError,
    ServiceUnavailableError,
    UsageError,
)
from .scheduler import Scheduler
from .service import GenerationService, GenRequest


def _encode(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def parse_address(address: str | tuple) -> tuple[str, int] | str:
    """Classify a dial/listen address: ``(host, port)`` for TCP, a path
    string for unix sockets.

    ``"host:1234"`` (a numeric port, no path separator) is TCP —
    ``"127.0.0.1:0"`` and ``":0"`` bind an ephemeral loopback port;
    anything else is a unix-socket path.
    """
    if isinstance(address, tuple):
        return (str(address[0]), int(address[1]))
    host, sep, port = address.rpartition(":")
    if sep and port.isdigit() and os.sep not in address:
        return (host or "127.0.0.1", int(port))
    return address


class JpgServer:
    """The asyncio generation server (one scheduler, many connections)."""

    def __init__(
        self,
        service: GenerationService,
        *,
        max_queue: int = 32,
        workers: int | None = None,
    ):
        self.service = service
        self.scheduler = Scheduler(service, max_queue=max_queue, workers=workers)
        self._shutdown = asyncio.Event()
        self._stopping = False
        #: Bound ``(host, port)`` once :meth:`serve_tcp` is listening.
        self.tcp_address: tuple[str, int] | None = None

    # -- lifecycle ------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin a graceful drain-then-stop from the event-loop thread.

        Safe as an ``add_signal_handler`` callback: intake stops, every
        in-flight request finishes and is answered, then the listeners
        close.  Idempotent."""
        if self._stopping:
            return
        self._stopping = True
        asyncio.get_running_loop().create_task(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        await self.scheduler.drain()
        self._shutdown.set()

    @staticmethod
    def _remove_stale_socket(path: str) -> None:
        """Unlink a socket file no live server answers on.

        A server killed without cleanup (kill -9, OOM) leaves its socket
        file behind and a naive rebind fails with ``EADDRINUSE``.  Probe
        it: a live listener means the address is genuinely taken
        (:class:`~repro.errors.ServeError`); a dead one is removed."""
        if not os.path.exists(path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(path)
        else:
            raise ServeError(f"{path} already has a live server listening")
        finally:
            probe.close()

    # -- transports -----------------------------------------------------------

    async def serve_unix(self, path: str, *, handle_signals: bool = False) -> None:
        """Listen on a unix socket until a ``shutdown`` op (or, with
        ``handle_signals``, a SIGTERM) arrives; stale socket files from a
        killed predecessor are removed instead of failing the bind."""
        self._remove_stale_socket(path)
        server = await asyncio.start_unix_server(self._handle, path=path)

        def cleanup() -> None:
            with contextlib.suppress(OSError):
                os.unlink(path)

        await self._serve(server, handle_signals=handle_signals, cleanup=cleanup)

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0, *,
                        handle_signals: bool = False) -> None:
        """Listen on TCP ``host:port`` until a ``shutdown`` op or SIGTERM;
        ``port=0`` binds an ephemeral port, published as
        :attr:`tcp_address` before the first connection."""
        server = await asyncio.start_server(self._handle, host=host, port=port)
        sockname = server.sockets[0].getsockname()
        self.tcp_address = (sockname[0], sockname[1])
        await self._serve(server, handle_signals=handle_signals)

    async def _serve(self, server: asyncio.AbstractServer, *,
                     handle_signals: bool, cleanup=None) -> None:
        """Run one listener until shutdown, then tear everything down."""
        loop = asyncio.get_running_loop()
        installed = False
        if handle_signals:
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signal.SIGTERM, self.request_shutdown)
                installed = True
        try:
            await self._shutdown.wait()
        finally:
            if installed:
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.remove_signal_handler(signal.SIGTERM)
            server.close()
            await server.wait_closed()
            await self.scheduler.aclose()
            if cleanup is not None:
                cleanup()

    async def serve_stdio(self) -> None:
        """Serve one client over stdin/stdout (stdout stays protocol-only)."""
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        w_transport, w_protocol = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout
        )
        writer = asyncio.StreamWriter(w_transport, w_protocol, reader, loop)
        await self._handle(reader, writer)
        await self.scheduler.aclose()

    # -- connection handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        wlock = asyncio.Lock()
        conn_tasks: set[asyncio.Task] = set()
        try:
            while not self._shutdown.is_set():
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    msg = json.loads(line)
                    if not isinstance(msg, dict):
                        raise ValueError("message is not an object")
                except ValueError as exc:
                    await self._send(writer, wlock, {
                        "id": None, "ok": False, "code": "bad-request",
                        "error": f"malformed request line: {exc}",
                    })
                    continue
                op = msg.get("op")
                if op == "submit":
                    task = asyncio.get_running_loop().create_task(
                        self._submit(msg, writer, wlock)
                    )
                    conn_tasks.add(task)
                    task.add_done_callback(conn_tasks.discard)
                elif op == "ping":
                    await self._send(writer, wlock,
                                     {"id": msg.get("id"), "ok": True, "op": "pong"})
                elif op == "stats":
                    await self._send(writer, wlock, {
                        "id": msg.get("id"), "ok": True,
                        "pending": self.scheduler.pending,
                        "stats": self.service.stats(),
                    })
                elif op == "shutdown":
                    await self.scheduler.drain()
                    await self._send(writer, wlock,
                                     {"id": msg.get("id"), "ok": True})
                    self._shutdown.set()
                    break
                else:
                    await self._send(writer, wlock, {
                        "id": msg.get("id"), "ok": False, "code": "bad-request",
                        "error": f"unknown op {op!r}",
                    })
            if conn_tasks:
                await asyncio.wait(set(conn_tasks))
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _submit(self, msg: dict, writer: asyncio.StreamWriter,
                      wlock: asyncio.Lock) -> None:
        rid = msg.get("id")
        try:
            request = GenRequest.from_message(msg)
        except UsageError as exc:
            await self._send(writer, wlock, {
                "id": rid, "ok": False, "code": "bad-request", "error": str(exc),
            })
            return
        try:
            result = await self.scheduler.submit(request)
        except QueueFullError as exc:
            await self._send(writer, wlock, {
                "id": rid, "ok": False, "code": "queue-full", "error": str(exc),
            })
            return
        except ReproError as exc:
            # a request the engine could not even start on (unparseable
            # region, bad granularity): the client must still get an answer
            await self._send(writer, wlock, {
                "id": rid, "ok": False, "code": "bad-request", "error": str(exc),
            })
            return
        except Exception as exc:
            # a fault of the service itself (a bug, a full disk under the
            # cache): answer now rather than leave the client to time out
            traceback.print_exc(file=sys.stderr)
            self.service.metrics.count("serve.internal_errors")
            await self._send(writer, wlock, {
                "id": rid, "ok": False, "code": "internal-error",
                "error": f"{type(exc).__name__}: {exc}",
            })
            return
        if not result.ok:
            await self._send(writer, wlock, {
                "id": rid, "ok": False, "code": "generation-failed",
                "error": result.error,
            })
            return
        assert result.data is not None
        await self._send(writer, wlock, {
            "id": rid,
            "ok": True,
            "name": request.name,
            "part": self.service.part,
            "size": result.size,
            "frames": result.frames,
            "source": result.source,
            "full_size": self.service.full_size,
            "deployed": result.deployed,
            "seconds": result.seconds,
            "data": base64.b64encode(result.data).decode(),
        })

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, wlock: asyncio.Lock,
                    obj: dict) -> None:
        async with wlock:
            writer.write(_encode(obj))
            with contextlib.suppress(ConnectionError):
                await writer.drain()


class ServeClient:
    """Blocking JSON-lines client over a unix socket or TCP (what ``jpg
    submit`` dials).

    ``address`` is either a unix-socket path, a ``"host:port"`` string,
    or a ``(host, port)`` tuple (see :func:`parse_address`).
    """

    def __init__(self, address: str | tuple, *, timeout: float = 300.0):
        parsed = parse_address(address)
        self.address = (f"{parsed[0]}:{parsed[1]}"
                        if isinstance(parsed, tuple) else parsed)
        try:
            if isinstance(parsed, tuple):
                self._sock = socket.create_connection(parsed, timeout=timeout)
            else:
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    self._sock.settimeout(timeout)
                    self._sock.connect(parsed)
                except OSError:
                    # create_connection closes its own socket on failure
                    self._sock.close()
                    raise
        except OSError as exc:
            raise ServiceUnavailableError(
                f"cannot reach jpg serve at {self.address}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close the socket (safe to call twice)."""
        with contextlib.suppress(OSError):
            self._file.close()
        with contextlib.suppress(OSError):
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- requests -------------------------------------------------------------

    def request(self, msg: dict) -> dict:
        """Send one op and return its (id-matched) response.

        Serialised per client: threads sharing one connection take turns,
        so no reader consumes another's reply."""
        with self._lock:
            self._next_id += 1
            rid = msg.get("id", self._next_id)
            msg = {**msg, "id": rid}
            try:
                self._file.write(_encode(msg))
                self._file.flush()
                while True:
                    line = self._file.readline()
                    if not line:
                        raise ServiceUnavailableError(
                            f"jpg serve at {self.address} closed the connection"
                        )
                    resp = json.loads(line)
                    if resp.get("id") == rid:
                        return resp
            except (OSError, ValueError) as exc:
                raise ServiceUnavailableError(
                    f"protocol failure talking to {self.address}: {exc}"
                ) from exc

    def ping(self) -> dict:
        """Liveness probe (the ``ping`` op)."""
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        """Server counters and cache stats (the ``stats`` op)."""
        return self.request({"op": "stats"})

    def shutdown(self) -> dict:
        """Ask the server to drain and exit (the ``shutdown`` op)."""
        return self.request({"op": "shutdown"})

    def submit(
        self,
        name: str,
        xdl: str,
        *,
        ucf: str | None = None,
        region: str | None = None,
        granularity: str = "column",
    ) -> dict:
        """Submit one generation request; returns the raw response dict
        (``data`` still base64).  Use :func:`decode_partial` for the bytes."""
        return self.request({
            "op": "submit", "name": name, "xdl": xdl, "ucf": ucf,
            "region": region, "granularity": granularity,
        })


def decode_partial(response: dict) -> bytes:
    """The raw partial-bitstream bytes of a successful submit response."""
    if not response.get("ok"):
        raise ServiceUnavailableError(
            f"response is not a successful submit: {response.get('error')}"
        )
    return base64.b64decode(response["data"])
