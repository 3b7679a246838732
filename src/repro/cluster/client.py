"""Fleet membership and client-side routing.

**Membership** is a ``name -> address`` map.  :class:`Membership` serves
it from a literal dict or from a JSON *fleet file*::

    {"nodes": {"n0": "127.0.0.1:4101", "n1": "127.0.0.1:4102"}}

The file form is how a spawned fleet bootstraps (each worker binds an
ephemeral port before the full membership is known — the spawner writes
the fleet file once every port is published) and how operators re-shard a
running fleet: the file is re-read on mtime change, so edits take effect
on the next request without restarts.

**Routing** happens in the client: :class:`FleetClient` computes each
request's key — :func:`~repro.cluster.ring.request_key` over the service's
own cache coordinates — and walks the key's ring owners over the current
membership, so every client holding the fleet file places a key on the
same node without a front-end process.  A node that cannot be reached is
skipped for the next owner, which is where the ring re-hashes the key
once that node is gone.  Peer fill (:class:`~repro.cluster.PeerFiller`)
walks the same ring through the same connection cache.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Mapping

from ..errors import ReproError, ServiceUnavailableError, UsageError
from ..serve import GenRequest, ServeClient, decode_partial, region_tag
from .ring import HashRing, request_key


class Membership:
    """A live ``name -> address`` view of the fleet.

    Static (a literal mapping) or file-backed (re-read when the fleet
    file's mtime changes).  Unreadable or malformed files keep the last
    good view, so a half-written edit never empties the fleet.
    """

    def __init__(self, nodes: Mapping[str, str] | None = None, *,
                 path: str | None = None):
        self._static = dict(nodes) if nodes is not None else None
        self._path = path
        self._cached: dict[str, str] = dict(self._static or {})
        self._mtime: float | None = None
        self._lock = threading.Lock()

    def nodes(self) -> dict[str, str]:
        """The current membership map (a copy; safe to mutate)."""
        if self._path is None:
            return dict(self._cached)
        with self._lock:
            try:
                mtime = os.stat(self._path).st_mtime
            except OSError:
                return dict(self._cached)
            if mtime != self._mtime:
                try:
                    with open(self._path, encoding="utf-8") as f:
                        loaded = json.load(f)
                    parsed = {str(k): str(v)
                              for k, v in dict(loaded.get("nodes", {})).items()}
                except (OSError, ValueError, AttributeError):
                    return dict(self._cached)
                self._cached = parsed
                self._mtime = mtime
            return dict(self._cached)

    def address(self, name: str) -> str | None:
        """The dial address of ``name``, or None when unknown."""
        return self.nodes().get(name)


def connect(address: str | tuple, *,
            timeout: float = 300.0) -> "ServeClient | FleetClient":
    """A client for ``address``: a :class:`FleetClient` over the fleet
    file when ``address`` is a regular file, else a
    :class:`~repro.serve.ServeClient` to the one node it names (a unix
    socket path or ``host:port``)."""
    if isinstance(address, str) and os.path.isfile(address):
        return FleetClient(Membership(path=address), timeout=timeout)
    return ServeClient(address, timeout=timeout)


def _unavailable(tried: list[str]) -> ServiceUnavailableError:
    return ServiceUnavailableError(
        "no fleet node answered (tried: "
        + (", ".join(tried) or "none, the fleet is empty") + ")"
    )


class FleetClient:
    """The :class:`~repro.serve.ServeClient` surface over a whole fleet.

    ``submit`` and ``fetch`` go to the key's owner; a transport failure
    drops that node's cached connection and tries the next owner, and a
    request no node answers raises :class:`ServiceUnavailableError`
    naming the nodes tried.  ``stats`` and ``shutdown`` go to every node.
    Replies carry the answering node's name as ``node``.

    ``part`` joins every key; when omitted it is asked once of the first
    node that answers ``stats``.  Thread-safe: connections are cached per
    node under a lock and each connection serialises its own requests.
    """

    def __init__(self, membership: Membership, *, part: str | None = None,
                 timeout: float = 300.0):
        self.membership = membership
        self.part = part
        self.timeout = timeout
        self._clients: dict[str, tuple[str, ServeClient]] = {}
        self._lock = threading.Lock()
        self._ring = HashRing()

    # -- connections ----------------------------------------------------------

    def _client(self, name: str, address: str) -> ServeClient:
        with self._lock:
            cached = self._clients.get(name)
            if cached is not None and cached[0] == address:
                return cached[1]
            client = ServeClient(address, timeout=self.timeout)
            self._clients[name] = (address, client)
        if cached is not None:
            cached[1].close()             # the node moved to a new address
        return client

    def call(self, name: str, address: str, msg: dict) -> dict:
        """Send one op to one node over its cached connection; a
        transport failure drops the connection and re-raises."""
        client = self._client(name, address)
        try:
            return client.request(msg)
        except ServiceUnavailableError:
            with self._lock:
                if self._clients.get(name, (None, None))[1] is client:
                    del self._clients[name]
            client.close()
            raise

    def close(self) -> None:
        """Close every cached node connection (idempotent)."""
        with self._lock:
            clients, self._clients = self._clients, {}
        for _, client in clients.values():
            client.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- placement ------------------------------------------------------------

    def fleet_part(self) -> str:
        """The device every key names: as given, else the ``part`` of the
        first node whose ``stats`` answers."""
        if self.part is None:
            nodes = self.membership.nodes()
            for name in sorted(nodes):
                try:
                    reply = self.call(name, nodes[name], {"op": "stats"})
                except ServiceUnavailableError:
                    continue
                self.part = str(reply.get("stats", {}).get("part", ""))
                break
            else:
                raise _unavailable(sorted(nodes))
        return self.part

    def key(self, msg: dict) -> str:
        """The ring key of a ``submit`` or ``fetch`` message: the key the
        owning node's disk cache and every node's peer fill use."""
        op = msg.get("op")
        if op == "fetch":
            tag, digest = str(msg.get("region")), str(msg.get("digest"))
        elif op == "submit":
            request = GenRequest.from_message(msg)
            tag, digest = region_tag(request.region_rect()), request.digest()
        else:
            raise UsageError(f"op {op!r} is not routed by key")
        return request_key(self.fleet_part(), tag, digest)

    def owners(self, key: str) -> list[tuple[str, str]]:
        """The ring walk: every current node as ``(name, address)``, the
        key's owner first, then its ring successors."""
        nodes = self.membership.nodes()
        ring = self._ring
        if ring.nodes != set(nodes):
            ring = self._ring = HashRing(nodes)
        return [(name, nodes[name]) for name in ring.owners(key)]

    # -- requests -------------------------------------------------------------

    def request(self, msg: dict) -> dict:
        """Send a ``submit`` or ``fetch`` to the first of its key's owners
        that answers.  A message no node would accept comes back as a
        ``bad-request`` reply, as a node would send it."""
        try:
            key = self.key(msg)
        except ServiceUnavailableError:
            raise
        except ReproError as exc:
            return {"ok": False, "code": "bad-request", "error": str(exc)}
        tried = []
        for name, address in self.owners(key):
            tried.append(name)
            try:
                reply = self.call(name, address, msg)
            except ServiceUnavailableError:
                continue
            reply.setdefault("node", name)
            return reply
        raise _unavailable(tried)

    def submit(
        self,
        name: str,
        xdl: str,
        *,
        ucf: str | None = None,
        region: str | None = None,
        granularity: str = "column",
    ) -> dict:
        """Submit one generation request to its owner; the raw reply."""
        return self.request({
            "op": "submit", "name": name, "xdl": xdl, "ucf": ucf,
            "region": region, "granularity": granularity,
        })

    def fetch(self, base_key: str, region_tag: str, digest: str) -> bytes | None:
        """The owner's cached bytes for a key, or None (never generates)."""
        reply = self.request({"op": "fetch", "base": base_key,
                              "region": region_tag, "digest": digest})
        return decode_partial(reply) if reply.get("found") else None

    def _each(self, op: str) -> dict[str, dict]:
        replies = {}
        for name, address in sorted(self.membership.nodes().items()):
            try:
                replies[name] = self.call(name, address, {"op": op})
            except ServiceUnavailableError as exc:
                replies[name] = {"ok": False, "error": str(exc)}
        return replies

    def stats(self) -> dict:
        """Every node's stats, keyed by node name, under ``stats`` (an
        unreachable node maps to its error)."""
        return {"ok": True, "stats": {name: reply.get("stats", reply)
                                      for name, reply in self._each("stats").items()}}

    def shutdown(self) -> dict:
        """Drain and stop every node; ``ok`` when all of them answered."""
        replies = self._each("shutdown")
        return {"ok": all(r.get("ok") for r in replies.values()), "nodes": replies}
