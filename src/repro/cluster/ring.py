"""Consistent hashing: stable key placement across a changing fleet.

The cluster's whole premise is that everything below the scheduler
already coalesces and single-flights, so the remaining multiplier is
*placement*: send every request for one key to one node and that node's
disk cache turns the fleet into a sharded content-addressed store.  The
classic tool is a consistent-hash ring (Karger et al.): each node is
hashed onto a circle at ``vnodes`` pseudo-random points, a key is hashed
onto the same circle, and the key's **owner** is the first node point at
or after it.  Adding or removing one node then moves only ``~1/N`` of
the key space — which is exactly what lets the two-tier peer-fill cache
(:mod:`repro.cluster.peers`) re-warm a re-sharded fleet instead of
regenerating everything.

Keys are plain strings.  The canonical request key is
:func:`request_key` — ``device | region footprint | content digest`` —
the same three coordinates the disk cache is addressed by, so every
client (:class:`~repro.cluster.FleetClient`) and every worker node's peer
fill compute identical placement without coordination.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable

from ..errors import ServeError

#: Points each node contributes to the ring; more points = smoother
#: balance at the cost of a (still tiny) sorted array.
DEFAULT_VNODES = 64  # not-a-frame-count


def _ring_hash(text: str) -> int:
    """A stable 64-bit position on the ring (sha256-derived, not
    ``hash()`` — placement must agree across processes and runs)."""
    return int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:8], "big"
    )


def request_key(part: str, region_tag: str, digest: str) -> str:
    """The canonical routing key: ``(device, region footprint,
    content digest)`` — the disk cache's coordinates, stringified."""
    return f"{part}|{region_tag}|{digest}"


class HashRing:
    """A consistent-hash ring over named nodes.

    Membership changes (:meth:`add` / :meth:`remove`) are cheap and move
    a minimal slice of the key space; lookups are ``O(log(N * vnodes))``
    bisections.  Node names are opaque strings (the cluster uses stable
    node *names*, not addresses, so a restarted node on a new port keeps
    its shard).
    """

    def __init__(self, nodes: Iterable[str] = (), *, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ServeError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: list[tuple[int, str]] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    # -- membership -----------------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        """The current member set (frozen snapshot)."""
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Join ``node``; a no-op when it is already a member."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.vnodes):
            pair = (_ring_hash(f"{node}#{i}"), node)
            bisect.insort(self._points, pair)

    def remove(self, node: str) -> None:
        """Leave ``node``; a no-op when it is not a member."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]

    def replace(self, nodes: Iterable[str]) -> bool:
        """Reconcile membership to exactly ``nodes``; True if it changed."""
        target = set(nodes)
        changed = False
        for node in self._nodes - target:
            self.remove(node)
            changed = True
        for node in target - self._nodes:
            self.add(node)
            changed = True
        return changed

    # -- placement ------------------------------------------------------------

    def owner(self, key: str) -> str:
        """The node owning ``key`` (raises :class:`ServeError` when empty)."""
        owners = self.owners(key, 1)
        if not owners:
            raise ServeError("hash ring is empty: no nodes to own the key")
        return owners[0]

    def owners(self, key: str, n: int | None = None) -> list[str]:
        """The key's preference list: up to ``n`` *distinct* nodes in ring
        order starting at the owner.  This is the peer-fill probe order —
        the first entry is the owner, the rest are where the key most
        likely lived before the last membership change."""
        if not self._points:
            return []
        want = len(self._nodes) if n is None else min(n, len(self._nodes))
        start = bisect.bisect_left(self._points, (_ring_hash(key), ""))
        out: list[str] = []
        for i in range(len(self._points)):
            node = self._points[(start + i) % len(self._points)][1]
            if node not in out:
                out.append(node)
                if len(out) >= want:
                    break
        return out
