"""The two-tier peer-fill cache client.

**Peer fill** is tier 2 of the cluster cache.  Tier 1 is each node's own
:class:`~repro.serve.diskcache.DiskCache`; on a tier-1 miss the node asks
the key's *owning* peer (consistent hash over the current membership) for
its cached bytes before generating.  In steady state the client already
sent the request to the owner, so peer fill is a no-op; after a
membership change or a node restart it is what re-warms the fleet from
itself instead of regenerating — the content-addressed key makes the
fetched bytes trustworthy by construction.  Every failure mode (peer
down, timeout, miss) degrades to ``None``, which the service answers by
generating locally: peer fill can only ever *save* work.
"""

from __future__ import annotations

from ..errors import ServiceUnavailableError
from ..obs import current_metrics
from ..serve import decode_partial
from .client import FleetClient, Membership


class PeerFiller:
    """The ``peer_fetch`` callable a cluster node plugs into its
    :class:`~repro.serve.service.GenerationService`.

    On call it walks the key's ring owners over the *current* membership
    (owner first, then the successors the key most likely lived on before
    a re-shard) through a :class:`~repro.cluster.FleetClient`, skips
    itself, and sends the wire ``fetch`` op to at most ``probes`` peers.
    Every failure is a miss.  Thread-safe — the scheduler calls it from
    its worker threads.
    """

    def __init__(self, membership: Membership, self_name: str, *,
                 part: str = "", probes: int = 2, timeout: float = 5.0):
        self.fleet = FleetClient(membership, part=part, timeout=timeout)
        self.self_name = self_name
        self.probes = probes

    def close(self) -> None:
        """Close every cached peer connection (idempotent)."""
        self.fleet.close()

    def __call__(self, base_key: str, region_tag: str, digest: str) -> bytes | None:
        """Tier-2 lookup: the owning peer's cached bytes, or None."""
        msg = {"op": "fetch", "base": base_key, "region": region_tag,
               "digest": digest}
        peers = [(name, address)
                 for name, address in self.fleet.owners(self.fleet.key(msg))
                 if name != self.self_name]
        metrics = current_metrics()
        for name, address in peers[:self.probes]:
            metrics.count("cluster.peer_probes")
            try:
                reply = self.fleet.call(name, address, msg)
            except ServiceUnavailableError:
                # peer down or protocol failure: the connection is dropped;
                # the next probe (or local generation) takes over
                metrics.count("cluster.peer_fetch_errors")
                continue
            if reply.get("found"):
                metrics.count("cluster.peer_fetch_hits")
                return decode_partial(reply)
        return None
