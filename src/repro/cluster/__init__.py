"""The distributed generation cluster (``jpg serve`` fleets, ``jpg loadgen``).

One ``jpg serve`` node already makes repeated work free (persistent
disk cache, coalescing scheduler, pooled backends).  This package scales
that *horizontally* while keeping every byte identical:

* :mod:`repro.cluster.ring` — consistent hashing: each request key
  (device, region footprint, content digest — the disk cache's own
  coordinates) owns exactly one node, so the fleet is a sharded
  content-addressed store and N nodes means N disjoint caches, not N
  copies of one.
* :mod:`repro.cluster.client` — fleet membership (a static map or the
  mtime-reloaded fleet file) and :class:`FleetClient`, which routes on
  the client: it sends each submit to its key's owner and, when that
  node cannot be reached, to the next owner on the ring.  There is no
  front-end process; every client holding the fleet file agrees on
  placement.
* :mod:`repro.cluster.peers` — tier 2 of the cache: on a local disk
  miss a node asks the key's owning peer for its cached bytes (wire
  ``fetch`` op, strictly cache-to-cache) before generating, so a
  re-sharded or restarted fleet warms itself instead of regenerating.
* :mod:`repro.cluster.fleet` — spawn a local loopback fleet of real
  worker processes (ephemeral ports, two-phase fleet-file bootstrap).
* :mod:`repro.cluster.loadgen` — the fleet-scale load harness:
  zipf-skewed synthetic replay, p50/p95/p99 latency, per-tier hit
  ratios, and byte-identity verification against direct generation.

See ``docs/ARCHITECTURE.md`` ("The cluster") for the full design.
"""

from .client import FleetClient, Membership, connect
from .fleet import LocalFleet
from .loadgen import (
    KeySpec,
    ReplayStats,
    Workload,
    build_workload,
    replay,
    run_harness,
    zipf_sequence,
)
from .peers import PeerFiller
from .ring import HashRing, request_key

__all__ = [
    "FleetClient",
    "HashRing",
    "KeySpec",
    "LocalFleet",
    "Membership",
    "PeerFiller",
    "ReplayStats",
    "Workload",
    "build_workload",
    "connect",
    "replay",
    "request_key",
    "run_harness",
    "zipf_sequence",
]
