"""Content-keyed frame cache: shared work across partial generations.

Generating a partial clears the target region on a copy of the base
configuration before replaying the module — and profiling shows that
clear dominates the per-module cost.  Yet the cleared state depends only
on (base configuration content, region footprint): every variant of one
region's module starts from the *same* cleared frames.  This cache keys
that state by a digest of the base frame memory plus the region rectangle,
so N versions of one region pay for one clear.  An entry is the
:class:`~repro.bitstream.frames.FrameDelta` of the clear — the frames it
changed and their cleared words — not a copy of the whole device.

Content keying doubles as invalidation: a changed base bitstream hashes
to a different :func:`fingerprint`, so every entry derived from the old
base simply stops matching (``invalidate()`` also exists for explicit
eviction).  Entries are computed *single-flight* — concurrent workers
asking for the same key block on one computation instead of duplicating
it — which keeps hit/miss accounting deterministic under the serve
scheduler's concurrent threads.

Hits and misses are counted both on the cache (:attr:`FrameCache.stats`)
and on the context's metrics registry (``framecache.hit`` /
``framecache.miss`` counters).
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from collections.abc import Callable
from contextlib import AbstractContextManager
from dataclasses import dataclass

import numpy as np

from ..bitstream.frames import FrameDelta, FrameMemory
from ..flow.floorplan import RegionRect
from ..obs import current_metrics

#: A cached cleared-region state: the frames zeroing the region's tiles
#: changed on the base, with their words after the clear.
ClearedState = FrameDelta


def fingerprint(frames: FrameMemory) -> str:
    """Content digest of a frame memory (device-qualified).

    Two memories with equal content on the same part fingerprint equally;
    any change to the base configuration changes the digest, which is what
    invalidates cache entries derived from it.
    """
    h = hashlib.sha256(frames.device.name.encode())
    # through the buffer protocol: no transient copy of the whole device
    h.update(np.ascontiguousarray(frames.data))
    return h.hexdigest()


def region_key(region: RegionRect) -> tuple[int, int, int, int]:
    """The footprint part of a cache key."""
    return (region.rmin, region.cmin, region.rmax, region.cmax)


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting snapshot."""

    hits: int
    misses: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _Entry:
    """One cache slot with its own lock (single-flight computation)."""

    __slots__ = ("lock", "value")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.value: ClearedState | None = None


class FrameCache:
    """Cache of cleared-region frame states, keyed by content.

    Share one instance across every :class:`~repro.core.jpg.Jpg` (or one
    :class:`~repro.batch.engine.BatchJpg`) generating against the same
    base; it is safe to use from multiple threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple, _Entry] = {}
        self._hits = 0
        self._misses = 0

    @staticmethod
    def base_key(frames: FrameMemory) -> str:
        """The content key a configuration state caches under (see
        :func:`fingerprint`)."""
        return fingerprint(frames)

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for e in self._entries.values() if e.value is not None)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses)

    def invalidate(self, base_key: str | None = None) -> int:
        """Drop every entry (or only those derived from ``base_key``);
        returns the number of entries removed.  Rarely needed — content
        keying already sidesteps stale bases — but useful to bound memory
        when one long-lived cache sees many bases."""
        with self._lock:
            if base_key is None:
                n = len(self._entries)
                self._entries.clear()
            else:
                doomed = [k for k in self._entries if k[0] == base_key]
                for k in doomed:
                    del self._entries[k]
                n = len(doomed)
            return n

    def cleared(
        self,
        base_key: str,
        region: RegionRect,
        factory: Callable[[], ClearedState],
    ) -> ClearedState:
        """The cleared-region state for ``(base_key, region)``.

        On miss, ``factory`` runs (once, even under concurrency) and its
        result is stored; on hit, the stored state returns immediately.
        The returned delta is shared and read-only: a caller redoes the
        clear by writing its ``rows`` into its own copy of the base, at
        ``frames``.
        """
        key = (base_key, region_key(region))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Entry()
        metrics = current_metrics()
        with entry.lock:
            if entry.value is None:
                # spill layer first: another process (or a previous run of
                # this one) may already have computed this state.  The
                # cross-process lock covers only the fetch and the store —
                # never the compute.  Holding it across factory() (as an
                # earlier version did) stalls every other process behind
                # one slow clear; instead a racing process may duplicate
                # the compute, and the store re-verifies under the lock so
                # whichever entry landed first wins.  Content keying makes
                # the duplicates byte-identical, so either answer is right.
                with self._compute_lock(base_key, region):
                    value = self._fetch(base_key, region)
                if value is None:
                    value = factory()
                    with self._compute_lock(base_key, region):
                        stored = self._fetch(base_key, region)
                        if stored is None:
                            self._store(base_key, region, value)
                        else:
                            value = stored  # lost the race: converge on theirs
                    with self._lock:
                        self._misses += 1
                    metrics.count("framecache.miss")
                else:
                    with self._lock:
                        self._hits += 1
                    metrics.count("framecache.hit")
                entry.value = value
            else:
                with self._lock:
                    self._hits += 1
                metrics.count("framecache.hit")
            return entry.value

    # -- spill hooks (overridden by persistent subclasses) --------------------

    def _fetch(self, base_key: str, region: RegionRect) -> ClearedState | None:
        """Look a cleared state up in a backing store (None = not there).
        The in-memory cache stores nothing beyond the process."""
        return None

    def _store(self, base_key: str, region: RegionRect, value: ClearedState) -> None:
        """Spill a freshly computed cleared state to a backing store."""

    def _compute_lock(self, base_key: str, region: RegionRect) -> AbstractContextManager:
        """Serialize fetch/store for one key across *processes* (held only
        around those, never around the compute itself).  In-memory caching
        needs no cross-process lock."""
        return contextlib.nullcontext()
