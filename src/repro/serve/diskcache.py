"""Persistent content-addressed cache: warm starts across processes.

The in-memory :class:`~repro.batch.cache.FrameCache` dies with its
process, so a restarted service pays every region clear again even though
nothing changed.  This module spills both kinds of shareable state to
disk, keyed entirely by content:

* **cleared-region states** under ``<root>/cleared/``, keyed by
  ``(base fingerprint, region footprint)`` — one ``.npz`` holding the
  clear's :class:`~repro.bitstream.frames.FrameDelta`: the device name,
  the changed frames' indices and their cleared rows;
* **finished partial bitstreams** under ``<root>/partials/``, keyed by
  ``(base fingerprint, region footprint, module digest)`` — the raw
  configuration bytes, byte-identical to a fresh generation.

Content keying makes entries immutable: a key either names exactly one
value or nothing, so a second process (or a process restarted after a
kill) can trust whatever it finds.  Writes are atomic (temp file +
``os.replace``) so a crash mid-store leaves no torn entry, and unreadable
entries — torn, of an older format, or with shapes or frame indices that
do not fit their device — are treated as misses and deleted.

Cross-process coordination uses ``fcntl`` file locks under
``<root>/locks/``: :meth:`DiskCache.lock` serializes the *fetch* and the
*store* of one key — never the compute in between, so one process's slow
clear cannot stall every other process on the same key.  Two racers may
duplicate a compute, but stores re-verify under the lock and the first
entry wins; content keying makes the duplicates byte-identical, so the
outcome is one entry either way.  Total size is LRU-capped: loads
refresh an entry's mtime and
stores evict the stalest entries once ``max_bytes`` is exceeded.

Disk traffic is observable as ``serve.disk_hit`` / ``serve.disk_miss`` /
``serve.disk_store`` / ``serve.disk_evict`` counters on the context's
metrics registry.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
from contextlib import AbstractContextManager
from dataclasses import dataclass

import numpy as np

try:  # pragma: no cover - fcntl exists on every POSIX platform we target
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from ..batch.cache import ClearedState, FrameCache
from ..bitstream.frames import FrameDelta
from ..devices import get_device
from ..errors import ServeError
from ..flow.floorplan import RegionRect
from ..obs import current_metrics


def region_tag(region: RegionRect | None) -> str:
    """Filename-safe footprint tag (``"none"`` for region-less requests)."""
    if region is None:
        return "none"
    return f"{region.rmin}_{region.cmin}_{region.rmax}_{region.cmax}"


@dataclass(frozen=True)
class DiskCacheStats:
    """Hit/miss/store/evict accounting snapshot."""

    hits: int
    misses: int
    stores: int
    evictions: int


class _FileLock:
    """A blocking exclusive ``fcntl`` lock on one lock file.

    Each acquisition opens its own descriptor, so the same lock object
    excludes concurrent threads of one process as well as other processes.
    """

    def __init__(self, path: str):
        self.path = path
        self._local = threading.local()

    def __enter__(self) -> "_FileLock":
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        self._local.fd = fd
        return self

    def __exit__(self, *exc) -> None:
        fd = self._local.fd
        self._local.fd = None
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


class DiskCache:
    """Content-addressed on-disk store of cleared states and partials."""

    def __init__(self, root: str, *, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ServeError(f"max_bytes must be positive, got {max_bytes}")
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        for sub in ("cleared", "partials", "locks"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0

    # -- paths / locks --------------------------------------------------------

    def cleared_path(self, base_key: str, region: RegionRect) -> str:
        """On-disk path of one cleared-region state."""
        return os.path.join(
            self.root, "cleared", f"{base_key[:32]}-{region_tag(region)}.npz"
        )

    def partial_path(
        self, base_key: str, region: RegionRect | None, module_digest: str
    ) -> str:
        """On-disk path of one finished partial bitstream."""
        return self.partial_path_tag(base_key, region_tag(region), module_digest)

    def partial_path_tag(self, base_key: str, tag: str, module_digest: str) -> str:
        """On-disk path of one finished partial, by footprint *tag* — the
        form peer-fill ``fetch`` requests carry on the wire."""
        return os.path.join(
            self.root, "partials",
            f"{base_key[:32]}-{tag}-{module_digest[:32]}.bit",
        )

    def lock(self, name: str) -> AbstractContextManager:
        """A blocking cross-process lock scoped to ``name``."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return contextlib.nullcontext()
        return _FileLock(os.path.join(self.root, "locks", f"{name}.lock"))

    @property
    def stats(self) -> DiskCacheStats:
        """Hit/miss/store/eviction counters (thread-safe snapshot)."""
        with self._lock:
            return DiskCacheStats(self._hits, self._misses,
                                  self._stores, self._evictions)

    # -- cleared-region states ------------------------------------------------

    def load_cleared(self, base_key: str, region: RegionRect) -> ClearedState | None:
        """The spilled cleared state for ``(base_key, region)``, or None."""
        path = self.cleared_path(base_key, region)
        try:
            with np.load(path, allow_pickle=False) as npz:
                # FrameDelta checks the shapes and the index range
                delta = FrameDelta(get_device(str(npz["device"])),
                                   npz["frames"], npz["rows"])
        except FileNotFoundError:
            self._miss()
            return None
        except Exception:
            # torn or stale entry (e.g. written by an older format): a miss,
            # and the entry is dropped so it cannot keep failing
            with contextlib.suppress(OSError):
                os.unlink(path)
            self._miss()
            return None
        self._hit(path)
        return delta

    def store_cleared(self, base_key: str, region: RegionRect,
                      value: ClearedState) -> None:
        """Persist one cleared-region state (atomic write-then-rename)."""
        path = self.cleared_path(base_key, region)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(
                    f,
                    device=np.array(value.device.name),
                    frames=value.frames,
                    rows=value.rows,
                )
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self._stored()

    # -- finished partials ----------------------------------------------------

    def load_partial(self, base_key: str, region: RegionRect | None,
                     module_digest: str) -> bytes | None:
        """The stored partial bitstream for the key, or None."""
        return self.load_partial_tag(base_key, region_tag(region), module_digest)

    def load_partial_tag(self, base_key: str, tag: str,
                         module_digest: str) -> bytes | None:
        """The stored partial for a tag-form key, or None (peer fetches)."""
        path = self.partial_path_tag(base_key, tag, module_digest)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            self._miss()
            return None
        self._hit(path)
        return data

    def store_partial_tag(self, base_key: str, tag: str, module_digest: str,
                          data: bytes) -> None:
        """Persist one finished partial under a tag-form key (atomic)."""
        path = self.partial_path_tag(base_key, tag, module_digest)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self._stored()

    def store_partial(self, base_key: str, region: RegionRect | None,
                      module_digest: str, data: bytes) -> None:
        """Persist one finished partial (atomic write-then-rename)."""
        self.store_partial_tag(base_key, region_tag(region), module_digest, data)

    # -- accounting / capping -------------------------------------------------

    def _hit(self, path: str) -> None:
        # refresh recency so LRU eviction favors cold entries
        with contextlib.suppress(OSError):
            os.utime(path)
        with self._lock:
            self._hits += 1
        current_metrics().count("serve.disk_hit")

    def _miss(self) -> None:
        with self._lock:
            self._misses += 1
        current_metrics().count("serve.disk_miss")

    def _stored(self) -> None:
        with self._lock:
            self._stores += 1
        current_metrics().count("serve.disk_store")
        if self.max_bytes is not None:
            self._enforce_cap()

    def _entries(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) of every cache entry, oldest first."""
        out = []
        for sub in ("cleared", "partials"):
            d = os.path.join(self.root, sub)
            for name in os.listdir(d):
                if name.endswith(".tmp"):
                    continue
                path = os.path.join(d, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                out.append((st.st_mtime, st.st_size, path))
        out.sort()
        return out

    def size_bytes(self) -> int:
        """Total bytes currently stored (entries only, not locks)."""
        return sum(size for _, size, _ in self._entries())

    def _enforce_cap(self) -> None:
        """Evict least-recently-used entries until under ``max_bytes``."""
        with self.lock("evict"):
            entries = self._entries()
            total = sum(size for _, size, _ in entries)
            evicted = 0
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                with contextlib.suppress(OSError):
                    os.unlink(path)
                    total -= size
                    evicted += 1
        if evicted:
            with self._lock:
                self._evictions += evicted
            current_metrics().count("serve.disk_evict", evicted)


class PersistentFrameCache(FrameCache):
    """A :class:`FrameCache` that spills cleared states through a
    :class:`DiskCache`.

    Lookups fall through memory to disk before computing and computes are
    written back under the per-key file lock.  The lock covers only the
    disk fetch/store, so a racing process may duplicate a compute, but
    every store re-verifies the entry first: the key converges on a
    single value and nobody ever blocks behind another process's clear.
    """

    def __init__(self, disk: DiskCache):
        super().__init__()
        self.disk = disk

    def _fetch(self, base_key: str, region: RegionRect) -> ClearedState | None:
        return self.disk.load_cleared(base_key, region)

    def _store(self, base_key: str, region: RegionRect, value: ClearedState) -> None:
        self.disk.store_cleared(base_key, region, value)

    def _compute_lock(self, base_key: str, region: RegionRect) -> AbstractContextManager:
        return self.disk.lock(f"cleared-{base_key[:32]}-{region_tag(region)}")
