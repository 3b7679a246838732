"""Execution backends: how a batch of generations actually runs.

The batch engine used to be welded to one strategy (a thread pool).  This
module factors the strategy out into a small :class:`Backend` interface
with three implementations:

* :class:`SerialBackend` — items run inline on the calling thread.  The
  reference semantics; every other backend must match its output
  byte-for-byte.
* :class:`ThreadBackend` — a per-run ``ThreadPoolExecutor``.  Cheap to
  start and shares the in-process frame cache directly, but generation is
  CPU-bound numpy-plus-Python work, so the GIL caps the speedup.
* ``"warm"`` — :class:`~repro.exec.pool.WarmPoolBackend`, a persistent
  pool of forked worker processes.  The base frame memory is published
  once via :mod:`repro.exec.shm` and attached zero-copy by every worker;
  workers write results into a preallocated shared output arena, and
  cleared-region states come home as dirty-frame deltas that re-seed the
  parent's cache.  Registered here by name but defined in
  :mod:`repro.exec.pool`.

Backends are engine-agnostic objects: ``run(engine, items)`` executes a
manifest for one :class:`~repro.batch.engine.BatchJpg` and returns results
in manifest order.  A backend failure (dead worker, lost shared memory)
raises :class:`~repro.errors.ExecError` and aborts the run — per-item
generation errors, by contrast, land on the item's result exactly as in
the serial path, so a batch never silently loses items.

:func:`default_workers` is the one sizing policy everything shares: the
``JPG_WORKERS`` environment variable wins, a pool worker always answers 1
(it must never nest its own pool), and otherwise the CPU count decides,
capped at 8.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from ..errors import ExecError

if TYPE_CHECKING:
    from ..batch.cache import CacheStats
    from ..batch.engine import BatchItem, BatchItemResult, BatchJpg

#: Worker cap when sizing from the CPU count (a generation pipeline stops
#: scaling well before the core counts of large hosts).
MAX_DEFAULT_WORKERS = 8

#: Set (via :func:`mark_worker_process`) inside pool worker processes so
#: nested sizing decisions collapse to 1.
_IN_WORKER = False


def mark_worker_process() -> None:
    """Record that this process is a pool worker (called by the worker
    initializer; never unset — workers die with the pool)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    """True when running inside a pool worker process."""
    return _IN_WORKER


def default_workers(limit: int | None = None) -> int:
    """How many workers a pool should get, absent an explicit count.

    Priority: the ``JPG_WORKERS`` environment variable, then 1 if this
    process is itself a pool worker (no nested pools), then the CPU count
    capped at :data:`MAX_DEFAULT_WORKERS`.  ``limit`` (e.g. the number of
    items) bounds the answer; the result is always >= 1.
    """
    env = os.environ.get("JPG_WORKERS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ExecError(f"JPG_WORKERS must be an integer, got {env!r}") from None
        if n < 1:
            raise ExecError(f"JPG_WORKERS must be >= 1, got {n}")
    elif _IN_WORKER:
        n = 1
    else:
        n = min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS)
    if limit is not None:
        n = min(n, max(1, limit))
    return max(1, n)


class Backend(ABC):
    """Strategy for executing a manifest of independent generations."""

    #: Name used by ``--backend`` and reports.
    name: str = "?"

    @abstractmethod
    def run(
        self,
        engine: "BatchJpg",
        items: list["BatchItem"],
        workers: int | None = None,
    ) -> list["BatchItemResult"]:
        """Generate every item; results in manifest order.  Raises
        :class:`ExecError` if the backend itself fails."""

    def run_one(self, engine: "BatchJpg", item: "BatchItem") -> "BatchItemResult":
        """Generate a single item (the long-lived-service path).  Default:
        inline on the calling thread."""
        return engine.generate_one(item)

    def cache_stats(self, engine: "BatchJpg") -> "CacheStats":
        """Frame-cache accounting for a finished run.  In-process backends
        read the engine's cache; the warm pool aggregates what its workers
        reported."""
        return engine.cache.stats

    def planned_workers(self) -> int | None:
        """The worker count this backend runs with, if it owns a pool of
        known size (``None`` otherwise).  Lets the serve scheduler size
        its shepherd threads to match."""
        return None

    def close(self) -> None:
        """Release pools / shared memory.  Idempotent."""


class SerialBackend(Backend):
    """Run items inline, one after another — the reference semantics."""

    name = "serial"

    def run(self, engine, items, workers=None):
        """Generate every item inline on the calling thread, in order."""
        return [engine.generate_one(item) for item in items]


class ThreadBackend(Backend):
    """A per-run thread pool (the engine's historical behavior)."""

    name = "thread"

    def __init__(self, workers: int | None = None):
        self.workers = workers

    def run(self, engine, items, workers=None):
        """Fan items out over a fresh thread pool sized by the usual
        worker policy; results come back in manifest order."""
        if not items:
            return []
        n = workers or self.workers or default_workers(limit=len(items))
        engine.metrics.gauge("exec.pool_workers", n)
        with ThreadPoolExecutor(max_workers=n) as pool:
            return list(pool.map(engine.generate_one, items))


def _warm_backend(workers: int | None = None) -> Backend:
    """Construct a :class:`~repro.exec.pool.WarmPoolBackend` (imported
    lazily: pool.py imports this module, so a top-level import would be
    circular)."""
    from .pool import WarmPoolBackend

    return WarmPoolBackend(workers)


_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "warm": _warm_backend,
}

#: Names accepted by ``--backend`` / ``backend=``.
BACKEND_NAMES = tuple(_BACKENDS)

#: The backends that own a pool and take a worker count (``--pool-size``).
_POOLED = ("thread", "warm")


def get_backend(backend: str | Backend, workers: int | None = None) -> Backend:
    """Resolve a backend argument: a :class:`Backend` instance passes
    through, a name constructs the matching class.  ``workers`` pins the
    pool size of a pooled backend."""
    if isinstance(backend, Backend):
        return backend
    factory = _BACKENDS.get(backend)
    if factory is None:
        raise ExecError(
            f"unknown backend {backend!r} (expected one of {', '.join(_BACKENDS)})"
        )
    if workers is None:
        return factory()
    if backend not in _POOLED:
        raise ExecError(
            f"the {backend!r} backend has no pool to size "
            f"(pooled backends: {', '.join(_POOLED)})"
        )
    return factory(workers)
