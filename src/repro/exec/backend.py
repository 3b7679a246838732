"""Execution backends: how a batch of generations actually runs.

A small :class:`Backend` interface with two implementations:

* :class:`SerialBackend` — items run inline on the calling thread.  The
  default and the reference semantics; the warm pool must match its
  output byte-for-byte.  Generation is CPU-bound numpy-plus-Python work,
  so an in-process thread pool only adds GIL contention on top of it.
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

:func:`default_workers` is the one sizing policy the warm pool and the
serve scheduler share: the ``JPG_WORKERS`` environment variable wins,
otherwise the CPU count decides, capped at 8.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from ..errors import ExecError

if TYPE_CHECKING:
    from ..batch.cache import CacheStats
    from ..batch.engine import BatchItem, BatchItemResult, BatchJpg

#: Worker cap when sizing from the CPU count (a generation pipeline stops
#: scaling well before the core counts of large hosts).
MAX_DEFAULT_WORKERS = 8


def default_workers() -> int:
    """How many workers a pool should get, absent an explicit count.

    Priority: the ``JPG_WORKERS`` environment variable, then the CPU count
    capped at :data:`MAX_DEFAULT_WORKERS`; the result is always >= 1.
    """
    env = os.environ.get("JPG_WORKERS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ExecError(f"JPG_WORKERS must be an integer, got {env!r}") from None
        if n < 1:
            raise ExecError(f"JPG_WORKERS must be >= 1, got {n}")
    else:
        n = min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS)
    return max(1, n)


class Backend(ABC):
    """Strategy for executing a manifest of independent generations."""

    #: Name used by ``--backend`` and reports.
    name: str = "?"

    @abstractmethod
    def run(
        self, engine: "BatchJpg", items: list["BatchItem"]
    ) -> list["BatchItemResult"]:
        """Generate every item; results in manifest order.  Raises
        :class:`ExecError` if the backend itself fails.  A pooled backend
        runs with the worker count it was constructed with."""

    def run_one(self, engine: "BatchJpg", item: "BatchItem") -> "BatchItemResult":
        """Generate a single item (the long-lived-service path).  Default:
        inline on the calling thread."""
        return engine.generate_one(item)

    def cache_stats(self, engine: "BatchJpg") -> "CacheStats":
        """Frame-cache accounting for a finished run.  The serial backend
        reads the engine's cache; the warm pool aggregates what its workers
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

    def run(self, engine, items):
        """Generate every item inline on the calling thread, in order."""
        return [engine.generate_one(item) for item in items]


def _warm_backend(workers: int | None = None) -> Backend:
    """Construct a :class:`~repro.exec.pool.WarmPoolBackend` (imported
    lazily: pool.py imports this module, so a top-level import would be
    circular)."""
    from .pool import WarmPoolBackend

    return WarmPoolBackend(workers)


_BACKENDS = {
    "serial": SerialBackend,
    "warm": _warm_backend,
}

#: Names accepted by ``--backend`` / ``backend=``.
BACKEND_NAMES = tuple(_BACKENDS)

#: The backends that own a pool and take a worker count (``--pool-size``).
POOLED_BACKENDS = ("warm",)


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
    if backend not in POOLED_BACKENDS:
        raise ExecError(
            f"the {backend!r} backend has no pool to size "
            f"(pooled backends: {', '.join(POOLED_BACKENDS)})"
        )
    return factory(workers)
