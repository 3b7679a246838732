"""The warm worker pool: persistent forked workers behind a shared arena.

On small batches the fork/attach cost of a fresh process pool dominates
and parallelism is a net loss.  The warm pool closes that gap by making
every per-batch cost a per-*pool* cost:

* workers are forked **once** and reused across batches (and across serve
  requests — the scheduler and the batch engine share one pool);
* the shared-memory base frames are published and attached **once**, at
  spawn;
* replies come home through a preallocated :class:`~repro.exec.shm.
  OutputArena` — each worker owns one fixed slot and sends only a byte
  count over its control pipe — instead of being pickled through pipe
  buffers per task.

:class:`WarmPool` owns the full lifecycle: spawn, health-check
(:meth:`WarmPool.ping`, :meth:`WarmPool.ensure`), recycle-on-crash (a
dead worker is respawned in place and the task retried exactly once
before :class:`~repro.errors.ExecError`), drain, and shutdown.
:class:`WarmPoolBackend` adapts the pool to the :class:`~repro.exec.
backend.Backend` interface so ``backend="warm"`` plugs into ``BatchJpg``
and the serve scheduler unchanged.

Observability: the pool reports ``exec.pool.*`` metrics through the bound
engine's registry — gauges ``workers_alive`` and ``arena_bytes``,
counters ``tasks``, ``recycles``, ``retries``, and ``arena_spills`` (see
docs/API.md's metrics catalog).
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import ExecError
from .backend import Backend, default_workers
from .shm import OutputArena, SharedFrames

if TYPE_CHECKING:
    from ..batch.cache import CacheStats
    from ..batch.engine import BatchItem, BatchJpg

#: How long (seconds) a clean shutdown waits for a worker before killing it.
_JOIN_TIMEOUT = 5.0

#: How long (seconds) :meth:`WarmPool.ping` waits for each pong.
_PING_TIMEOUT = 5.0


def _cache_spec(engine: "BatchJpg"):
    """A picklable recipe for the worker-side cache: disk-backed workers
    rebuild the engine's persistent cache (sharing entries through the
    filesystem); everyone else gets a private in-memory cache whose
    computes come home as deltas."""
    disk = getattr(engine.cache, "disk", None)
    if disk is not None:
        return ("disk", disk.root, disk.max_bytes)
    return None


@dataclass
class _Seat:
    """One worker slot: the live process plus the parent end of its pipe.

    The seat index is stable for the pool's lifetime — it names the
    worker's arena slot — while the process occupying it may be recycled.
    """

    idx: int
    process: Any
    conn: Any


class WarmPool:
    """A persistent pool of forked workers over one shared base.

    Construct once, bind lazily to the first engine that runs on it, and
    keep it hot: ``BatchJpg`` batches and serve-scheduler requests both
    dispatch through :meth:`run_task`, and nothing is torn down between
    them.  Thread-safe — concurrent callers each check out an idle seat
    from an internal queue, so at most one task is in flight per worker.

    ``workers`` defaults to the :func:`~repro.exec.backend.
    default_workers` policy (``JPG_WORKERS`` wins, then CPU count capped
    at 8).  ``slot_bytes`` sizes each worker's arena slot; oversized
    replies fall back to inline pipe transport rather than failing.
    """

    def __init__(self, workers: int | None = None, *,
                 start_method: str | None = None,
                 slot_bytes: int = OutputArena.DEFAULT_SLOT_BYTES):
        self.workers = workers
        self.start_method = start_method
        self.slot_bytes = slot_bytes
        self._seats: list[_Seat] = []
        self._idle: queue.Queue[int] = queue.Queue()
        self._lock = threading.Lock()
        self._shared: SharedFrames | None = None
        self._arena: OutputArena | None = None
        self._engine: BatchJpg | None = None
        self._initargs: tuple | None = None
        self._ctx = None
        self._closed = False
        # lifetime counters, surfaced as exec.pool.* metrics by the backend
        self.tasks = 0
        self.recycles = 0
        self.retries = 0
        self.arena_spills = 0
        self._worker_hits = 0
        self._worker_misses = 0

    # -- lifecycle ------------------------------------------------------------

    def planned_workers(self) -> int:
        """How many workers this pool runs (or will run once bound)."""
        if self._seats:
            return len(self._seats)
        return self.workers or default_workers()

    @property
    def bound(self) -> bool:
        """True once the pool has spawned against an engine's base."""
        return self._engine is not None

    def bind(self, engine: "BatchJpg") -> None:
        """Publish ``engine``'s base, allocate the arena, spawn workers.

        Idempotent for the same engine; binding a second engine raises
        (one pool serves one shared base).  Called lazily by
        :class:`WarmPoolBackend` on first use.
        """
        with self._lock:
            if self._engine is not None:
                if engine is not self._engine:
                    raise ExecError(
                        "warm pool is already bound to another engine; "
                        "use one WarmPool per shared base"
                    )
                return
            if self._closed:
                raise ExecError("warm pool is closed")
            method = self.start_method
            if method is None:
                method = ("fork" if "fork" in
                          multiprocessing.get_all_start_methods() else None)
            self._ctx = multiprocessing.get_context(method)
            n = self.workers or default_workers()
            shared = SharedFrames.publish(engine.base_frames)
            try:
                arena = OutputArena.create(n, self.slot_bytes)
            except BaseException:
                shared.unlink()
                raise
            self._shared = shared
            self._arena = arena
            self._engine = engine
            self._initargs = (
                engine.part,
                shared.spec,
                engine.base_design,
                engine.full_size,
                _cache_spec(engine),
                arena.spec,
            )
            try:
                for idx in range(n):
                    self._seats.append(self._spawn(idx))
                    self._idle.put(idx)
            except BaseException:
                self._shutdown_locked()
                raise
            engine.metrics.gauge("exec.pool.workers_alive", n)
            engine.metrics.gauge("exec.pool.arena_bytes", arena.nbytes)
            engine.metrics.gauge("exec.shm_bytes", shared.nbytes)

    def _spawn(self, idx: int) -> _Seat:
        """Start the worker for seat ``idx`` (caller holds the lock or is
        single-threaded in bind)."""
        from .worker import warm_worker_main

        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=warm_worker_main,
            args=(idx, child_conn) + self._initargs,
            daemon=True,
            name=f"jpg-warm-{idx}",
        )
        process.start()
        child_conn.close()
        return _Seat(idx, process, parent_conn)

    def _recycle(self, idx: int) -> None:
        """Replace a dead worker in seat ``idx`` with a fresh fork."""
        with self._lock:
            if self._closed:
                raise ExecError("warm pool is closed")
            seat = self._seats[idx]
            seat.conn.close()
            if seat.process.is_alive():  # pragma: no cover - pipe died first
                seat.process.terminate()
            seat.process.join(_JOIN_TIMEOUT)
            self._seats[idx] = self._spawn(idx)
            self.recycles += 1

    def ping(self) -> dict[int, int]:
        """Health-check every worker: seat index -> pid for each worker
        that answers within the timeout.  Missing seats are dead (see
        :meth:`ensure`).  Only call when no tasks are in flight."""
        alive: dict[int, int] = {}
        for seat in self._seats:
            try:
                seat.conn.send(("ping", None))
                if seat.conn.poll(_PING_TIMEOUT):
                    kind, pid = seat.conn.recv()
                    if kind == "pong":
                        alive[seat.idx] = pid
            except (EOFError, OSError, BrokenPipeError):
                continue
        return alive

    def ensure(self) -> int:
        """Respawn any dead workers; the number recycled.  The serve path
        calls this between requests so a crashed worker never surfaces as
        request latency."""
        recycled = 0
        for seat in list(self._seats):
            if not seat.process.is_alive():
                self._recycle(seat.idx)
                recycled += 1
        return recycled

    def drain(self) -> None:
        """Block until every in-flight task has finished (all seats idle)."""
        held = [self._idle.get() for _ in range(len(self._seats))]
        for idx in held:
            self._idle.put(idx)

    def close(self) -> None:
        """Stop every worker, release the arena and shared base.  Waits for
        clean exits, escalates to ``terminate`` after a timeout.  Idempotent."""
        with self._lock:
            self._shutdown_locked()

    def _shutdown_locked(self) -> None:
        if self._closed and not self._seats:
            return
        for seat in self._seats:
            try:
                seat.conn.send(("stop", None))
            except (OSError, BrokenPipeError):
                pass
        for seat in self._seats:
            seat.process.join(_JOIN_TIMEOUT)
            if seat.process.is_alive():  # pragma: no cover - wedged worker
                seat.process.terminate()
                seat.process.join(_JOIN_TIMEOUT)
            seat.conn.close()
        self._seats = []
        self._idle = queue.Queue()
        if self._arena is not None:
            self._arena.unlink()
            self._arena = None
        if self._shared is not None:
            self._shared.unlink()
            self._shared = None
        self._engine = None
        self._closed = True

    # -- dispatch -------------------------------------------------------------

    def run_task(self, item: "BatchItem"):
        """Dispatch one item to an idle worker and return its raw reply.

        Checks a seat out of the idle queue (blocking if every worker is
        busy), sends the task, and reads the reply out of the worker's
        arena slot.  A worker that dies mid-task is recycled in place and
        the item retried exactly once; a second death raises
        :class:`ExecError` — a batch never silently loses items.
        """
        if self._engine is None:
            raise ExecError("warm pool used before bind()")
        idx = self._idle.get()
        try:
            for attempt in (0, 1):
                seat = self._seats[idx]
                try:
                    seat.conn.send(("task", item))
                    kind, payload = seat.conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    self._recycle(idx)
                    if attempt == 0:
                        self.retries += 1
                        continue
                    raise ExecError(
                        f"warm pool lost a worker twice on {item.name!r}; "
                        f"giving up after one recycle-and-retry"
                    ) from None
                self.tasks += 1
                if kind == "err":
                    raise ExecError(
                        f"warm-pool worker failed on {item.name!r}:\n{payload}"
                    )
                if kind == "arena":
                    return pickle.loads(self._arena.read(idx, payload))
                # oversized reply spilled to inline pipe transport
                self.arena_spills += 1
                return pickle.loads(payload)
        finally:
            self._idle.put(idx)

    def record_ingest(self, hits: int, misses: int) -> None:
        """Accumulate one reply's frame-cache counters (backend callback)."""
        self._worker_hits += hits
        self._worker_misses += misses

    def cache_stats(self) -> "CacheStats":
        """Frame-cache hits/misses as the pool's workers saw them."""
        from ..batch.cache import CacheStats

        return CacheStats(self._worker_hits, self._worker_misses)


class WarmPoolBackend(Backend):
    """``backend="warm"`` — the :class:`WarmPool` behind the standard
    :class:`~repro.exec.backend.Backend` interface.

    Construct with a shared :class:`WarmPool` to keep one hot pool across
    the batch engine and the serve scheduler, or let it build a private
    pool.  The first engine that runs binds the pool (a second engine
    raises), and ``close()`` shuts the pool down (call it from
    ``engine.close()`` as usual).
    """

    name = "warm"

    def __init__(self, workers: int | None = None, *,
                 pool: WarmPool | None = None,
                 start_method: str | None = None,
                 slot_bytes: int = OutputArena.DEFAULT_SLOT_BYTES):
        self.pool = pool if pool is not None else WarmPool(
            workers, start_method=start_method, slot_bytes=slot_bytes
        )
        # counter totals already pushed into the engine's registry, so
        # repeated runs report deltas rather than running totals
        self._reported: dict[str, int] = {}

    def planned_workers(self) -> int:
        """Worker count the pool runs with (sizes the scheduler's shepherds)."""
        return self.pool.planned_workers()

    def run(self, engine, items):
        """Shepherd the manifest into the warm pool — one feeder thread
        per worker — and ingest replies in manifest order."""
        if not items:
            return []
        self.pool.bind(engine)
        engine.metrics.count("exec.tasks", len(items))
        n = min(self.pool.planned_workers(), len(items))
        with engine.metrics.stage("exec.pool_map", backend=self.name,
                                  items=len(items), workers=n):
            with ThreadPoolExecutor(max_workers=n,
                                    thread_name_prefix="warm-shepherd") as pool:
                raw = list(pool.map(self.pool.run_task, items))
        results = [self._ingest(engine, r) for r in raw]
        self._gauge(engine)
        return results

    def run_one(self, engine, item):
        """Generate a single item on the hot pool (the serving path)."""
        self.pool.bind(engine)
        engine.metrics.count("exec.tasks")
        result = self._ingest(engine, self.pool.run_task(item))
        self._gauge(engine)
        return result

    def _ingest(self, engine, raw):
        """Fold one worker reply into the parent engine: merge its metrics
        snapshot, re-seed the engine's frame cache with the reply's
        cleared-state deltas as they are, and count its frame-cache
        hits/misses.  This is the one reader of the reply format (see
        :mod:`repro.exec.worker`)."""
        result, snapshot, cleared = raw
        counters = snapshot.get("counters", {})
        self.pool.record_ingest(counters.get("framecache.hit", 0),
                                counters.get("framecache.miss", 0))
        engine.metrics.merge(snapshot)
        for base_key, region, delta in cleared:
            engine.cache.put(base_key, region, delta)
        return result

    def _gauge(self, engine) -> None:
        """Refresh the pool's ``exec.pool.*`` gauges and counters after a
        run (counters are deltas since the previous refresh)."""
        pool = self.pool
        alive = sum(1 for s in pool._seats if s.process.is_alive())
        engine.metrics.gauge("exec.pool.workers_alive", alive)
        for name, total in (("exec.pool.tasks", pool.tasks),
                            ("exec.pool.recycles", pool.recycles),
                            ("exec.pool.retries", pool.retries),
                            ("exec.pool.arena_spills", pool.arena_spills)):
            prev = self._reported.get(name, 0)
            if total > prev:
                engine.metrics.count(name, total - prev)
                self._reported[name] = total

    def cache_stats(self, engine):
        """Hits/misses as the pool's workers saw them."""
        return self.pool.cache_stats()

    def close(self) -> None:
        """Shut the pool down (workers, arena, shared base).  Idempotent."""
        self.pool.close()
