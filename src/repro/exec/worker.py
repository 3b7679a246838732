"""What runs inside a warm-pool worker process.

One worker = one long-lived :class:`~repro.batch.engine.BatchJpg` built in
:func:`worker_init` over the parent's shared-memory base (attached
zero-copy, never cloned) and reused for every task the worker receives.
:func:`warm_worker_main` is the worker's entry point: a persistent
request/reply loop over a pipe.  Each task generates one item, and the
reply is a pickle of

* the :class:`~repro.batch.engine.BatchItemResult` itself (the partial's
  bytes are the product; they are already small),
* a metrics snapshot of this task's counters/timers, merged into the
  parent registry so one report covers the whole pool, and
* any cleared-region states this task computed, as the cache holds
  them: each a :class:`~repro.bitstream.frames.FrameDelta` of the frames
  the clear changed — the parent stores these in its own cache as they
  are, so work done in a worker warms every later run.

The reply is written into this worker's slot of a shared
:class:`~repro.exec.shm.OutputArena`, not sent through the pipe.  With a
disk-backed cache, workers share cleared states through the filesystem
instead and the delta list stays empty.

``JPG_EXEC_CRASH=<item name>`` (or ``*``) makes a worker die mid-task
with ``os._exit`` — the hook the crash tests use to prove a pool that
keeps losing workers fails loudly.  ``JPG_EXEC_CRASH_ONCE=<flag-file>
[:<item name>]`` crashes only while the flag file exists and deletes it
first, so exactly one worker dies — the hook the warm pool's
recycle-and-retry tests use.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from ..batch.cache import ClearedState, FrameCache
from ..errors import ExecError
from ..obs import Metrics
from .shm import ShmSpec, attach_frames

if TYPE_CHECKING:
    from ..batch.engine import BatchItem, BatchItemResult
    from ..flow.floorplan import RegionRect
    from ..flow.ncd import NcdDesign

#: One cleared state on the wire: (base key, region, the clear's delta).
ClearedRecord = tuple[str, "RegionRect", ClearedState]

#: Worker-global state set once by :func:`worker_init`.
_STATE: dict | None = None


class _RecordingCache(FrameCache):
    """An in-memory frame cache that remembers what it computed, so tasks
    can send those states home."""

    def __init__(self) -> None:
        super().__init__()
        self._records: list[ClearedRecord] = []

    def _computed(self, base_key: str, region, value: ClearedState) -> None:
        self._records.append((base_key, region, value))

    def drain(self) -> list[ClearedRecord]:
        records, self._records = self._records, []
        return records


def worker_init(
    part: str,
    spec: ShmSpec,
    base_design: "NcdDesign | None",
    full_size: int,
    cache_spec: tuple | None,
) -> None:
    """One-time worker setup: attach the shared base and build this worker's
    engine.  Runs once per worker process."""
    global _STATE
    frames, shm = attach_frames(spec)
    if cache_spec is not None and cache_spec[0] == "disk":
        from ..serve.diskcache import DiskCache, PersistentFrameCache

        cache: FrameCache = PersistentFrameCache(
            DiskCache(cache_spec[1], max_bytes=cache_spec[2])
        )
    else:
        cache = _RecordingCache()
    from ..batch.engine import BatchJpg

    engine = BatchJpg(
        part,
        frames,                  # zero-copy: full_size set, so no reparse/clone
        base_design,
        cache=cache,
        backend="serial",        # a worker never nests a pool
        full_size=full_size,
    )
    _STATE = {"engine": engine, "shm": shm, "cache": cache}


def _maybe_crash(item: "BatchItem") -> None:
    """Honor the crash-injection hooks (test-only; see module docstring).

    ``JPG_EXEC_CRASH`` kills every worker that touches the named item;
    ``JPG_EXEC_CRASH_ONCE=<flag-file>[:<name>]`` kills at most one worker —
    the flag file is consumed (unlinked) before dying, so a retry on a
    recycled worker succeeds.
    """
    crash = os.environ.get("JPG_EXEC_CRASH")
    if crash and crash in ("*", item.name):
        os._exit(17)  # simulate a dying worker (OOM kill, segfault)
    once = os.environ.get("JPG_EXEC_CRASH_ONCE")
    if once:
        flag, _, name = once.partition(":")
        if (not name or name in ("*", item.name)) and os.path.exists(flag):
            try:
                os.unlink(flag)
            except OSError:  # pragma: no cover - lost the unlink race
                return
            os._exit(17)


def _run_item(item: "BatchItem") -> tuple["BatchItemResult", dict, list[ClearedRecord]]:
    """Generate one item on this worker's engine and package the reply
    (result, metrics snapshot, cleared-region deltas)."""
    if _STATE is None:  # pragma: no cover - initializer cannot have failed silently
        raise ExecError("worker used before worker_init")
    _maybe_crash(item)
    engine = _STATE["engine"]
    cache = _STATE["cache"]
    # fresh per-task registry: a worker runs tasks one at a time, so
    # rebinding the engine's registry cleanly scopes the snapshot
    metrics = Metrics(keep_events=False)
    engine.metrics = metrics
    with metrics.stage("exec.task", item=item.name, pid=os.getpid()):
        result = engine.generate_one(item)
    cleared = cache.drain() if isinstance(cache, _RecordingCache) else []
    return result, metrics.snapshot(), cleared


def warm_worker_main(
    idx: int,
    conn,
    part: str,
    spec: ShmSpec,
    base_design: "NcdDesign | None",
    full_size: int,
    cache_spec: tuple | None,
    arena_spec,
) -> None:
    """Entry point of one warm-pool worker process.

    Runs :func:`worker_init` (attach the shared base, build a serial
    engine), attaches slot ``idx`` of the shared output arena, then
    serves a message loop on ``conn`` until told to stop:

    * ``("task", item)`` — run the item; pickle the reply and write it
      into this worker's arena slot, answering ``("arena", nbytes)``; if
      the reply outgrows the slot, answer ``("inline", payload)`` instead
      (the spill fallback).  Unexpected in-worker exceptions answer
      ``("err", traceback_text)`` — the worker survives, the parent
      raises.
    * ``("ping", None)`` — health check; answers ``("pong", pid)``.
    * ``("stop", None)`` — clean shutdown: close mappings and return.

    A worker that dies mid-task simply drops the pipe; the parent sees
    ``EOFError`` and recycles the seat.
    """
    import pickle
    import traceback

    from .shm import OutputArena

    worker_init(part, spec, base_design, full_size, cache_spec)
    arena = OutputArena.attach(arena_spec)
    try:
        while True:
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):  # parent died or closed our pipe
                break
            if kind == "stop":
                break
            if kind == "ping":
                conn.send(("pong", os.getpid()))
                continue
            try:
                reply = pickle.dumps(_run_item(payload), protocol=pickle.HIGHEST_PROTOCOL)
            except SystemExit:  # os._exit never gets here; belt and braces
                raise
            except BaseException:
                conn.send(("err", traceback.format_exc()))
                continue
            nbytes = arena.write(idx, reply)
            if nbytes is None:
                conn.send(("inline", reply))
            else:
                conn.send(("arena", nbytes))
    finally:
        arena.close()
        conn.close()
        shm = _STATE["shm"] if _STATE else None
        if shm is not None:
            shm.close()
