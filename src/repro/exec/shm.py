"""Zero-copy frame-memory transport for the warm worker pool.

The base configuration is by far the largest thing a pool worker needs —
on an XCV100 it is a few hundred kilobytes of frame words, and pickling
it into every worker (or worse, into every task) would dominate the cost
the warm pool is supposed to remove.  :class:`SharedFrames` instead
publishes the parent's :class:`~repro.bitstream.frames.FrameMemory` once
through :mod:`multiprocessing.shared_memory`; workers *attach* to the
segment and wrap the mapped buffer in a read-only numpy view, so the base
crosses the process boundary zero-copy and exists in physical memory
exactly once.

Results travel the other way through an :class:`OutputArena`; a
cleared region in a reply is the
:class:`~repro.bitstream.frames.FrameDelta` the frame cache holds — the
frames the clear changed, never a whole frame memory.  Between the two,
task payloads and results stay small — a parsed module, a region
rectangle, a handful of changed frames.

Lifecycle: the parent owns the segment (:meth:`SharedFrames.publish` /
:meth:`SharedFrames.unlink`); workers only ever attach and close.  A
CPython 3.x wart needs explicit handling: attaching registers the segment
with the process's ``resource_tracker`` as if the attacher owned it.
Under the ``fork`` start method children share the parent's tracker (the
duplicate registration dedupes harmlessly), but under ``spawn`` each
worker gets its *own* tracker, which would unlink the segment when the
worker exits — destroying it for everyone else.  :func:`attach_frames`
therefore unregisters after attaching on non-fork start methods.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..bitstream.frames import FrameMemory
from ..devices import get_device
from ..errors import ExecError


@dataclass(frozen=True)
class ShmSpec:
    """Everything a worker needs to attach to a published frame memory.

    Picklable and tiny — it rides in the pool initializer's arguments.
    """

    name: str      # shared-memory segment name
    device: str    # part name, e.g. "XCV100"
    frames: int    # array shape, so attach never trusts the segment size
    words: int


class SharedFrames:
    """A frame memory published read-only in shared memory (parent side)."""

    def __init__(self, shm: shared_memory.SharedMemory, spec: ShmSpec):
        self._shm = shm
        self.spec = spec

    @classmethod
    def publish(cls, frames: FrameMemory) -> "SharedFrames":
        """Copy ``frames`` into a new shared segment (the one copy there is)."""
        data = frames.data
        try:
            shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
        except OSError as exc:  # pragma: no cover - /dev/shm full or absent
            raise ExecError(f"cannot create shared memory for base frames: {exc}") from exc
        view = np.ndarray(data.shape, dtype=np.uint32, buffer=shm.buf)
        view[:] = data
        spec = ShmSpec(shm.name, frames.device.name, data.shape[0], data.shape[1])
        return cls(shm, spec)

    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return self._shm.size

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (parent only, after the pool is gone)."""
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def attach_frames(spec: ShmSpec) -> tuple[FrameMemory, shared_memory.SharedMemory]:
    """Attach to a published base (worker side): a read-only, zero-copy
    :class:`FrameMemory` over the mapped segment, plus the handle to keep
    the mapping alive (close it when the worker dies; never unlink)."""
    try:
        shm = shared_memory.SharedMemory(name=spec.name)
    except FileNotFoundError as exc:
        raise ExecError(f"shared base frames {spec.name!r} are gone: {exc}") from exc
    if multiprocessing.get_start_method(allow_none=True) != "fork":
        # see module docstring: without this, a spawn-started worker's own
        # resource tracker unlinks the segment out from under the pool
        try:  # pragma: no cover - spawn-only path
            resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
    device = get_device(spec.device)
    view = np.ndarray((spec.frames, spec.words), dtype=np.uint32, buffer=shm.buf)
    view.setflags(write=False)
    return FrameMemory(device, view), shm


@dataclass(frozen=True)
class ArenaSpec:
    """Everything a warm-pool worker needs to attach the output arena.

    Picklable and tiny — it rides in the worker's start-up arguments next
    to the :class:`ShmSpec` of the base frames.
    """

    name: str        # shared-memory segment name
    slots: int       # one slot per worker
    slot_bytes: int  # fixed slot capacity


class OutputArena:
    """A preallocated shared-memory result buffer for the warm pool.

    One fixed-size slot per worker: a worker serializes its reply into its
    own slot and sends only the byte count over the control pipe, so
    results cross the process boundary through memory the parent already
    mapped instead of being pickled through a pipe.  Slots are exclusive
    to their worker and the parent reads a slot only after the worker's
    reply message lands, so no locking is needed.

    A reply larger than ``slot_bytes`` falls back to inline pipe transport
    (the pool counts these as ``exec.pool.arena_spills``); the arena is a
    fast path, never a correctness constraint.

    Lifecycle mirrors :class:`SharedFrames`: the parent creates and
    eventually unlinks; workers attach (with the same resource-tracker
    unregistration wart) and only ever close.
    """

    #: Default slot capacity.  An XCV1000-scale reply (result + metrics
    #: snapshot + cleared-region deltas) pickles to ~100-300 KiB; 2 MiB
    #: leaves generous headroom without a meaningful footprint.
    DEFAULT_SLOT_BYTES = 2 * 1024 * 1024

    def __init__(self, shm: shared_memory.SharedMemory, spec: ArenaSpec,
                 *, owner: bool):
        self._shm = shm
        self.spec = spec
        self._owner = owner

    @classmethod
    def create(cls, slots: int, slot_bytes: int = DEFAULT_SLOT_BYTES) -> "OutputArena":
        """Allocate an arena with ``slots`` fixed-size slots (parent side)."""
        size = max(1, slots) * slot_bytes
        try:
            shm = shared_memory.SharedMemory(create=True, size=size)
        except OSError as exc:  # pragma: no cover - /dev/shm full or absent
            raise ExecError(f"cannot create output arena: {exc}") from exc
        return cls(shm, ArenaSpec(shm.name, slots, slot_bytes), owner=True)

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "OutputArena":
        """Attach to an existing arena (worker side; never unlinks)."""
        try:
            shm = shared_memory.SharedMemory(name=spec.name)
        except FileNotFoundError as exc:
            raise ExecError(f"output arena {spec.name!r} is gone: {exc}") from exc
        if multiprocessing.get_start_method(allow_none=True) != "fork":
            try:  # pragma: no cover - spawn-only path (see attach_frames)
                resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:
                pass
        return cls(shm, spec, owner=False)

    @property
    def nbytes(self) -> int:
        """Total arena size in bytes (slots x slot capacity)."""
        return self._shm.size

    def write(self, slot: int, payload: bytes) -> int | None:
        """Copy ``payload`` into ``slot``; its length on success, ``None``
        if the payload exceeds the slot capacity (caller spills inline)."""
        if len(payload) > self.spec.slot_bytes:
            return None
        start = slot * self.spec.slot_bytes
        self._shm.buf[start:start + len(payload)] = payload
        return len(payload)

    def read(self, slot: int, nbytes: int) -> bytes:
        """The first ``nbytes`` of ``slot``, copied out of the segment."""
        if nbytes > self.spec.slot_bytes:
            raise ExecError(
                f"arena read of {nbytes} bytes exceeds slot capacity "
                f"{self.spec.slot_bytes}"
            )
        start = slot * self.spec.slot_bytes
        return bytes(self._shm.buf[start:start + nbytes])

    def close(self) -> None:
        """Drop this process's mapping (both sides; idempotent)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - live exported views
            pass

    def unlink(self) -> None:
        """Destroy the segment (parent only, after the pool is gone)."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
