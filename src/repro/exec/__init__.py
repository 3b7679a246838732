"""Execution backends for batch partial-bitstream generation.

Two backends exist: ``serial`` (the default, inline on the caller's
thread) and ``warm`` (a persistent pool of worker processes).  Public
surface of the backend subsystem (see :mod:`repro.exec.backend` for the
strategy classes, :mod:`repro.exec.pool` for the warm worker pool and
:mod:`repro.exec.shm` for the zero-copy frame transport it rides on)::

    from repro.exec import default_workers, get_backend

    engine = BatchJpg("XCV100", base, backend="warm", max_workers=2)
    report = engine.run(items)      # byte-identical to backend="serial"
    engine.close()                  # returns the pool + shared memory
"""

from ..errors import ExecError
from .backend import (
    BACKEND_NAMES,
    MAX_DEFAULT_WORKERS,
    Backend,
    SerialBackend,
    default_workers,
    get_backend,
)
from .pool import WarmPool, WarmPoolBackend
from .shm import (
    ArenaSpec,
    OutputArena,
    SharedFrames,
    ShmSpec,
    attach_frames,
)

__all__ = [
    "ArenaSpec",
    "BACKEND_NAMES",
    "MAX_DEFAULT_WORKERS",
    "Backend",
    "ExecError",
    "OutputArena",
    "SerialBackend",
    "SharedFrames",
    "ShmSpec",
    "WarmPool",
    "WarmPoolBackend",
    "attach_frames",
    "default_workers",
    "get_backend",
]
