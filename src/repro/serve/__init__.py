"""The partial-bitstream generation service (``jpg serve``).

A long-lived front over :class:`~repro.batch.BatchJpg`: parse the base
once, answer many client requests, and make repeated work free three
different ways —

* :mod:`repro.serve.diskcache` — a persistent content-addressed cache of
  cleared-region states and finished partials, shared across restarts
  and processes (file-locked single-flight, LRU size cap);
* :mod:`repro.serve.scheduler` — an asyncio scheduler with a bounded
  queue (reject-with-reason backpressure), per-region FIFO ordering,
  coalescing of identical in-flight requests, and graceful drain;
* :mod:`repro.serve.protocol` — a JSON-lines wire protocol over a unix
  socket, TCP or stdio, plus the blocking :class:`ServeClient` behind the
  ``jpg submit`` CLI.

See ``docs/API.md`` ("Generation service") for the full contract.
"""

from .diskcache import DiskCache, DiskCacheStats, PersistentFrameCache, region_tag
from .protocol import JpgServer, ServeClient, decode_partial, parse_address
from .scheduler import Scheduler
from .service import GenerationService, GenRequest, ServeResult

__all__ = [
    "DiskCache",
    "DiskCacheStats",
    "GenRequest",
    "GenerationService",
    "JpgServer",
    "PersistentFrameCache",
    "Scheduler",
    "ServeClient",
    "ServeResult",
    "decode_partial",
    "parse_address",
    "region_tag",
]
