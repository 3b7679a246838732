"""Batch partial-bitstream generation: many modules, one base, shared work.

The paper's Figure-4 scenario needs a *library* of partials (1 full + 10
partial bitstreams for 3 regions x 3/3/4 versions); this package turns
that from N independent :meth:`~repro.core.jpg.Jpg.make_partial` runs into
one planned batch:

* :class:`~repro.batch.engine.BatchJpg` — the planner/executor: parses
  the base bitstream once, predicts shared work per region
  (:class:`~repro.batch.engine.BatchPlan`), and runs the per-module
  replay/emit pipelines inline, one after another, returning a
  :class:`~repro.batch.engine.BatchReport` with per-module timing/size
  rows and aggregated :mod:`repro.obs` metrics;
* :class:`~repro.batch.cache.FrameCache` — a content-keyed cache of
  cleared-region frame states (base fingerprint + region footprint),
  invalidated automatically when the base bitstream changes.

Outputs are byte-identical to sequential generation.  The ``jpg batch``
CLI subcommand is the command-line front-end.
"""

from .cache import CacheStats, FrameCache, fingerprint
from .engine import (
    BatchItem,
    BatchItemResult,
    BatchJpg,
    BatchPlan,
    BatchReport,
    items_from_project,
)

__all__ = [
    "BatchItem", "BatchItemResult", "BatchJpg", "BatchPlan", "BatchReport",
    "CacheStats", "FrameCache", "fingerprint", "items_from_project",
]
