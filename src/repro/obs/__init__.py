"""Observability layer: stage timers, counters, and structured events.

Every stage of the generation pipeline — XDL parse, verification, region
clearing, JBits replay, frame selection, stream assembly — reports to the
:class:`Metrics` registry bound in the current context (see
:func:`use_metrics`); with no registry bound, reporting is a no-op.  The
batch engine (:mod:`repro.batch`) binds one registry across every item
of a run so the whole run aggregates into a single set of counters, timers, and
:class:`StageEvent` records, optionally streamed to a pluggable sink.
"""

from .metrics import (
    NULL_METRICS,
    GaugeStats,
    Metrics,
    NullMetrics,
    ReservoirHistogram,
    Sink,
    StageEvent,
    TimerStats,
    current_metrics,
    recording_sink,
    use_metrics,
)

__all__ = [
    "NULL_METRICS", "GaugeStats", "Metrics", "NullMetrics",
    "ReservoirHistogram", "Sink", "StageEvent", "TimerStats",
    "current_metrics", "recording_sink", "use_metrics",
]
