"""The batch generation engine: N partial bitstreams from one base.

The paper's headline scenario (§4.1 / Figure 4) is not one partial but a
*library* of them: 3 regions with 3/3/4 module versions need 10 partial
bitstreams generated against the same base design.  Driving
:meth:`repro.core.jpg.Jpg.make_partial` once per module repeats two
pieces of work that depend only on the base: parsing the base bitstream
into frame memory and clearing each region's tiles.  :class:`BatchJpg`
factors both out:

* the base configuration is decoded **once** per content per process
  (:func:`~repro.jbits.api.decoded_base`) and the engine keeps that
  read-only memory itself as :attr:`BatchJpg.base_frames`; each
  per-module :class:`~repro.core.jpg.Jpg` clones it;
* each region's clear is shared through a content-keyed
  :class:`~repro.batch.cache.FrameCache` as the delta of the frames it
  changed, so K versions of one region pay for one clear;

and runs the independent per-module replay/emit pipelines inline, one
after another, on the calling thread.  Because every module generates
against the same immutable base state, the emitted partials are
**byte-identical** to sequential ``make_partial`` calls, and results
come back in manifest order.

One :class:`~repro.obs.Metrics` registry aggregates stage timings,
counters, and cache hit/miss stats across the run;
:meth:`BatchReport.table` renders the per-module summary the ``jpg
batch`` CLI prints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import utils
from ..bitstream.assembler import full_stream_size
from ..bitstream.bitfile import BitFile
from ..bitstream.frames import FrameMemory
from ..core.jpg import Jpg, JpgOptions, PartialResult
from ..devices import get_device
from ..errors import ReproError
from ..flow.floorplan import RegionRect
from ..flow.ncd import NcdDesign
from ..jbits.api import JBits, decoded_base
from ..obs import Metrics, use_metrics
from ..ucf.parser import UcfFile, parse_ucf
from .cache import CacheStats, FrameCache


@dataclass(frozen=True)
class BatchItem:
    """One module version to generate a partial for.

    ``module`` is a parsed :class:`~repro.flow.ncd.NcdDesign` or XDL text;
    ``ucf`` is a parsed :class:`~repro.ucf.parser.UcfFile` or UCF text.
    ``region`` overrides the UCF's area group, exactly as in
    :meth:`~repro.core.jpg.Jpg.make_partial`.
    """

    name: str
    module: NcdDesign | str
    region: RegionRect | None = None
    ucf: UcfFile | str | None = None
    options: JpgOptions | None = None


@dataclass
class BatchItemResult:
    """Outcome of one item: the partial (or the error) plus its wall time."""

    item: BatchItem
    result: PartialResult | None
    seconds: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class BatchPlan:
    """What the planner expects a manifest to cost.

    Items are grouped by region footprint: the first generation of each
    group clears the region (a cache miss), every later one reuses the
    cached cleared frames (a hit).
    """

    total: int
    groups: tuple[tuple[str, int], ...]  # (region range or "-", item count)

    @property
    def expected_cache_misses(self) -> int:
        return sum(1 for name, _ in self.groups if name != "-")

    @property
    def expected_cache_hits(self) -> int:
        return sum(n for name, n in self.groups if name != "-") - self.expected_cache_misses


@dataclass
class BatchReport:
    """Everything one :meth:`BatchJpg.run` produced."""

    results: list[BatchItemResult]
    seconds: float
    plan: BatchPlan
    metrics: Metrics
    cache_stats: CacheStats
    full_size: int = 0
    failures: list[BatchItemResult] = field(init=False)

    def __post_init__(self) -> None:
        self.failures = [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def partials(self) -> dict[str, PartialResult]:
        """name -> :class:`~repro.core.jpg.PartialResult` for the successes."""
        return {r.item.name: r.result for r in self.results if r.ok}

    def table(self) -> str:
        """The per-module timing/size table (what ``jpg batch`` prints)."""
        rows = []
        for r in self.results:
            if r.ok:
                p = r.result
                rows.append((
                    r.item.name,
                    r.item.region.to_ucf() if r.item.region is not None
                    else (p.region.to_ucf() if p.region is not None else "-"),
                    len(p.frames),
                    utils.si_bytes(p.size),
                    f"{100 * p.ratio:.1f}%",
                    f"{1e3 * r.seconds:.1f} ms",
                ))
            else:
                rows.append((r.item.name, "-", "-", "-", "-", f"error: {r.error}"))
        return utils.format_table(
            ["module", "region", "frames", "partial", "of full", "time"], rows
        )

    def summary(self) -> str:
        ok = [r for r in self.results if r.ok]
        cs = self.cache_stats
        lines = [
            f"{len(ok)}/{len(self.results)} partials in {self.seconds:.2f} s "
            f"(sum of per-module times {sum(r.seconds for r in self.results):.2f} s)",
            f"frame cache: {cs.hits} hits / {cs.misses} misses "
            f"({100 * cs.hit_rate:.0f}% hit rate)",
        ]
        if ok and self.full_size:
            total = sum(r.result.size for r in ok)
            lines.append(
                f"storage: {utils.si_bytes(total)} of partials vs "
                f"{utils.si_bytes(len(ok) * self.full_size)} as full bitstreams"
            )
        return "\n".join(lines)


class BatchJpg:
    """Plan and run many partial generations against one base bitstream."""

    def __init__(
        self,
        part: str,
        base_bitstream: bytes | BitFile | FrameMemory,
        base_design: NcdDesign | None = None,
        *,
        cache: FrameCache | None = None,
        metrics: Metrics | None = None,
        max_workers: int | None = None,
    ):
        """``max_workers`` is accepted and ignored: items always run
        inline, one after another.  It remains only so existing callers
        that pass it keep working."""
        self.part = part
        self.base_design = base_design
        self.cache = cache if cache is not None else FrameCache()
        # aggregates only: kept events grow by one per stage for the engine's life
        self.metrics = metrics if metrics is not None else Metrics(keep_events=False)
        device = get_device(part)
        with use_metrics(self.metrics), \
                self.metrics.stage("batch.load_base", part=part):
            if isinstance(base_bitstream, FrameMemory):
                # a private copy: the caller may still write to theirs
                jb = JBits(device)
                jb.read(base_bitstream)
                assert jb.frames is not None
                self._base_frames = jb.frames
            else:
                # the shared read-only decode itself, not a copy of it
                self._base_frames = decoded_base(device, base_bitstream)
        self._full_size = full_stream_size(device)
        # the frame-cache key of the base, hashed once for every item
        self._base_key = self.cache.base_key(self._base_frames)

    @property
    def full_size(self) -> int:
        """Size in bytes of the base design's complete bitstream."""
        return self._full_size

    @property
    def base_frames(self) -> FrameMemory:
        """The decoded base configuration, shared and read-only (clone
        before mutating)."""
        return self._base_frames

    @property
    def base_key(self) -> str:
        """Content key of the base configuration (its
        :func:`~repro.batch.cache.fingerprint`), computed once per engine.
        Every item's first region clear and the service's partial-cache
        keys use it."""
        return self._base_key

    # -- planning -----------------------------------------------------------

    def plan(self, items: list[BatchItem]) -> BatchPlan:
        """Group a manifest by region footprint to predict shared work."""
        groups: dict[str, int] = {}
        for item in items:
            region = item.region or self._region_of(item)
            clear = item.options.clear_region if item.options is not None else True
            key = region.to_ucf() if (region is not None and clear) else "-"
            groups[key] = groups.get(key, 0) + 1
        return BatchPlan(len(items), tuple(sorted(groups.items())))

    def _region_of(self, item: BatchItem) -> RegionRect | None:
        """Best-effort region for planning when only a UCF is given."""
        ucf = item.ucf
        if ucf is None:
            return None
        if isinstance(ucf, str):
            try:
                ucf = parse_ucf(ucf)
            except ReproError:
                return None
        for group in ucf.constraints.groups:
            if group.range is not None:
                return group.range
        return None

    # -- execution ----------------------------------------------------------

    def run(self, items: list[BatchItem]) -> BatchReport:
        """Generate every item's partial; results come back in input order.

        Per-item :class:`~repro.errors.ReproError` failures are recorded on
        the item's result instead of aborting the batch.
        """
        plan = self.plan(items)
        start = time.perf_counter()
        results = [self.generate_one(item) for item in items]
        seconds = time.perf_counter() - start
        return BatchReport(
            results=results,
            seconds=seconds,
            plan=plan,
            metrics=self.metrics,
            cache_stats=self.cache.stats,
            full_size=self._full_size,
        )

    # -- deployment ---------------------------------------------------------

    def deploy(
        self,
        report: BatchReport,
        xhwif,
        *,
        retry=None,
        scrub=None,
        deploy_base: bool = True,
    ):
        """Deploy every successful partial of ``report`` onto a board,
        readback-verifying and scrubbing each (the optional
        deploy-and-verify stage; see :class:`repro.runtime.Deployer`).

        ``retry`` / ``scrub`` are :class:`~repro.runtime.RetryPolicy` /
        :class:`~repro.runtime.ScrubPolicy` overrides.  Runtime metrics
        land on this engine's registry, so one batch run aggregates
        generation *and* deployment counters.  Returns the
        :class:`~repro.runtime.DeployReport`.
        """
        from ..runtime import Deployer, DeployItem

        items = [
            DeployItem(name, partial.data)
            for name, partial in report.partials().items()
        ]
        deployer = Deployer(
            xhwif, self._base_frames,
            retry=retry, scrub=scrub, metrics=self.metrics,
        )
        return deployer.run(items, deploy_base=deploy_base)

    def generate_one(self, item: BatchItem) -> BatchItemResult:
        """Generate one item's partial against the shared base state.

        This is the unit of work :meth:`run` loops over, exposed so long-lived
        callers (the generation service) can drive single requests through
        the same shared-base/shared-cache path without building a manifest.
        Thread-safe; per-item failures come back on the result's ``error``.
        """
        start = time.perf_counter()
        with use_metrics(self.metrics):
            try:
                jpg = Jpg(
                    self.part,
                    self._base_frames,
                    base_design=self.base_design,
                    frame_cache=self.cache,
                    base_key=self._base_key,
                )
                ucf = item.ucf
                if isinstance(ucf, str):
                    ucf = parse_ucf(ucf)
                result = jpg.make_partial(
                    item.module,
                    region=item.region,
                    ucf=ucf,
                    options=item.options,
                )
            except ReproError as exc:
                self.metrics.count("batch.failures")
                return BatchItemResult(item, None, time.perf_counter() - start, str(exc))
        self.metrics.count("batch.partials")
        return BatchItemResult(item, result, time.perf_counter() - start)


def items_from_project(project) -> list[BatchItem]:
    """The Figure-4 manifest of a :class:`~repro.core.project.JpgProject`:
    one :class:`BatchItem` per non-base module version."""
    items = []
    for (region, version), mv in project.versions.items():
        if version == "base":
            continue
        items.append(BatchItem(
            name=f"{region}/{version}",
            module=mv.xdl,
            region=project.regions[region],
            ucf=mv.ucf,
        ))
    return items
