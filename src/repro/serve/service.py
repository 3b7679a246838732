"""The generation service: one long-lived base, many client requests.

:class:`GenerationService` is the synchronous core the async scheduler
and the wire protocol sit on.  It owns one :class:`~repro.batch.BatchJpg`
(the base bitstream parsed once), a
disk-backed :class:`~repro.serve.diskcache.PersistentFrameCache` for
cleared-region sharing, and a :class:`~repro.serve.diskcache.DiskCache`
of finished partials — so repeated requests are answered from disk
byte-identically, even across restarts or from a second process.

Requests are plain data (:class:`GenRequest`): XDL text, optional UCF
text, optional explicit region, granularity.  The request **digest**
hashes all of it, and the partial cache key is ``(base fingerprint,
region footprint, request digest)`` — three coordinates that completely
determine the output bytes, which is what makes serving from disk safe.

With an ``xhwif`` attached the service also deploys each generated (or
disk-served) partial to the board through a retrying
:class:`~repro.runtime.ReconfigSession` — the paper's "option 2" as a
service feature (deploy-on-generate).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from ..batch.cache import FrameCache
from ..batch.engine import BatchItem, BatchJpg
from ..bitstream.bitfile import BitFile
from ..bitstream.frames import FrameMemory
from ..core.jpg import JpgOptions
from ..core.partial import Granularity
from ..errors import UsageError
from ..exec.backend import Backend
from ..flow.floorplan import RegionRect
from ..flow.ncd import NcdDesign
from ..obs import Metrics, use_metrics
from ..runtime import ReconfigSession, RetryPolicy
from .diskcache import DiskCache, PersistentFrameCache, region_tag


@dataclass(frozen=True)
class GenRequest:
    """One client request: everything needed to generate one partial.

    All fields are text so requests survive JSON serialization unchanged;
    :meth:`digest` hashes the canonical JSON form, making equal requests
    collapse onto one cache entry (and one in-flight generation).
    """

    name: str
    xdl: str
    ucf: str | None = None
    region: str | None = None          # UCF range text, e.g. "CLB_R1C3:CLB_R16C12"
    granularity: str = "column"

    @classmethod
    def from_message(cls, msg: dict) -> "GenRequest":
        """The request a wire ``submit`` message describes (raises
        :class:`UsageError` for a malformed message)."""
        xdl = msg.get("xdl")
        if not isinstance(xdl, str) or not xdl.strip():
            raise UsageError("submit needs non-empty 'xdl' text")
        ucf = msg.get("ucf")
        region = msg.get("region")
        for field, value in (("ucf", ucf), ("region", region)):
            if value is not None and not isinstance(value, str):
                raise UsageError(f"'{field}' must be a string when present")
        return cls(
            name=str(msg.get("name") or "module"),
            xdl=xdl,
            ucf=ucf,
            region=region,
            granularity=str(msg.get("granularity", "column")),
        )

    def digest(self) -> str:
        """Content digest over every request field (the module key)."""
        canonical = json.dumps(
            {
                "name": self.name,
                "xdl": self.xdl,
                "ucf": self.ucf,
                "region": self.region,
                "granularity": self.granularity,
            },
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def region_rect(self) -> RegionRect | None:
        """The explicit region, parsed (None when only the UCF names one)."""
        if self.region is None:
            return None
        return RegionRect.from_ucf(self.region)

    def to_item(self, *, check_interface: bool) -> BatchItem:
        """The engine-level :class:`BatchItem` this request describes."""
        if self.granularity not in ("column", "frame"):
            raise UsageError(
                f"granularity must be 'column' or 'frame', got {self.granularity!r}"
            )
        return BatchItem(
            name=self.name,
            module=self.xdl,
            region=self.region_rect(),
            ucf=self.ucf,
            options=JpgOptions(
                granularity=Granularity(self.granularity),
                check_interface=check_interface,
            ),
        )


@dataclass
class ServeResult:
    """One served request: the partial bytes (or the error) and provenance."""

    request: GenRequest
    data: bytes | None
    seconds: float
    source: str                       # "generated" | "disk"
    frames: int = 0
    error: str | None = None
    deployed: bool = False

    @property
    def ok(self) -> bool:
        """True when the request produced bytes (no error)."""
        return self.error is None

    @property
    def size(self) -> int:
        """Size of the served partial in bytes (0 on error)."""
        return len(self.data) if self.data is not None else 0


class GenerationService:
    """Serve partial-bitstream generations against one base design."""

    def __init__(
        self,
        part: str,
        base_bitstream: bytes | BitFile | FrameMemory,
        base_design: NcdDesign | None = None,
        *,
        cache_dir: str | None = None,
        max_cache_bytes: int | None = None,
        metrics: Metrics | None = None,
        xhwif=None,
        retry: RetryPolicy | None = None,
        lint: bool = False,
        sanctioned: list[RegionRect] | None = None,
        backend: str | Backend = "serial",
    ):
        """``backend`` picks how generations execute (see
        :mod:`repro.exec`): ``"serial"`` (the default) runs them inline
        on the scheduler's threads, ``"warm"`` fans them out to a persistent
        pool of worker processes over a shared-memory base.  ``sanctioned``
        (with ``lint``) arms the gate's tamper rules: served partials
        must stay inside the policy regions and must not edit routing
        relative to the service's own base configuration."""
        self.metrics = metrics if metrics is not None else Metrics(keep_events=False)
        self.disk: DiskCache | None = (
            DiskCache(cache_dir, max_bytes=max_cache_bytes) if cache_dir else None
        )
        cache = PersistentFrameCache(self.disk) if self.disk else FrameCache()
        with use_metrics(self.metrics):
            self.engine = BatchJpg(
                part,
                base_bitstream,
                base_design=base_design,
                cache=cache,
                metrics=self.metrics,
                backend=backend,
            )
        self.part = part
        self.base_design = base_design
        self._session = (
            ReconfigSession(xhwif, policy=retry) if xhwif is not None else None
        )
        self._gate = None
        if lint or sanctioned is not None:
            from ..analyze import PreDeployGate

            self._gate = PreDeployGate(
                part,
                golden=(self.engine.base_frames
                        if sanctioned is not None else None),
                sanctioned=sanctioned,
            )

    @property
    def base_key(self) -> str:
        """Content key of the base configuration every request generates
        against (hashed once, by the engine)."""
        return self.engine.base_key

    @property
    def full_size(self) -> int:
        """Byte size of a complete configuration for this base."""
        return self.engine.full_size

    @property
    def cache_stats(self):
        """The engine's frame-cache hit/miss counters."""
        return self.engine.cache.stats

    def partial_key(self, request: GenRequest) -> tuple[str, str, str]:
        """The (base fingerprint, region tag, module digest) cache key."""
        return self.base_key, region_tag(request.region_rect()), request.digest()

    # -- the serving path -----------------------------------------------------

    def generate(self, request: GenRequest) -> ServeResult:
        """Serve one request: from the partial disk cache when possible,
        through the shared-base engine otherwise.  Generation *failures*
        come back on the result (``error``), not as exceptions."""
        start = time.perf_counter()
        with use_metrics(self.metrics):
            region = request.region_rect()
            if self.disk is not None:
                data = self.disk.load_partial(
                    self.base_key, region, request.digest()
                )
                if data is not None:
                    self.metrics.count("serve.served_from_disk")
                    result = ServeResult(
                        request, data, time.perf_counter() - start, "disk"
                    )
                    if self._lint_ok(result):
                        self._maybe_deploy(result)
                    return result
            item = request.to_item(check_interface=self.base_design is not None)
            with self.metrics.stage("serve.generate", module=request.name):
                item_result = self.engine.run_one(item)
            if not item_result.ok:
                self.metrics.count("serve.failures")
                return ServeResult(
                    request, None, time.perf_counter() - start, "generated",
                    error=item_result.error,
                )
            partial = item_result.result
            assert partial is not None
            if self.disk is not None:
                self.disk.store_partial(
                    self.base_key, region, request.digest(), partial.data
                )
            self.metrics.count("serve.generated")
            result = ServeResult(
                request, partial.data, time.perf_counter() - start, "generated",
                frames=len(partial.frames),
            )
            if self._lint_ok(result):
                self._maybe_deploy(result)
            return result

    def _lint_ok(self, result: ServeResult) -> bool:
        """Pre-serve gate: statically analyze the bytes about to leave.

        Catches corrupt disk-cache entries and generation defects alike;
        a blocked request comes back as an error result, never as raw
        bytes.  With no gate configured this is a no-op."""
        if self._gate is None or result.data is None:
            return True
        from ..analyze import LintTarget
        from ..errors import AnalysisError, ReproError

        request = result.request
        design = None
        constraints = None
        try:
            from ..xdl.parser import parse_xdl_cached

            design = parse_xdl_cached(request.xdl)
        except ReproError:
            design = None                 # stream rules still apply
        if request.ucf:
            try:
                from ..ucf.parser import parse_ucf

                constraints = parse_ucf(request.ucf).constraints
            except ReproError:
                constraints = None
        target = LintTarget(
            request.name, data=result.data, region=request.region_rect(),
            design=design, constraints=constraints,
        )
        try:
            with self.metrics.stage("serve.lint", module=request.name):
                self._gate.require([target])
        except AnalysisError as exc:
            result.error = f"lint: {exc}"
            result.data = None            # never hand out blocked bytes
            self.metrics.count("serve.lint_blocked")
            return False
        return True

    def _maybe_deploy(self, result: ServeResult) -> None:
        """Deploy-on-generate: push a served partial to the attached board."""
        if self._session is None or result.data is None:
            return
        with use_metrics(self.metrics):
            outcome = self._session.send(result.data, label=result.request.name)
        if not outcome.ok:
            result.error = f"deploy failed: {outcome.error}"
            self.metrics.count("serve.deploy_failures")
            return
        result.deployed = True
        self.metrics.count("serve.deploys")

    def close(self) -> None:
        """Release the engine's execution backend (the warm pool's workers
        and shared memory).  Idempotent; a serial service holds nothing."""
        self.engine.close()

    def stats(self) -> dict:
        """A JSON-ready snapshot for the ``stats`` protocol op."""
        cs = self.cache_stats
        snap = self.metrics.snapshot()
        out = {
            "part": self.part,
            "base_key": self.base_key,
            "full_size": self.full_size,
            "frame_cache": {"hits": cs.hits, "misses": cs.misses},
            "counters": {
                k: v for k, v in sorted(snap["counters"].items())
                if k.startswith(("serve.", "framecache.", "batch.", "analyze.",
                                 "exec."))
            },
            "gauges": snap["gauges"],
            "latency": {
                name: {k: (round(1e3 * v, 3) if k != "count" else v)
                       for k, v in row.items()}
                for name, row in self.metrics.latency_summary("serve.").items()
            },
        }
        if self.disk is not None:
            ds = self.disk.stats
            out["disk"] = {
                "root": self.disk.root,
                "hits": ds.hits,
                "misses": ds.misses,
                "stores": ds.stores,
                "evictions": ds.evictions,
                "bytes": self.disk.size_bytes(),
            }
        return out
