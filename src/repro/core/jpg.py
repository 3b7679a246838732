"""The JPG tool: partial bitstream generation from XDL + UCF.

This is the paper's contribution (§3).  A :class:`Jpg` instance is
initialised with the **base design's complete bitstream** ("the complete
bitstream file from the base design is used to initialize the environment"
— §3.2.1).  Each call to :meth:`make_partial` then performs the paper's
pipeline for one re-implemented sub-module:

1. parse the module's ``.xdl`` (and take the target region from its
   ``.ucf`` area group),
2. verify the module stayed inside its floorplanned region and preserves
   the base design's interface,
3. replay the implementation onto the device model via JBits calls
   (clearing the region, then writing the module's bits in place),
4. emit the partial bitstream — either to disk (option 1) or straight onto
   the base design / an attached board over XHWIF (option 2).

Granularity follows :mod:`repro.core.partial`: the default COLUMN policy
rewrites every frame of the module's column footprint, making the partial
valid regardless of which version currently occupies the region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..bitstream.assembler import full_stream_size
from ..bitstream.bitfile import BitFile
from ..bitstream.bitgen import bit_writes
from ..bitstream.frames import FrameDelta, FrameMemory
from ..devices import packaged_name
from ..errors import JpgError
from ..flow.floorplan import RegionRect
from ..flow.ncd import NcdDesign
from ..jbits.api import JBits
from ..jbits.xhwif import Xhwif
from ..obs import current_metrics
from ..ucf.parser import UcfFile

if TYPE_CHECKING:
    from ..batch.cache import FrameCache
from .partial import (
    Granularity,
    clb_column_frames,
    iob_column_frames,
    module_footprint_columns,
    module_iob_sides,
)
from .verify import check_module_in_region, raise_on_interface_mismatch


@dataclass
class PartialResult:
    """One generated partial bitstream and its accounting."""

    module_name: str
    data: bytes
    frames: list[int]
    columns: list[int]
    region: RegionRect | None
    granularity: Granularity
    full_size: int

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def ratio(self) -> float:
        """Partial size as a fraction of the complete bitstream."""
        return self.size / self.full_size if self.full_size else 0.0

    def bitfile(self, part: str) -> BitFile:
        return BitFile(
            design_name=f"{self.module_name}_partial.ncd",
            part_name=packaged_name(part),
            config_bytes=self.data,
        )

    def save(self, path: str, part: str) -> None:
        self.bitfile(part).save(path)


@dataclass
class JpgOptions:
    """Knobs of one make_partial run."""

    granularity: Granularity = Granularity.COLUMN
    clear_region: bool = True         # zero the region's tiles before the replay
    check_region: bool = True
    check_interface: bool = True
    startup: bool = False             # re-run startup after the write


class Jpg:
    """The partial bitstream generator."""

    def __init__(
        self,
        part: str,
        base_bitstream: bytes | BitFile | FrameMemory,
        base_design: NcdDesign | None = None,
        *,
        frame_cache: FrameCache | None = None,
        base_key: str | None = None,
    ):
        """``frame_cache`` shares cleared-region work between instances
        generating against the same base (see :mod:`repro.batch.cache`).
        ``base_key`` is that cache's key for ``base_bitstream``, when the
        caller already holds it (:attr:`repro.batch.engine.BatchJpg.base_key`):
        the first :meth:`make_partial` clears under it instead of hashing
        the base again."""
        self.part = part
        self.jbits = JBits(part)
        self.frame_cache = frame_cache
        # the frame-cache key of the frames while they are still the base;
        # the first make_partial to get past verification takes it
        self._base_key = base_key
        metrics = current_metrics()
        with metrics.stage("jpg.init_base", part=part):
            self.jbits.read(base_bitstream)
        self.base_design = base_design
        self._full_size = full_stream_size(self.jbits.device)

    # -- configuration state -----------------------------------------------------

    @property
    def frames(self) -> FrameMemory:
        """Current merged configuration (base + every applied partial)."""
        fm = self.jbits.frames
        assert fm is not None
        return fm

    def full_bitstream(self) -> bytes:
        """The merged complete bitstream (paper option 2 overwrites the
        base design's .bit file with this)."""
        return self.jbits.write()

    # -- main entry point -----------------------------------------------------------

    def make_partial(
        self,
        module: NcdDesign | str,
        *,
        region: RegionRect | None = None,
        ucf: UcfFile | None = None,
        options: JpgOptions | None = None,
    ) -> PartialResult:
        """Generate the partial bitstream for one re-implemented module.

        ``module`` is an :class:`NcdDesign` or XDL text; the target region
        comes from ``region``, or from the module's area group in ``ucf``.
        The partial is merged into this tool's configuration state and
        returned for saving/downloading.
        """
        opts = options or JpgOptions()
        metrics = current_metrics()
        design = self._as_design(module)
        region = region or self._region_from_ucf(design, ucf)

        with metrics.stage("jpg.verify", module=design.name):
            if opts.check_region:
                if region is None:
                    raise JpgError(
                        f"module {design.name!r}: no target region (pass region= or "
                        "a UCF with an AREA_GROUP RANGE)"
                    )
                check_module_in_region(design, region).raise_if_failed()
            if opts.check_interface and self.base_design is not None:
                raise_on_interface_mismatch(self.base_design, design)

        # from here on the frames change, so the base key no longer holds
        base_key, self._base_key = self._base_key, None

        # 1. clear the floorplanned region so stale logic cannot survive
        if opts.clear_region and region is not None:
            with metrics.stage("jpg.clear_region", module=design.name,
                               region=region.to_ucf()):
                self._clear_region(region, base_key)

        # 2. replay the module's implementation onto the configuration
        with metrics.stage("jpg.replay", module=design.name):
            self.jbits.apply_bits(bit_writes(design))

        # 3. pick the frame set
        with metrics.stage("jpg.frame_select", module=design.name):
            if opts.granularity is Granularity.COLUMN:
                columns = set(module_footprint_columns(design))
                if region is not None:
                    columns.update(region.clb_columns())
                frames = set(clb_column_frames(self.jbits.device, columns))
                frames.update(iob_column_frames(self.jbits.device, module_iob_sides(design)))
                # anything else the merge touched (e.g. the clock column)
                frames.update(self.jbits.dirty_frames)
                self.jbits.touch_frames(frames)
            else:
                frames = set(self.jbits.dirty_frames)
                columns = set(module_footprint_columns(design))
            if not frames:
                # nothing changed (re-applying the active version): still emit
                # the region's columns so the caller gets a usable bitstream
                if region is None:
                    raise JpgError(f"module {design.name!r}: no frames to write")
                frames = set(clb_column_frames(self.jbits.device, region.clb_columns()))
                self.jbits.touch_frames(frames)

        with metrics.stage("jpg.emit", module=design.name, frames=len(frames)):
            data = self.jbits.write_partial(startup=opts.startup)
        metrics.count("jpg.partials")
        metrics.count("jpg.frames_written", len(frames))
        metrics.count("jpg.partial_bytes", len(data))
        return PartialResult(
            module_name=design.name,
            data=data,
            frames=sorted(frames),
            columns=sorted(columns),
            region=region,
            granularity=opts.granularity,
            full_size=self._full_size,
        )

    # -- option 2: write to base design / board ------------------------------------------

    def download(self, xhwif: Xhwif, result: PartialResult) -> float:
        """Send a generated partial bitstream to an attached board; returns
        the transfer time in seconds."""
        if xhwif.get_device_name() != self.jbits.device.name:
            raise JpgError(
                f"board has {xhwif.get_device_name()}, tool is configured "
                f"for {self.jbits.device.name}"
            )
        return xhwif.send(result.data)

    # -- helpers ------------------------------------------------------------------------------

    def _clear_region(self, region: RegionRect, base_key: str | None) -> None:
        """Zero the region's tiles, dirtying the frames that change.

        With a :class:`~repro.batch.cache.FrameCache` attached, the clear
        is keyed by (current configuration content, region footprint) and
        shared as the :class:`~repro.bitstream.frames.FrameDelta` of the
        frames it changed: every later clear of the same region on the same
        content writes those rows back and dirties those frames instead of
        re-zeroing.  The content key is ``base_key`` when the caller knows
        the current frames are still the base, else a fresh hash of them.
        """
        if self.frame_cache is None:
            self.jbits.clear_region(region)
            return

        if base_key is None:
            base_key = self.frame_cache.base_key(self.frames)

        computed = False

        def compute() -> FrameDelta:
            nonlocal computed
            computed = True
            return FrameDelta.capture(self.frames, self.jbits.clear_region(region))

        delta = self.frame_cache.cleared(base_key, region, compute)
        if computed:
            return  # the frames were cleared in place, dirty set and all
        # a hit: the delta was cleared from frames equal to these
        self.frames.data[delta.frames] = delta.rows
        self.jbits.touch_frames(delta.frames.tolist())

    def _as_design(self, module: NcdDesign | str) -> NcdDesign:
        if isinstance(module, NcdDesign):
            return module
        from ..xdl.parser import parse_xdl_cached

        with current_metrics().stage("jpg.parse_xdl"):
            # content-hash memoized: repeated regenerations of one module
            # (repeated serve requests and batches) parse once per process
            return parse_xdl_cached(module)

    def _region_from_ucf(self, design: NcdDesign, ucf: UcfFile | None) -> RegionRect | None:
        if ucf is None:
            return None
        # the module's area group is the one matching its components
        for comp_name in list(design.slices) or list(design.iobs):
            group = ucf.constraints.group_of(comp_name)
            if group is not None and group.range is not None:
                return group.range
        return None
