"""CAD flow substrate (the "Foundation tools" equivalent): techmap, pack,
place, route, timing, the NCD database, and the one-call flow driver."""

from .driver import FlowResult, clear_flow_cache, run_flow
from .floorplan import AreaGroup, Constraints, RegionRect, full_device_region
from .ncd import Bel, GclkComp, IobComp, NcdDesign, PhysNet, PinRef, SinkRef, SliceComp
from .pack import PackStats, module_prefix, pack
from .place import PlacementStats, Placer, place
from .route import Router, RoutingStats, route
from .techmap import TechmapStats, techmap
from .timing import TimingReport, analyze

__all__ = [
    "AreaGroup", "Bel", "Constraints", "FlowResult", "GclkComp", "IobComp",
    "NcdDesign", "PackStats", "PhysNet", "PinRef",
    "PlacementStats", "Placer", "RegionRect", "Router",
    "RoutingStats", "SinkRef", "SliceComp",
    "TechmapStats", "TimingReport", "analyze", "clear_flow_cache",
    "full_device_region",
    "module_prefix", "pack", "place", "route", "run_flow", "techmap",
]
