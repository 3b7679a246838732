"""JBits-style bitstream API, JRoute run-time routing, and XHWIF."""

from ..devices.resources import SLICE
from .api import JBits, decoded_base
from .jroute import JRoute, RouteResult, parse_wire
from .xhwif import NullXhwif, SimulatedXhwif, Xhwif

__all__ = [
    "JBits", "JRoute", "NullXhwif", "RouteResult", "SLICE",
    "SimulatedXhwif", "Xhwif", "decoded_base", "parse_wire",
]
