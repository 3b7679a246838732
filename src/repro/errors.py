"""Exception hierarchy for the JPG reproduction.

Every error raised by this package derives from :class:`ReproError` so
applications embedding the library can catch one base class.  The hierarchy
mirrors the major subsystems: device modelling, bitstream transport, the CAD
flow, front-end parsers, and the JPG core itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DeviceError(ReproError):
    """Invalid device, site, wire, or resource reference."""


class UnknownPartError(DeviceError):
    """A part name that is not in the Virtex family catalog."""


class ResourceError(DeviceError):
    """A resource name/coordinate that does not exist on the device."""


class BitstreamError(ReproError):
    """Malformed configuration data."""


class CrcError(BitstreamError):
    """Configuration CRC mismatch detected by the device/config port."""


class SyncError(BitstreamError):
    """Sync word not found or configuration logic out of sync."""


class PacketError(BitstreamError):
    """Malformed type-1/type-2 configuration packet."""


class BitfileError(BitstreamError):
    """Malformed ``.bit`` file header."""


class FlowError(ReproError):
    """A CAD-flow stage (map/place/route/bitgen) failed."""


class TechmapError(FlowError):
    """Technology mapping could not cover the logic network."""


class PackError(FlowError):
    """Slice packing failed (illegal cluster)."""


class PlacementError(FlowError):
    """No legal placement exists (over-capacity or constraint conflict)."""


class RoutingError(FlowError):
    """The router could not complete all nets (unroutable/congestion)."""


class NetlistError(ReproError):
    """Illegal logical netlist construction or reference."""


class ParseError(ReproError):
    """Base class for front-end parse errors (XDL/UCF/options files)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", col {column}" if column is not None else "")
        super().__init__(f"{message}{loc}")


class XdlParseError(ParseError):
    """Invalid XDL text."""


class UcfParseError(ParseError):
    """Invalid UCF constraint text."""


class ConstraintError(ReproError):
    """Constraints are inconsistent or violated by an implementation."""


class JBitsError(ReproError):
    """Illegal JBits API usage (bad resource, no bitstream loaded, ...)."""


class XhwifError(ReproError):
    """Hardware-interface (board) communication failure."""


class UsageError(ReproError):
    """Invalid invocation: bad arguments, unreadable inputs, malformed
    manifests.  The CLI maps this to a distinct exit code (2) so callers
    can tell "you asked wrong" from "the operation failed"."""


class ServeError(ReproError):
    """Generation-service error (scheduler, disk cache, protocol)."""


class QueueFullError(ServeError):
    """The service's bounded job queue rejected a request (backpressure)."""


class ServiceUnavailableError(ServeError):
    """The generation service cannot be reached (no socket, refused)."""


class AnalysisError(ReproError):
    """Static analysis found blocking findings (the pre-deploy gate).

    Carries the blocking :class:`~repro.analyze.Finding` objects so
    callers can render rule ids and locations without re-running the
    analysis."""

    def __init__(self, message: str, findings: object = ()):
        self.findings = list(findings)  # type: ignore[call-overload]
        super().__init__(message)


class JpgError(ReproError):
    """JPG core tool error (project, interface mismatch, merge conflict)."""


class InterfaceMismatchError(JpgError):
    """A replacement module does not preserve the base module's interface."""


class SimulationError(ReproError):
    """Functional simulation failure (contention, undriven logic, ...)."""


class ContentionError(SimulationError):
    """Two drivers actively drive the same routing wire."""
