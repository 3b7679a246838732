"""A simulated FPGA board: device + configuration port + running fabric.

:class:`Board` is the object an XHWIF connection talks to: download (full
or partial) bitstreams, read frames back, toggle pads, step the clock.
After every download the decoded :class:`HardwareModel` is rebuilt lazily —
downloading a *dynamic* partial bitstream preserves flip-flop state outside
the rewritten logic, mirroring partial reconfiguration of a running part.

:class:`DesignHarness` layers design-level names on top: given the NCD the
bitstream came from, it binds port names to pad sites so tests and examples
can say ``harness.set("a", 1); harness.clock(); harness.get("y")``.
"""

from __future__ import annotations

from ..bitstream.bitfile import BitFile
from ..bitstream.frames import FrameMemory
from ..devices import Device, get_device
from ..errors import SimulationError, XhwifError
from ..flow.ncd import NcdDesign
from .configport import DEFAULT_CCLK_HZ, ConfigPort, DownloadReport, PortMode
from .functional import HardwareModel


class Board:
    """One device on a simulated board."""

    def __init__(
        self,
        part: str | Device,
        *,
        mode: PortMode = PortMode.SELECTMAP,
        cclk_hz: float = DEFAULT_CCLK_HZ,
        name: str = "sim-board",
        fault_plan=None,
    ):
        self.device = part if isinstance(part, Device) else get_device(part)
        self.name = name
        self.frames = FrameMemory(self.device)
        self.port = ConfigPort(self.frames, mode=mode, cclk_hz=cclk_hz,
                               fault_plan=fault_plan)
        self._model: HardwareModel | None = None
        self.configured = False

    # -- configuration -----------------------------------------------------------

    def download(self, data: bytes | BitFile) -> DownloadReport:
        """Download a (full or partial) bitstream through the config port."""
        from ..bitstream.packets import Command

        if isinstance(data, BitFile):
            data = data.config_bytes
        old_state = self._model.ff_state if self._model is not None else None
        report = self.port.download(data)
        self.configured = True
        prev = self._model
        self._model = None
        if Command.GCAPTURE in report.stats.commands and old_state is not None:
            self._capture_states(old_state)
        if Command.GRESTORE in report.stats.commands:
            old_state = None  # every flip-flop reloads its init value
        # dynamic partial reconfiguration: user state outside the rewritten
        # region survives; carry flip-flop state over to the new model
        if prev is not None and old_state is not None and not report.stats.started:
            model = self.model()
            for key, value in old_state.items():
                if key in model.ff_state:
                    model.ff_state[key] = value
            model._settle()
        return report

    def _capture_states(self, state: dict) -> None:
        """GCAPTURE: latch flip-flop states into the capture cells so a
        subsequent readback can observe them."""
        from ..devices.resources import SLICE

        for (r, c, s, xy), value in state.items():
            field = SLICE[s].CAPTURE_X if xy == "X" else SLICE[s].CAPTURE_Y
            self.frames.set_field(r, c, field, value)

    def readback(self) -> FrameMemory:
        """Full-device configuration readback (one RCFG/FDRO session over
        every frame), reassembled into a frame memory."""
        if not self.configured:
            raise XhwifError("readback before any configuration")
        total = self.device.geometry.total_frames
        data, _report = self.port.readback(0, total)
        return FrameMemory(self.device, data)

    def readback_frames(self, start: int, count: int):
        """Read a frame window back; returns (frame matrix, timing report)."""
        if not self.configured:
            raise XhwifError("readback before any configuration")
        return self.port.readback(start, count)

    def verify(self, expected: FrameMemory) -> list[int]:
        """Readback-verify against an expected configuration; returns the
        mismatching linear frame indices (empty list = verified)."""
        from ..bitstream.readback import verify_frames

        data, _ = self.readback_frames(0, self.device.geometry.total_frames)
        return verify_frames(expected, data, 0)

    # -- running fabric --------------------------------------------------------------

    def model(self) -> HardwareModel:
        """The decoded, running circuit (rebuilt after each download)."""
        if not self.configured:
            raise XhwifError("device is not configured")
        if self._model is None:
            self._model = HardwareModel(self.frames)
        return self._model

    def set_pad(self, site: str, value: int) -> None:
        self.model().set_pad(site, value)

    def get_pad(self, site: str) -> int:
        return self.model().get_pad(site)

    def clock(self, n: int = 1, gclk: int | None = None) -> None:
        self.model().tick(n, gclk=gclk)

    # -- accounting --------------------------------------------------------------------

    @property
    def total_config_seconds(self) -> float:
        """Configuration-port time so far: every download and readback."""
        return self.port.total_cycles / self.port.cclk_hz


class DesignHarness:
    """Port-name bindings of a design running on a board."""

    def __init__(self, board: Board, design: NcdDesign):
        if design.part != board.device.name:
            raise SimulationError(
                f"design targets {design.part}, board is {board.device.name}"
            )
        self.board = board
        self.design = design
        self.in_pads: dict[str, str] = {}
        self.out_pads: dict[str, str] = {}
        for iob in design.iobs.values():
            if iob.site is None:
                raise SimulationError(f"IOB {iob.name} unplaced; run the flow first")
            if iob.direction == "in":
                self.in_pads[iob.port] = iob.site.name
            elif iob.direction == "out":
                self.out_pads[iob.port] = iob.site.name
        self.clocks = {g.port: g.index for g in design.gclks.values()}

    def set(self, port: str, value: int) -> None:
        try:
            self.board.set_pad(self.in_pads[port], value)
        except KeyError:
            raise SimulationError(f"{port!r} is not an input port of the design") from None

    def set_many(self, values: dict[str, int]) -> None:
        pads = {}
        for port, v in values.items():
            if port not in self.in_pads:
                raise SimulationError(f"{port!r} is not an input port of the design")
            pads[self.in_pads[port]] = v
        self.board.model().set_pads(pads)

    def get(self, port: str) -> int:
        try:
            return self.board.get_pad(self.out_pads[port])
        except KeyError:
            raise SimulationError(f"{port!r} is not an output port of the design") from None

    def get_word(self, ports: list[str]) -> int:
        word = 0
        for i, p in enumerate(ports):
            word |= self.get(p) << i
        return word

    def set_word(self, ports: list[str], value: int) -> None:
        self.set_many({p: (value >> i) & 1 for i, p in enumerate(ports)})

    def clock(self, n: int = 1, port: str | None = None) -> None:
        if port is not None and port not in self.clocks:
            raise SimulationError(f"{port!r} is not a clock port of the design")
        gclk = self.clocks[port] if port is not None else None
        self.board.clock(n, gclk=gclk)

    def outputs(self) -> dict[str, int]:
        return {p: self.get(p) for p in self.out_pads}
