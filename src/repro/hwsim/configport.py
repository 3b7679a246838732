"""Configuration-port simulator (SelectMAP / serial slave).

Wraps the packet interpreter with the *transport* behaviour of the physical
configuration interface: bytes arrive one per CCLK cycle on the 8-bit
SelectMAP port (or one bit per cycle in serial mode), so download time is
``bytes * 8 / width / f_cclk`` — the first-order model behind the paper's
"smaller partial bitstream = shorter reconfiguration time" claim, and what
the DLOAD benchmark measures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..bitstream.frames import FrameMemory
from ..bitstream.readback import decode_readback, readback_command_stream
from ..bitstream.reader import ConfigInterpreter, InterpreterStats
from ..errors import BitstreamError


class PortMode(enum.Enum):
    """Configuration interface width."""

    SELECTMAP = 8   # 8-bit parallel, one byte per CCLK
    SERIAL = 1      # one bit per CCLK

    @property
    def bits_per_cycle(self) -> int:
        return self.value


#: Maximum CCLK for Virtex-era SelectMAP configuration.
DEFAULT_CCLK_HZ = 50_000_000


@dataclass
class ReadbackReport:
    """Timing of one readback session (command out + data in)."""

    frames: int
    command_bytes: int
    data_bytes: int
    cycles: int
    seconds: float


@dataclass
class DownloadReport:
    """Timing and interpreter results of one configuration session."""

    bytes: int
    cycles: int
    seconds: float
    mode: PortMode
    stats: InterpreterStats

    @property
    def frames_written(self) -> int:
        return self.stats.frames_written


class ConfigPort:
    """A configuration port bound to a device's frame memory.

    The interpreter persists across downloads, exactly like the device's
    configuration logic: a partial bitstream re-syncs and writes over the
    frames that a previous full bitstream loaded.

    ``fault_plan`` is a pluggable fault injector (duck-typed; see
    :class:`repro.runtime.FaultPlan`) with three hooks:

    * ``on_download(data, frames) -> bytes`` — called before a download;
      may flip SRAM bits, corrupt or truncate the stream in flight, or
      raise a transient :class:`~repro.errors.XhwifError`;
    * ``on_readback(frames)`` — called before a readback session; may
      flip SRAM bits or raise a transient error;
    * ``after_download()`` — called after a *successful* download (arms
      the next SEU window).
    """

    def __init__(
        self,
        frames: FrameMemory,
        *,
        mode: PortMode = PortMode.SELECTMAP,
        cclk_hz: float = DEFAULT_CCLK_HZ,
        fault_plan=None,
    ):
        self.frames = frames
        self.mode = mode
        self.cclk_hz = float(cclk_hz)
        self.fault_plan = fault_plan
        #: CCLK cycles of every transfer, downloads and readbacks alike
        self.total_cycles = 0
        #: completed downloads (a count, not a log: a long-lived board
        #: would otherwise hold every report it was ever sent)
        self.download_count = 0

    def cycles_for(self, nbytes: int) -> int:
        return nbytes * 8 // self.mode.bits_per_cycle

    def seconds_for(self, nbytes: int) -> float:
        return self.cycles_for(nbytes) / self.cclk_hz

    def download(self, data: bytes) -> DownloadReport:
        """Feed a configuration byte stream through the port."""
        if self.fault_plan is not None:
            data = self.fault_plan.on_download(data, self.frames)
        interp = ConfigInterpreter(self.frames)
        try:
            stats = interp.feed_bytes(data)
        finally:
            # the bytes were clocked in even if the stream turned out to
            # be corrupt; the transfer time was spent either way
            cycles = self.cycles_for(len(data))
            self.total_cycles += cycles
        report = DownloadReport(
            bytes=len(data),
            cycles=cycles,
            seconds=cycles / self.cclk_hz,
            mode=self.mode,
            stats=stats,
        )
        self.download_count += 1
        if self.fault_plan is not None:
            self.fault_plan.after_download()
        return report

    def readback(self, start_frame: int, n_frames: int) -> tuple[np.ndarray, ReadbackReport]:
        """Read frames back out through the port (CMD=RCFG + FDRO).

        Returns the frame matrix and a timing report covering both the
        command stream (host -> device) and the data (device -> host).
        """
        if self.fault_plan is not None:
            self.fault_plan.on_readback(self.frames)
        device = self.frames.device
        cmd = readback_command_stream(device, start_frame, n_frames)
        interp = ConfigInterpreter(self.frames)
        interp.feed_bytes(cmd)
        words = interp.take_output()
        if interp.stats.frames_read != n_frames:
            raise BitstreamError(
                f"readback returned {interp.stats.frames_read} frames, "
                f"expected {n_frames}"
            )
        data = decode_readback(device, words, n_frames)
        nbytes = len(cmd) + int(words.size) * 4
        cycles = self.cycles_for(nbytes)
        self.total_cycles += cycles
        report = ReadbackReport(
            frames=n_frames,
            command_bytes=len(cmd),
            data_bytes=int(words.size) * 4,
            cycles=cycles,
            seconds=cycles / self.cclk_hz,
        )
        return data, report
