"""Configuration-stream assembly: complete and partial bitstreams.

A **complete** stream configures every frame of the device and runs the
startup sequence:

    dummy, sync, RCRC, IDCODE, FLR, COR, MASK+CTL, FAR=0, WCFG,
    FDRI <all frames>, CRC, LFRM, START, DESYNC, dummy words

A **partial** stream writes only a set of frame runs, optionally without
touching startup state (the device keeps running — dynamic partial
reconfiguration):

    dummy, sync, RCRC, IDCODE, FLR, [per run: FAR, WCFG, FDRI <run>],
    CRC, LFRM, [START,] DESYNC

Frame data is written in linear frame order; the device auto-increments
FAR across minor and major boundaries, so one burst can span columns.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from ..devices import Device, packaged_name
from ..errors import BitstreamError
from ..obs import current_metrics
from .bitfile import BitFile
from .frames import FrameMemory, frame_runs
from .packets import TYPE1_COUNT_MAX, Command, PacketWriter, Register, far_encode

#: Default configuration-options word (CCLK startup phase settings).
DEFAULT_COR = 0x0000_3FE5
#: Default control word (persist off, security off).
DEFAULT_CTL = 0x0000_0000


def _preamble(writer: PacketWriter, device: Device) -> None:
    writer.dummy()
    writer.sync()
    writer.command(Command.RCRC)
    writer.write_reg(Register.IDCODE, device.part.idcode)
    writer.write_reg(Register.FLR, device.geometry.flr_value)


def full_stream(frames: FrameMemory, *, cor: int = DEFAULT_COR, ctl: int = DEFAULT_CTL) -> bytes:
    """Serialize a complete configuration of the device."""
    device = frames.device
    metrics = current_metrics()
    with metrics.stage("assemble.full_stream", part=device.name,
                       frames=device.geometry.total_frames):
        w = PacketWriter()
        _preamble(w, device)
        w.write_reg(Register.COR, cor)
        w.write_reg(Register.MASK, 0xFFFFFFFF)
        w.write_reg(Register.CTL, ctl)
        w.write_reg(Register.FAR, far_encode(0, 0))
        w.command(Command.WCFG)
        w.write_fdri(frames.data.reshape(-1))
        w.write_crc_check()
        w.command(Command.LFRM)
        w.nop(4)
        w.command(Command.START)
        w.command(Command.DESYNC)
        w.dummy(4)
        data = w.to_bytes()
    metrics.count("assemble.full_streams")
    metrics.count("assemble.bytes_out", len(data))
    return data


#: Words :func:`full_stream` writes around the frame data when the FDRI
#: burst fits a type-1 header; a type-2 header adds one more.
_FULL_STREAM_FIXED_WORDS = 35


def full_stream_size(device: Device) -> int:
    """Length in bytes of :func:`full_stream` for ``device``, from the
    geometry alone (nothing is serialized)."""
    payload = device.geometry.config_payload_words()
    fixed = _FULL_STREAM_FIXED_WORDS + (payload > TYPE1_COUNT_MAX)
    return 4 * (payload + fixed)


def partial_stream(
    frames: FrameMemory,
    frame_indices: Iterable[int],
    *,
    startup: bool = False,
) -> bytes:
    """Serialize only the given linear frames of ``frames``.

    ``startup=False`` (the default) produces a *dynamic* partial bitstream:
    the device's startup state is untouched and user logic outside the
    written frames keeps running.  ``startup=True`` re-runs the startup
    sequence after the write (shutdown-style reconfiguration).
    """
    device = frames.device
    indices = list(frame_indices)
    duplicates: list[int] = []
    if len(indices) != len(set(indices)):
        counts = Counter(indices)
        duplicates = sorted(i for i, n in counts.items() if n > 1)
    if duplicates:
        shown = ", ".join(str(i) for i in duplicates[:6])
        raise BitstreamError(
            f"duplicate frame indices in partial: {shown}"
            + ("..." if len(duplicates) > 6 else "")
        )
    runs = frame_runs(indices)
    if not runs:
        raise BitstreamError("partial bitstream with no frames")
    metrics = current_metrics()
    with metrics.stage("assemble.partial_stream", part=device.name,
                       frames=sum(n for _, n in runs), runs=len(runs)):
        g = device.geometry
        w = PacketWriter()
        _preamble(w, device)
        for start, length in runs:
            major, minor = g.frame_address(start)
            # validate the run stays in range
            g.frame_address(start + length - 1)
            w.write_reg(Register.FAR, far_encode(major, minor))
            w.command(Command.WCFG)
            w.write_fdri(frames.data[start:start + length].reshape(-1))
        w.write_crc_check()
        w.command(Command.LFRM)
        w.nop(4)
        if startup:
            w.command(Command.START)
        w.command(Command.DESYNC)
        w.dummy(2)
        data = w.to_bytes()
    metrics.count("assemble.partial_streams")
    metrics.count("assemble.bytes_out", len(data))
    return data


def full_bitfile(frames: FrameMemory, design_name: str, **kwargs) -> BitFile:
    """Package a complete stream as a .bit file."""
    return BitFile(
        design_name=design_name,
        part_name=packaged_name(frames.device.name),
        config_bytes=full_stream(frames, **kwargs),
    )


def partial_bitfile(
    frames: FrameMemory,
    frame_indices: Iterable[int],
    design_name: str,
    **kwargs,
) -> BitFile:
    """Package a partial stream as a .bit file."""
    return BitFile(
        design_name=design_name,
        part_name=packaged_name(frames.device.name),
        config_bytes=partial_stream(frames, frame_indices, **kwargs),
    )
