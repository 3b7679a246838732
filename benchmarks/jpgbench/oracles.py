"""Correctness oracles: a number counts only if the output behind it is right.

Every check here is unconditional and untimed, and a failure names the
oracle.  The behavioural oracle is the paper's invariant: a board loaded
with the base bitstream plus JPG partials must behave, clock by clock, like
a board loaded with the conventional complete build of the same
combination of module versions.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable

from repro.bitstream.bitfile import BitFile
from repro.errors import ReproError
from repro.hwsim import Board, DesignHarness
from repro.jbits import SimulatedXhwif

from .context import Context
from .scenarios import Base

#: Clock cycles the behavioural oracle compares.
CLOCKS = 16


class OracleError(Exception):
    """An output failed a correctness check."""

    def __init__(self, oracle: str, message: str):
        super().__init__(f"{oracle}: {message}")
        self.oracle = oracle


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def same_bytes(oracle: str, label: str, expected: bytes, got: bytes) -> None:
    """``got`` must be byte-identical to ``expected``."""
    if got != expected:
        raise OracleError(oracle, f"{label}: {len(got)} bytes differ from the "
                                  f"{len(expected)}-byte reference")


def consistent(oracle: str, digests: dict[str, set[str]]) -> None:
    """Every key must have come back with one content digest."""
    for key, seen in digests.items():
        if len(seen) != 1:
            raise OracleError(oracle, f"{key}: {len(seen)} different replies")


def behaviour(ctx: Context, label: str, part: str, base: Base, partials: Iterable[bytes],
              reference: Base, rng: random.Random, clocks: int = CLOCKS) -> None:
    """Base plus ``partials`` on one fresh board must match ``reference``
    on another for ``clocks`` cycles of seeded inputs."""
    oracle = "behaviour"
    board = "conventional build"
    try:
        want = DesignHarness(_configured(ctx, part, reference.bitfile), reference.design)
        with ctx.span("hwsim.simulate"):
            want.board.model()
        board = "base plus partials"
        got = DesignHarness(_configured(ctx, part, base.bitfile), base.design)
        xhwif = SimulatedXhwif(got.board)
        for data in partials:
            ctx.download(xhwif, data)
        with ctx.span("hwsim.simulate"):
            if set(got.in_pads) != set(want.in_pads) or set(got.out_pads) != set(want.out_pads):
                raise OracleError(oracle, f"{label}: port sets differ")
            inputs = sorted(got.in_pads)
            for cycle in range(clocks):
                values = {port: rng.getrandbits(1) for port in inputs}
                got.set_many(values)
                want.set_many(values)
                a, b = got.outputs(), want.outputs()
                if a != b:
                    wrong = sorted(p for p in a if a[p] != b[p])
                    raise OracleError(oracle, f"{label}: cycle {cycle} outputs {wrong} "
                                              f"differ from the conventional build")
                got.clock()
                want.clock()
    except ReproError as exc:
        raise OracleError(oracle, f"{label}: {board}: {type(exc).__name__}: {exc}") from exc


def configures(ctx: Context, label: str, part: str, base: Base, data: bytes,
               frames: int) -> None:
    """``data`` must load onto a board holding the base: every CRC check
    passes and exactly ``frames`` frames are written."""
    oracle = "configures"
    try:
        report = ctx.download(SimulatedXhwif(_configured(ctx, part, base.bitfile)), data)
    except ReproError as exc:
        raise OracleError(oracle, f"{label}: {type(exc).__name__}: {exc}") from exc
    if report.stats.crc_checks_passed < 1 or report.frames_written != frames:
        raise OracleError(oracle, f"{label}: wrote {report.frames_written} of {frames} "
                                  f"frames, {report.stats.crc_checks_passed} CRC checks")


def _configured(ctx: Context, part: str, bitfile: BitFile) -> Board:
    board = Board(part)
    ctx.download(SimulatedXhwif(board), bitfile.config_bytes)
    return board
