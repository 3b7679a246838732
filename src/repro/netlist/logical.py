"""Logical netlist: cells, nets, and top-level ports.

The netlist is the hand-off between synthesis-side code (builder/expr,
workload generators) and the implementation flow (techmap → pack → place →
route).  Names are hierarchical by the ``/`` convention (``u1/nrz``), like
the instance names JPG reads out of XDL files.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..errors import NetlistError
from .library import CellKind, PINS, lut_mask_limit, pin_def


@dataclass
class Cell:
    """One primitive instance."""

    name: str
    kind: CellKind
    params: dict[str, int] = dc_field(default_factory=dict)
    pins: dict[str, str] = dc_field(default_factory=dict)  # pin -> net name

    @property
    def init(self) -> int:
        return self.params.get("INIT", 0)


@dataclass
class Net:
    """One signal: a single driver and any number of sinks."""

    name: str
    driver: tuple[str, str] | None = None        # (cell, pin)
    sinks: list[tuple[str, str]] = dc_field(default_factory=list)

    @property
    def fanout(self) -> int:
        return len(self.sinks)


@dataclass
class Port:
    """Top-level port, bound to a net through an IBUF/OBUF cell."""

    name: str
    direction: str                     # "in" | "out" | "clock"
    buffer_cell: str = ""              # name of the IBUF/OBUF cell


class Netlist:
    """A flat, validated logical netlist."""

    def __init__(self, name: str):
        self.name = name
        self.cells: dict[str, Cell] = {}
        self.nets: dict[str, Net] = {}
        self.ports: dict[str, Port] = {}

    # -- construction ---------------------------------------------------------

    def add_cell(self, name: str, kind: CellKind, params: dict[str, int] | None = None) -> Cell:
        if name in self.cells:
            raise NetlistError(f"duplicate cell name {name!r}")
        cell = Cell(name, kind, dict(params or {}))
        if kind.is_lut:
            init = cell.params.setdefault("INIT", 0)
            if not 0 <= init < lut_mask_limit(kind.lut_width):
                raise NetlistError(
                    f"{name}: INIT {init:#x} does not fit a {kind.value}"
                )
        self.cells[name] = cell
        return cell

    def add_net(self, name: str) -> Net:
        if name in self.nets:
            raise NetlistError(f"duplicate net name {name!r}")
        net = Net(name)
        self.nets[name] = net
        return net

    def get_net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"no net named {name!r}") from None

    def get_cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise NetlistError(f"no cell named {name!r}") from None

    def connect(self, cell_name: str, pin: str, net_name: str) -> None:
        cell = self.get_cell(cell_name)
        net = self.get_net(net_name)
        pd = pin_def(cell.kind, pin)
        if pin in cell.pins:
            raise NetlistError(f"{cell_name}.{pin} already connected to {cell.pins[pin]!r}")
        cell.pins[pin] = net_name
        if pd.is_output:
            if net.driver is not None:
                raise NetlistError(
                    f"net {net_name!r} has two drivers: "
                    f"{net.driver[0]}.{net.driver[1]} and {cell_name}.{pin}"
                )
            net.driver = (cell_name, pin)
        else:
            net.sinks.append((cell_name, pin))

    def add_port(self, name: str, direction: str, buffer_cell: str) -> Port:
        if direction not in ("in", "out", "clock"):
            raise NetlistError(f"port direction must be in/out/clock, got {direction!r}")
        if name in self.ports:
            raise NetlistError(f"duplicate port name {name!r}")
        port = Port(name, direction, buffer_cell)
        self.ports[name] = port
        return port

    # -- queries -----------------------------------------------------------------

    def cells_of_kind(self, *kinds: CellKind) -> list[Cell]:
        return [c for c in self.cells.values() if c.kind in kinds]

    def luts(self) -> list[Cell]:
        return [c for c in self.cells.values() if c.kind.is_lut]

    def ffs(self) -> list[Cell]:
        return self.cells_of_kind(CellKind.DFF)

    def input_ports(self) -> list[Port]:
        return [p for p in self.ports.values() if p.direction == "in"]

    def output_ports(self) -> list[Port]:
        return [p for p in self.ports.values() if p.direction == "out"]

    def clock_ports(self) -> list[Port]:
        return [p for p in self.ports.values() if p.direction == "clock"]

    def stats(self) -> dict[str, int]:
        return {
            "cells": len(self.cells),
            "luts": len(self.luts()),
            "ffs": len(self.ffs()),
            "nets": len(self.nets),
            "ports": len(self.ports),
        }

    # -- validation ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural legality; raises :class:`NetlistError`."""
        for cell in self.cells.values():
            for pd in PINS[cell.kind]:
                if pd.name not in cell.pins and not pd.optional:
                    raise NetlistError(f"{cell.name}: pin {pd.name} unconnected")
        for net in self.nets.values():
            if net.driver is None:
                raise NetlistError(f"net {net.name!r} has no driver")
            if not net.sinks and self.get_cell(net.driver[0]).kind is not CellKind.IBUF:
                raise NetlistError(f"net {net.name!r} has no sinks")
        for port in self.ports.values():
            cell = self.get_cell(port.buffer_cell)
            want = CellKind.OBUF if port.direction == "out" else CellKind.IBUF
            if cell.kind is not want:
                raise NetlistError(
                    f"port {port.name}: buffer cell {cell.name} is {cell.kind.value}, "
                    f"expected {want.value}"
                )
        # every DFF clock pin must come from a clock port's IBUF
        clock_nets = {
            self.get_cell(p.buffer_cell).pins.get("O") for p in self.clock_ports()
        }
        for ff in self.ffs():
            cnet = ff.pins.get("C")
            if cnet not in clock_nets:
                raise NetlistError(
                    f"{ff.name}: clock pin driven by {cnet!r}, which is not a "
                    f"clock port (gated/derived clocks are unsupported)"
                )

    # -- misc ----------------------------------------------------------------------------

    def remove_cell(self, name: str) -> None:
        """Remove a cell and detach its pins (used by techmap merging)."""
        cell = self.get_cell(name)
        for pin, net_name in cell.pins.items():
            net = self.nets.get(net_name)
            if net is None:
                continue
            if net.driver == (name, pin):
                net.driver = None
            else:
                net.sinks = [s for s in net.sinks if s != (name, pin)]
        del self.cells[name]

    def remove_net(self, name: str) -> None:
        net = self.get_net(name)
        if net.driver is not None or net.sinks:
            raise NetlistError(f"net {name!r} still connected")
        del self.nets[name]

    def sweep(self) -> int:
        """Remove logic whose outputs reach nothing (dead-code sweep).

        IBUF cells are kept — an unused input port is legal.  Returns the
        number of cells removed.
        """
        removed = 0
        changed = True
        while changed:
            changed = False
            for net in list(self.nets.values()):
                if net.sinks or net.driver is None:
                    continue
                driver = self.get_cell(net.driver[0])
                if driver.kind is CellKind.IBUF:
                    continue
                self.remove_cell(driver.name)
                self.remove_net(net.name)
                removed += 1
                changed = True
        return removed

    def copy(self) -> Netlist:
        """An independent copy: new cells, nets and ports (``params``,
        ``pins`` and ``sinks`` containers included), built through the
        plain constructors — what ``copy.deepcopy`` gives, without its
        per-object memo and reduce machinery."""
        out = Netlist(self.name)
        out.cells = {
            name: Cell(c.name, c.kind, dict(c.params), dict(c.pins))
            for name, c in self.cells.items()
        }
        out.nets = {
            name: Net(n.name, n.driver, list(n.sinks)) for name, n in self.nets.items()
        }
        out.ports = {
            name: Port(p.name, p.direction, p.buffer_cell)
            for name, p in self.ports.items()
        }
        return out

    def driver_cell(self, net_name: str) -> Cell | None:
        net = self.get_net(net_name)
        return self.get_cell(net.driver[0]) if net.driver else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return f"Netlist({self.name}: {s['luts']} LUTs, {s['ffs']} FFs, {s['nets']} nets)"
