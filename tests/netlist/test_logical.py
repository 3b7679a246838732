"""Netlist model tests: construction, validation, sweep."""

import pytest

from repro.errors import NetlistError
from repro.netlist.library import CellKind
from repro.netlist.logical import Netlist


def minimal() -> Netlist:
    nl = Netlist("t")
    nl.add_cell("a__ibuf", CellKind.IBUF)
    nl.add_net("a")
    nl.connect("a__ibuf", "O", "a")
    nl.add_port("a", "in", "a__ibuf")
    nl.add_cell("inv", CellKind.LUT1, {"INIT": 0b01})
    nl.add_net("y")
    nl.connect("inv", "I0", "a")
    nl.connect("inv", "O", "y")
    nl.add_cell("y__obuf", CellKind.OBUF)
    nl.connect("y__obuf", "I", "y")
    nl.add_port("y", "out", "y__obuf")
    return nl


class TestConstruction:
    def test_minimal_validates(self):
        minimal().validate()

    def test_duplicate_cell(self):
        nl = minimal()
        with pytest.raises(NetlistError):
            nl.add_cell("inv", CellKind.LUT1)

    def test_duplicate_net(self):
        nl = minimal()
        with pytest.raises(NetlistError):
            nl.add_net("y")

    def test_duplicate_port(self):
        nl = minimal()
        with pytest.raises(NetlistError):
            nl.add_port("a", "in", "a__ibuf")

    def test_bad_port_direction(self):
        nl = minimal()
        with pytest.raises(NetlistError):
            nl.add_port("z", "inout", "a__ibuf")

    def test_two_drivers_rejected(self):
        nl = minimal()
        nl.add_cell("inv2", CellKind.LUT1, {"INIT": 0b01})
        nl.connect("inv2", "I0", "a")
        with pytest.raises(NetlistError, match="two drivers"):
            nl.connect("inv2", "O", "y")

    def test_double_connect_rejected(self):
        nl = minimal()
        with pytest.raises(NetlistError, match="already connected"):
            nl.connect("inv", "I0", "y")

    def test_init_range_checked(self):
        nl = Netlist("x")
        with pytest.raises(NetlistError):
            nl.add_cell("l", CellKind.LUT1, {"INIT": 4})

    def test_lookup_errors(self):
        nl = minimal()
        with pytest.raises(NetlistError):
            nl.get_cell("nope")
        with pytest.raises(NetlistError):
            nl.get_net("nope")


class TestValidation:
    def test_unconnected_pin(self):
        nl = minimal()
        nl.add_cell("l2", CellKind.LUT2, {"INIT": 8})
        nl.add_net("w")
        nl.connect("l2", "O", "w")
        nl.connect("l2", "I0", "a")
        nl.add_cell("w__obuf", CellKind.OBUF)
        nl.connect("w__obuf", "I", "w")
        nl.add_port("w", "out", "w__obuf")
        with pytest.raises(NetlistError, match="I1 unconnected"):
            nl.validate()

    def test_undriven_net(self):
        nl = minimal()
        nl.add_net("floating")
        nl.get_net("floating").sinks.append(("inv", "fake"))
        with pytest.raises(NetlistError, match="no driver"):
            nl.validate()

    def test_sinkless_net_rejected_for_logic(self):
        nl = minimal()
        nl.add_cell("l", CellKind.LUT1, {"INIT": 1})
        nl.add_net("dead")
        nl.connect("l", "I0", "a")
        nl.connect("l", "O", "dead")
        with pytest.raises(NetlistError, match="no sinks"):
            nl.validate()

    def test_sinkless_input_port_allowed(self):
        nl = minimal()
        nl.add_cell("b__ibuf", CellKind.IBUF)
        nl.add_net("b")
        nl.connect("b__ibuf", "O", "b")
        nl.add_port("b", "in", "b__ibuf")
        nl.validate()

    def test_ff_clock_must_be_clock_port(self):
        nl = minimal()
        nl.add_cell("ff", CellKind.DFF)
        nl.add_net("q")
        nl.connect("ff", "D", "a")
        nl.connect("ff", "C", "a")  # data port used as clock
        nl.connect("ff", "Q", "q")
        nl.get_net("q").sinks.append(("y__obuf", "fake"))  # keep q "used"
        with pytest.raises(NetlistError, match="clock"):
            nl.validate()

    def test_wrong_buffer_kind(self):
        nl = minimal()
        nl.ports["a"].buffer_cell = "y__obuf"
        with pytest.raises(NetlistError, match="expected IBUF"):
            nl.validate()


class TestSweep:
    def test_removes_dead_chain(self):
        nl = minimal()
        nl.add_cell("d1", CellKind.LUT1, {"INIT": 1})
        nl.add_net("w1")
        nl.connect("d1", "I0", "a")
        nl.connect("d1", "O", "w1")
        nl.add_cell("d2", CellKind.LUT1, {"INIT": 1})
        nl.add_net("w2")
        nl.connect("d2", "I0", "w1")
        nl.connect("d2", "O", "w2")
        removed = nl.sweep()
        assert removed == 2
        assert "d1" not in nl.cells and "w2" not in nl.nets
        nl.validate()

    def test_keeps_live_logic(self):
        nl = minimal()
        assert nl.sweep() == 0
        assert "inv" in nl.cells

    def test_keeps_unused_ibuf(self):
        nl = minimal()
        nl.add_cell("u__ibuf", CellKind.IBUF)
        nl.add_net("u")
        nl.connect("u__ibuf", "O", "u")
        nl.add_port("u", "in", "u__ibuf")
        nl.sweep()
        assert "u__ibuf" in nl.cells


class TestQueries:
    def test_stats(self):
        s = minimal().stats()
        assert s == {"cells": 3, "luts": 1, "ffs": 0, "nets": 2, "ports": 2}

    def test_kind_queries(self):
        nl = minimal()
        assert len(nl.luts()) == 1
        assert nl.ffs() == []
        assert [p.name for p in nl.input_ports()] == ["a"]
        assert [p.name for p in nl.output_ports()] == ["y"]

    def test_driver_cell(self):
        nl = minimal()
        assert nl.driver_cell("y").name == "inv"


class TestCopy:
    def test_copy_equals_deepcopy(self):
        import copy

        nl = minimal()
        a, b = nl.copy(), copy.deepcopy(nl)
        assert a.name == b.name
        assert a.cells == b.cells and a.nets == b.nets and a.ports == b.ports
        a.validate()

    def test_copy_is_independent(self):
        nl = minimal()
        dup = nl.copy()
        dup.cells["inv"].params["INIT"] = 0b10
        dup.cells["inv"].pins["I0"] = "y"
        dup.nets["a"].sinks.append(("y__obuf", "I"))
        dup.ports["a"].direction = "clock"
        dup.remove_cell("y__obuf")
        assert nl.cells["inv"].params == {"INIT": 0b01}
        assert nl.cells["inv"].pins == {"I0": "a", "O": "y"}
        assert nl.nets["a"].sinks == [("inv", "I0")]
        assert nl.ports["a"].direction == "in"
        assert "y__obuf" in nl.cells
        nl.validate()
