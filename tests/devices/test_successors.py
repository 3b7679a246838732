"""The device successor table against a from-scratch reference expansion.

Every router expands nodes from :attr:`Device.fanout` (generically through
:meth:`Device.successors`, or as ``node + delta`` inside
:attr:`Device.interior`).  Both are checked here, node by node, against a
small expansion written directly from :func:`wires.pips_by_src` and
:meth:`Device.node_id`: same successors, same order, same PIP refs.
"""

import pytest

from repro.devices import get_device, random_device
from repro.devices import wires as W
from repro.devices.wires import NUM_WIRES, WireKind


def reference_successors(dev, node):
    """(next node, (row, col, pip index)) for every PIP reading ``node``."""
    r, c, w = dev.node_of(node)
    kind = W.WIRE_KIND[w]
    fanout = W.pips_by_src().get(w, ())
    if kind is WireKind.GCLK:
        return []
    if kind in (WireKind.LONG_H, WireKind.LONG_V):
        taps = (
            [(r, col) for col in range(dev.cols)] if kind is WireKind.LONG_H
            else [(row, c) for row in range(dev.rows)]
        )
        return [
            (dev.node_id(tr, tc, pip.dst), (tr, tc, pip.index))
            for tr, tc in taps
            for odr, odc, pip in fanout
            if odr == 0 and odc == 0
        ]
    out = []
    for odr, odc, pip in fanout:
        orow, ocol = r + odr, c + odc
        if 0 <= orow < dev.rows and 0 <= ocol < dev.cols:
            out.append((dev.node_id(orow, ocol, pip.dst), (orow, ocol, pip.index)))
    return out


DEVICES = {
    "XCV50": lambda: get_device("XCV50"),
    "XCVT24": lambda: get_device("XCVT24"),
    "random2": lambda: random_device(2),
    "random7": lambda: random_device(7),
}


@pytest.fixture(scope="module", params=sorted(DEVICES))
def dev(request):
    return DEVICES[request.param]()


def test_every_node_matches_reference(dev):
    for node in range(dev.num_nodes):
        assert dev.successors(node) == reference_successors(dev, node), dev.node_str(node)


def test_interior_nodes_step_by_delta(dev):
    """Inside a wire's interior box the successors are ``node + delta``
    in table order, with the PIP owned at the entry's tile offset."""
    checked = 0
    for w, (rlo, rhi, clo, chi) in enumerate(dev.interior):
        for r in range(rlo, rhi + 1):
            for c in range(clo, chi + 1):
                node = dev.node_id(r, c, w)
                fast = [
                    (node + delta, (r + drow, c + dcol, pip))
                    for drow, dcol, _, pip, delta in dev.fanout[w]
                ]
                assert fast == reference_successors(dev, node), dev.node_str(node)
                checked += 1
    assert checked > dev.num_nodes // 2   # most nodes take the fast path


def test_box_keeps_every_entry_on_device(dev):
    """From every tile of a wire's box, every fanout entry lands on the
    device (the fast path does no bounds check)."""
    for w, entries in enumerate(dev.fanout):
        rlo, rhi, clo, chi = dev.interior[w]
        if rlo > rhi:
            continue
        for drow, dcol, *_ in entries:
            assert 0 <= rlo + drow and rhi + drow < dev.rows
            assert 0 <= clo + dcol and chi + dcol < dev.cols


def test_spanning_wires_take_the_generic_path(dev):
    for w in range(NUM_WIRES):
        kind = W.WIRE_KIND[w]
        if kind in (WireKind.LONG_H, WireKind.LONG_V, WireKind.GCLK):
            rlo, rhi, _, _ = dev.interior[w]
            assert rlo > rhi, W.WIRES[w]


def test_long_line_spans_its_row_and_column(dev):
    lh = dev.node_id(dev.rows - 1, 0, W.wire_index("LH0"))
    cols = {ref[1] for _, ref in dev.successors(lh)}
    assert cols == set(range(dev.cols))
    lv = dev.node_id(0, dev.cols - 1, W.wire_index("LV0"))
    rows = {ref[0] for _, ref in dev.successors(lv)}
    assert rows == set(range(dev.rows))


def test_gclk_has_no_successors(dev):
    gclk = dev.node_id(0, 0, W.wire_index("GCLK0"))
    assert dev.fanout[W.wire_index("GCLK0")] == ()
    assert dev.successors(gclk) == []


def test_edge_tile_is_clipped(dev):
    """An eastbound single is read only by its east neighbour's PIPs, so it
    has no successors in the east column and all of them one column in."""
    se0 = W.wire_index("SE0")
    edge = dev.node_id(dev.rows - 1, dev.cols - 1, se0)
    inner = dev.node_id(dev.rows - 1, dev.cols - 2, se0)
    assert dev.successors(edge) == []
    assert len(dev.successors(inner)) == len(dev.fanout[se0]) > 0
