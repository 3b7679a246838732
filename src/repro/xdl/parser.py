"""XDL parser: ASCII implementation text -> :class:`NcdDesign`.

Accepts the subset :mod:`repro.xdl.writer` emits — which is also the shape
the paper's §3.2.2 example uses.  The result is a *physical-form* design
(LUT truth tables over physical pins, identity pin maps); bitgen produces
identical frames for written-then-parsed designs, which is the invariant
the test suite checks.

The parser scans statements, not tokens.  Each ``design`` / ``inst`` /
``net`` head is one compiled regex anchored at the current offset, and a
statement's clauses (``placed`` / ``unplaced`` / ``cfg`` for an inst,
``outpin`` / ``inpin`` / ``pip`` for a net) are matched one clause regex
at a time up to the closing ``;``.  Whitespace and ``#`` comments may
separate any two tokens; text that no regex matches is an error.  Every
error is an :class:`~repro.errors.XdlParseError` carrying the line it
was found on, computed from the match offset only when raising.
"""

from __future__ import annotations

import hashlib
import re

from ..devices import parse_iob_site, parse_slice_site
from ..devices.wires import pip_by_wires
from ..errors import DeviceError, XdlParseError
from ..flow.ncd import GclkComp, IobComp, NcdDesign, PhysNet, PinRef, SinkRef, SliceComp
from ..flow.pack import module_prefix
from ..utils import LruStore

# Token pieces.  A separator is whitespace and whole-line-tail comments.  A
# word may not start with ``#`` (that starts a comment) or ``->`` (an arrow
# token) and is always matched whole: the trailing lookahead stops any
# backtracking into it, which keeps every regex linear.  A keyword must not
# run on into a word.
_S = r"\s*(?:\#[^\n]*(?![^\n])\s*)*"
_WORD = r'(?!->)[^\s,;"\#][^\s,;"]*(?![^\s,;"])'
_W = f"({_WORD})"
_STR = r'"([^"]*)"'
_KW = r'(?![^\s,;"])'

_SEP_RE = re.compile(_S)
_DESIGN_RE = re.compile(
    rf'{_S}design{_KW}{_S}{_STR}{_S}{_W}'
    # optional version word and cfg: anything up to the ';'
    rf'(?:{_S}(?:"[^"]*"|,|->|{_WORD}))*?{_S};'
)
#: the keyword of the next statement, or the end of the text
_STMT_RE = re.compile(rf"{_S}(?:(inst|net){_KW}|\Z)")
_INST_RE = re.compile(rf"{_S}{_STR}{_S}{_STR}{_S},")
#: groups: 1-2 placed tile/site, 3 unplaced, 4 cfg, 5 ',', 6 ';'
_INST_CLAUSE_RE = re.compile(
    rf"{_S}(?:placed{_KW}{_S}{_W}{_S}{_W}|(unplaced){_KW}|cfg{_KW}{_S}{_STR}|(,)|(;))"
)
_NET_RE = re.compile(rf"{_S}{_STR}{_S}(?:(clk){_KW}{_S})?,")
#: groups: 1-2 outpin inst/pin, 3-4 inpin inst/pin, 5-7 pip tile/src/dst,
#: 8 ',', 9 ';'
_NET_CLAUSE_RE = re.compile(
    rf"{_S}(?:outpin{_KW}{_S}{_STR}{_S}{_W}"
    rf"|inpin{_KW}{_S}{_STR}{_S}{_W}"
    rf"|pip{_KW}{_S}{_W}{_S}{_W}{_S}->{_S}{_W}"
    r"|(,)|(;))"
)
#: the next raw token, for error messages only
_TOKEN_RE = re.compile(rf'{_S}("[^"]*"|->|[,;]|[^\s,;"]+|")?')
_TILE_RE = re.compile(r"R(\d+)C(\d+)\Z")
_CLAUSE_KEYWORDS = frozenset(
    {"design", "placed", "unplaced", "cfg", "clk", "outpin", "inpin", "pip"}
)


class XdlParser:
    """Statement-level parser over one XDL text."""

    def __init__(self, text: str):
        self.text = text
        #: (slice, "CE" | "SR", inst offset) for every mux the cfg set to a pin
        self._cfg_checks: list[tuple[SliceComp, str, int]] = []

    # -- error reporting --------------------------------------------------------------

    def _line(self, pos: int) -> int:
        """The line of the first token at or after ``pos``."""
        pos = _SEP_RE.match(self.text, pos).end()  # type: ignore[union-attr]
        return self.text.count("\n", 0, pos) + 1

    def _error(self, message: str, pos: int) -> XdlParseError:
        return XdlParseError(message, self._line(pos))

    def _cfg(self, cfg: str, pos: int) -> dict[str, tuple[str, str]]:
        try:
            return _parse_cfg(cfg)
        except XdlParseError as exc:
            raise self._error(str(exc), pos) from None

    def _cfg_int(self, digits: str, base: int, comp: str, value: str, pos: int) -> int:
        """``int(digits, base)`` of a cfg ``value`` of ``comp``."""
        try:
            return int(digits, base)
        except ValueError:
            raise self._error(f"{comp}: bad cfg value {value!r}", pos) from None

    def _unexpected(self, pos: int, where: str) -> XdlParseError:
        """The error for text at ``pos`` that no regex of ``where`` matched."""
        first: tuple[str, int] | None = None
        while True:  # walk the raw tokens to the statement's ';'
            m = _TOKEN_RE.match(self.text, pos)
            assert m is not None  # every part is optional
            tok = m.group(1)
            if tok is None:
                return self._error(f"unexpected end of XDL input in {where}", m.end())
            if tok == '"':
                return self._error(f"unterminated string in {where}", pos)
            if first is None:
                first = (tok, pos)
            if tok == ";":
                break
            pos = m.end()
        assert first is not None  # set before the ';' that ends the walk
        tok, pos = first
        if tok in _CLAUSE_KEYWORDS:
            return self._error(f"malformed {tok!r} clause in {where}", pos)
        return self._error(f"unexpected {tok!r} in {where}", pos)

    # -- grammar ---------------------------------------------------------------------

    def parse(self) -> NcdDesign:
        text = self.text
        m = _DESIGN_RE.match(text)
        if m is None:
            raise self._unexpected(0, "design statement")
        design = NcdDesign(m.group(1), _canonical_part(m.group(2)))
        pos = m.end()
        while True:
            m = _STMT_RE.match(text, pos)
            if m is None:
                tok = _TOKEN_RE.match(text, pos)
                assert tok is not None
                raise self._error(f"unknown statement {tok.group(1)!r}", pos)
            keyword = m.group(1)
            if keyword is None:
                break
            if keyword == "inst":
                pos = self._inst_stmt(design, m.start(1), m.end())
            else:
                pos = self._net_stmt(design, m.start(1), m.end())
        for comp, mux, at in self._cfg_checks:
            # cfg consistency: CEMUX/SRMUX selected a pin that never arrived
            if (comp.ce_net if mux == "CE" else comp.sr_net) is None:
                raise self._error(f"{comp.name}: {mux}MUX::{mux} but no {mux} inpin", at)
        return design

    def _inst_stmt(self, design: NcdDesign, start: int, pos: int) -> int:
        text = self.text
        m = _INST_RE.match(text, pos)
        if m is None:
            raise self._unexpected(pos, "inst")
        name, itype = m.group(1), m.group(2)
        pos = m.end()
        placed = None
        cfg = ""
        while True:
            m = _INST_CLAUSE_RE.match(text, pos)
            if m is None:
                raise self._unexpected(pos, "inst")
            pos = m.end()
            clause = m.lastindex
            if clause == 6:
                break
            if clause == 2:
                placed = m.group(2)  # the site; the tile name is informational
            elif clause == 3:
                placed = None
            elif clause == 4:
                cfg = m.group(4)
        if name in design.slices or name in design.iobs or name in design.gclks:
            raise self._error(f"duplicate inst {name!r}", start)
        if itype == "SLICE":
            self._make_slice(design, name, placed, cfg, start)
        elif itype == "IOB":
            self._make_iob(design, name, placed, cfg, start)
        elif itype == "GCLK":
            self._make_gclk(design, name, cfg, start)
        else:
            raise self._error(f"unknown inst type {itype!r} for {name!r}", start)
        return pos

    # ``at`` is the offset of the inst statement, for errors

    def _make_slice(self, design: NcdDesign, name: str, site: str | None,
                    cfg: str, at: int) -> None:
        comp = SliceComp(name, group=module_prefix(name) or None)
        if site is not None:
            try:
                comp.site = parse_slice_site(site)
            except DeviceError as exc:
                raise self._error(f"{name}: bad slice site {site!r} ({exc})", at) from None
        attrs = self._cfg(cfg, at)
        for letter in ("F", "G"):
            bel = comp.bels[letter]
            lut = attrs.get(letter)
            if lut is not None:
                cell, value = lut
                if not value.startswith("#LUT:0x"):
                    raise self._error(f"{name}: bad LUT cfg {value!r}", at)
                bel.lut_cell = cell
                bel.lut_init = self._cfg_int(value[7:], 16, name, value, at)
                bel.lut_width = 4
                bel.lut_inputs = ["", "", "", ""]
                bel.pin_map = [0, 1, 2, 3]
            which = "FFX" if letter == "F" else "FFY"
            ff = attrs.get(which)
            if ff is not None:
                cell, value = ff
                bel.ff_cell = cell
                init = attrs.get("INITX" if letter == "F" else "INITY")
                bel.ff_init = self._cfg_int(init[1], 10, name, init[1], at) if init else 0
                dmux = attrs.get("DXMUX" if letter == "F" else "DYMUX")
                bel.ff_d_from_lut = bool(dmux) and dmux[1] == "0"
                sync = attrs.get("SYNC_ATTR")
                bel.ff_sync = (sync is None) or sync[1] == "SYNC"
        # CE/SR nets are attached when net statements arrive; the cfg only
        # records whether the muxes select the pin, checked after the last net
        if attrs.get("CEMUX", ("", "1"))[1] == "CE":
            self._cfg_checks.append((comp, "CE", at))
        if attrs.get("SRMUX", ("", "0"))[1] == "SR":
            self._cfg_checks.append((comp, "SR", at))
        design.slices[name] = comp

    def _make_iob(self, design: NcdDesign, name: str, site: str | None,
                  cfg: str, at: int) -> None:
        attrs = self._cfg(cfg, at)
        iomux = attrs.get("IOMUX")
        if iomux is None:
            raise self._error(f"IOB {name!r}: missing IOMUX cfg", at)
        direction = "in" if iomux[1] == "I" else "out"
        port = attrs.get("PORT", ("", name))[1]
        iob = IobComp(name, direction, port, net="")
        if site is not None:
            try:
                iob.site = parse_iob_site(site)
            except DeviceError as exc:
                raise self._error(f"{name}: bad IOB site {site!r} ({exc})", at) from None
        design.iobs[name] = iob

    def _make_gclk(self, design: NcdDesign, name: str, cfg: str, at: int) -> None:
        attrs = self._cfg(cfg, at)
        idx = attrs.get("INDEX")
        port = attrs.get("PORT", ("", name))[1]
        g = GclkComp(name, port, net="")
        if idx is not None:
            g.index = self._cfg_int(idx[1], 10, name, idx[1], at)
        design.gclks[name] = g

    def _net_stmt(self, design: NcdDesign, start: int, pos: int) -> int:
        text = self.text
        m = _NET_RE.match(text, pos)
        if m is None:
            raise self._unexpected(pos, "net")
        name = m.group(1)
        if name in design.nets:
            raise self._error(f"duplicate net {name!r}", start)
        is_clock = m.group(2) is not None
        pos = m.end()
        source: PinRef | None = None
        sinks: list[SinkRef] = []
        pips: list[tuple[int, int, int]] = []
        while True:
            m = _NET_CLAUSE_RE.match(text, pos)
            if m is None:
                raise self._unexpected(pos, "net")
            clause = m.lastindex
            if clause == 7:
                tile, src, dst = m.group(5, 6, 7)
                t = _TILE_RE.match(tile)
                if t is None:
                    raise self._error(f"bad pip tile {tile!r}", pos)
                try:
                    index = pip_by_wires(src, dst).index
                except DeviceError as exc:
                    raise self._error(f"bad pip {src} -> {dst}: {exc}", pos) from None
                pips.append((int(t.group(1)) - 1, int(t.group(2)) - 1, index))
            elif clause == 4:
                sinks.append(self._in_ref(design, m.group(3), m.group(4), name, pos))
            elif clause == 2:
                source = self._out_ref(design, m.group(1), m.group(2), name, pos)
            elif clause == 9:
                pos = m.end()
                break
            pos = m.end()
        if source is None:
            raise self._error(f"net {name!r} has no outpin", start)
        design.nets[name] = PhysNet(name, source, sinks, pips,
                                    routed=bool(pips) or not sinks, is_clock=is_clock)
        return pos

    # -- pin reference resolution ----------------------------------------------------------
    # Both resolvers also attach the net to the component it reaches (IOB and
    # GCLK nets, slice clk/ce/sr).  ``pos`` is the clause's offset, for errors.

    def _out_ref(self, design: NcdDesign, comp: str, pin: str, net: str, pos: int) -> PinRef:
        if comp in design.iobs:
            if pin != "PAD":
                raise self._error(f"IOB outpin must be PAD, got {pin!r}", pos)
            design.iobs[comp].net = net
            return PinRef(comp, "PAD_IN")
        if comp in design.gclks:
            design.gclks[comp].net = net
            return PinRef(comp, "GCLK")
        if comp in design.slices:
            if pin not in ("X", "Y", "XQ", "YQ"):
                raise self._error(f"bad slice output pin {pin!r}", pos)
            return PinRef(comp, pin)
        raise self._error(f"outpin references unknown inst {comp!r}", pos)

    def _in_ref(self, design: NcdDesign, comp: str, pin: str, net: str, pos: int) -> SinkRef:
        iob = design.iobs.get(comp)
        if iob is not None:
            if pin != "PAD":
                raise self._error(f"IOB inpin must be PAD, got {pin!r}", pos)
            iob.net = net
            return SinkRef(PinRef(comp, "PAD_OUT"))
        scomp = design.slices.get(comp)
        if scomp is None:
            raise self._error(f"inpin references unknown inst {comp!r}", pos)
        s = scomp.site[2] if scomp.site else 0
        if len(pin) == 2 and pin[0] in "FG" and pin[1] in "1234":
            letter, idx = pin[0], int(pin[1]) - 1
            bel = scomp.bels[letter]
            if bel.lut_cell is not None:
                bel.lut_inputs[idx] = net
            return SinkRef(PinRef(comp, letter, idx), phys_pin=f"S{s}_{pin}")
        if pin == "CLK":
            scomp.clk_net = net
        elif pin == "CE":
            scomp.ce_net = net
        elif pin == "SR":
            scomp.sr_net = net
        elif pin not in ("BX", "BY"):
            raise self._error(f"bad slice input pin {pin!r}", pos)
        return SinkRef(PinRef(comp, pin), phys_pin=f"S{s}_{pin}")


def _canonical_part(part: str) -> str:
    from ..devices import normalize_part_name

    return normalize_part_name(part)


def _parse_cfg(cfg: str) -> dict[str, tuple[str, str]]:
    """Split a cfg string into {attr: (logical name, value)} entries.

    Entries look like ``ATTR:logical_name:value`` where either of the last
    two fields may be empty (``CKINV::1``) — and LUT entries carry a
    two-part value (``F:u1/c1:#LUT:0x8000``).
    """
    attrs: dict[str, tuple[str, str]] = {}
    for token in cfg.split():
        fields = token.split(":", 2)
        if len(fields) != 3:
            raise XdlParseError(f"bad cfg token {token!r}")
        attrs[fields[0]] = (fields[1], fields[2])
    return attrs


def parse_xdl(text: str) -> NcdDesign:
    """Parse XDL text into a physical-form design database."""
    return XdlParser(text).parse()


_PARSE_CACHE_MAX = 64  # not-a-frame-count
_parse_cache = LruStore(_PARSE_CACHE_MAX)


def parse_xdl_cached(text: str) -> NcdDesign:
    """Memoized :func:`parse_xdl`, keyed by a content hash of the text.

    Regenerating the same module (repeated serve requests, a batch item
    retried on a new base, every worker of a pool parsing one manifest)
    pays for one parse.  The returned design is **shared**: callers must
    treat it as read-only, which everything downstream of
    :meth:`repro.core.jpg.Jpg.make_partial` already does.  The cache is
    process-local, thread-safe, and LRU-capped at ``_PARSE_CACHE_MAX``
    entries.
    """
    key = hashlib.sha256(text.encode()).hexdigest()
    design = _parse_cache.get(key)
    if design is None:
        design = parse_xdl(text)
        _parse_cache.put(key, design)
    return design


def clear_parse_cache() -> None:
    """Drop every memoized design (tests and long-lived services)."""
    _parse_cache.clear()


def load_xdl(path: str) -> NcdDesign:
    with open(path) as f:
        return parse_xdl(f.read())
