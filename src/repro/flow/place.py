"""Simulated-annealing placement.

Standard VPR-style annealer over slice and IOB components: the cost is the
half-perimeter wirelength (HPWL) of all signal nets, moves are single-
component relocations or pairwise swaps, and the cooling schedule adapts
the starting temperature to the observed move-delta distribution.

Constraints honoured (the paper's phase-1/phase-2 floorplanning):

* ``LOC`` pins a component to a site — it never moves;
* an ``AREA_GROUP`` ``RANGE`` confines every matching component to its
  rectangle (module-region placement);
* ``PROHIBIT`` removes tiles from the site pool;
* a *guide* (a previously-placed design, paper §3.2 "guided floorplanning")
  seeds matching components at their old sites and locks them.

Runtime scales with the number of movable components — this is what the
PNR experiment measures when it compares module-sized against full-chip
place-and-route.

The inner loop is one integer-indexed move loop (:meth:`Placer._moves`).
A slice site is the integer ``(r*cols + c)*2 + s`` and an IOB site its
index in ``geometry.iob_sites`` (with precomputed tile rows and columns);
occupancy maps site codes to component indices, region bounds are plain
tuples and prohibited tiles an int set, all bound to locals.  Component
tiles and per-net HPWL costs live in flat lists with a CSR net→terms
index built once per run, and every move's affected-net working set
(two-term pairs, ``itemgetter``\\ s over wider nets, numpy gather indices
and reduceat boundaries for wide unions) is precomputed per component.
A move therefore costs its draws plus the delta it computes.  Sites turn
back into tuples and :class:`IobSite` objects once, before the placement
is committed.

Draws come from :class:`~repro.utils.RngStream`, which replays
``np.random.default_rng(seed)`` bit for bit from raw PCG64 words (numpy's
32-bit half-word buffering, Lemire bounded integers with numpy's rejection
threshold, 53-bit doubles) at a fraction of a ``Generator`` call's cost,
and HPWL deltas are integers, so **the same seed produces the same
placement the numpy-generator placer produced**.  The golden tables in
``tests/flow/test_place_golden.py`` (recorded before the stream and the
integer loop existed) pin sites, move counts, initial and final cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ..devices import Device, IobSite, get_device, parse_slice_site
from ..devices.geometry import NUM_GCLK
from ..errors import PlacementError
from ..obs import current_metrics
from ..utils import RngStream
from .floorplan import Constraints, RegionRect, full_device_region
from .ncd import NcdDesign, SliceComp

SliceSite = tuple[int, int, int]


@dataclass
class PlacementStats:
    initial_cost: float = 0.0
    final_cost: float = 0.0
    moves_attempted: int = 0
    moves_accepted: int = 0
    temperatures: int = 0
    seconds: float = 0.0
    movable: int = 0
    fixed: int = 0


@dataclass
class _CompState:
    name: str
    is_iob: bool
    region: RegionRect | None = None      # slices only
    fixed: bool = False
    site: object = None                   # SliceSite or IobSite
    nets: list[str] = field(default_factory=list)


class Placer:
    """One placement run over an :class:`NcdDesign`."""

    def __init__(
        self,
        design: NcdDesign,
        constraints: Constraints | None = None,
        *,
        guide: NcdDesign | None = None,
        seed: int | None = None,
        effort: float = 1.0,
    ):
        self.design = design
        self.device: Device = get_device(design.part)
        self.constraints = constraints or Constraints()
        self.constraints.validate(self.device)
        if not math.isfinite(effort):
            raise PlacementError(f"placer effort must be finite, got {effort!r}")
        self.guide = guide
        self.rng = RngStream(seed)
        self.effort = max(0.1, effort)
        self.stats = PlacementStats()

    # -- public ------------------------------------------------------------------

    def run(self) -> PlacementStats:
        t0 = time.perf_counter()
        self._assign_gclks()
        self._build_state()
        self._initial_placement()
        self._build_arrays()
        self._anneal()
        self._sync_sites()
        self._commit()
        self.stats.seconds = time.perf_counter() - t0
        m = current_metrics()
        m.count("flow.place.moves_attempted", self.stats.moves_attempted)
        m.count("flow.place.moves_accepted", self.stats.moves_accepted)
        m.count("flow.place.temperatures", self.stats.temperatures)
        return self.stats

    # -- setup ---------------------------------------------------------------------

    def _assign_gclks(self) -> None:
        gclks = list(self.design.gclks.values())
        if len(gclks) > NUM_GCLK:
            raise PlacementError(
                f"{len(gclks)} clock ports exceed the {NUM_GCLK} global clock buffers"
            )
        taken = {g.index for g in gclks if g.index is not None}
        # guided flows keep each clock on the buffer the base design used,
        # preserving the module interface across re-implementation
        if self.guide is not None:
            for g in gclks:
                if g.index is not None:
                    continue
                ref = self.guide.gclks.get(g.name)
                if ref is not None and ref.index is not None and ref.index not in taken:
                    g.index = ref.index
                    taken.add(ref.index)
        free = iter(i for i in range(NUM_GCLK) if i not in taken)
        for g in gclks:
            if g.index is None:
                g.index = next(free)

    def _region_of(self, comp: SliceComp) -> RegionRect:
        group = self.constraints.group_of(comp.name)
        if group is None or group.range is None:
            return full_device_region(self.device)
        return group.range

    def _build_state(self) -> None:
        self.comps: dict[str, _CompState] = {}
        for comp in self.design.slices.values():
            self.comps[comp.name] = _CompState(
                comp.name, is_iob=False, region=self._region_of(comp)
            )
        for iob in self.design.iobs.values():
            self.comps[iob.name] = _CompState(iob.name, is_iob=True)
        # net incidence (signal nets only; clock nets ride the global network)
        self.net_terms: dict[str, list[str]] = {}
        for net in self.design.nets.values():
            if net.is_clock:
                continue
            terms = [net.source.comp] + [s.ref.comp for s in net.sinks]
            terms = [t for t in terms if t in self.comps]
            if len(set(terms)) < 2:
                continue
            self.net_terms[net.name] = terms
            for t in set(terms):
                self.comps[t].nets.append(net.name)

    def _initial_placement(self) -> None:
        dev = self.device
        prohibited = self.constraints.prohibited
        self.slice_occ: dict[SliceSite, str] = {}
        self.iob_occ: dict[IobSite, str] = {}

        # 1. explicit LOCs and guide seeds
        for state in self.comps.values():
            loc = self.constraints.loc_of(state.name)
            if loc is not None and not state.is_iob:
                site = parse_slice_site(loc)
                self._claim(state, site, fixed=True)
        if self.guide is not None:
            self._apply_guide()

        # 2. everything else, randomly within its region.  The legal-site
        # list of each distinct region is enumerated once and filtered per
        # component, preserving the exact (row-major, slice-minor) order the
        # per-component enumeration produced.
        all_iob_sites = list(dev.geometry.iob_sites)
        region_sites: dict[RegionRect, list[SliceSite]] = {}
        for state in self.comps.values():
            if state.site is not None:
                continue
            if state.is_iob:
                free = [s for s in all_iob_sites if s not in self.iob_occ]
                if not free:
                    raise PlacementError("out of IOB sites")
                self._claim(state, free[int(self.rng.integers(len(free)))])
            else:
                pool = region_sites.get(state.region)
                if pool is None:
                    pool = [
                        (r, c, s)
                        for r, c in state.region.clip_to(dev).sites()
                        if (r, c) not in prohibited
                        for s in (0, 1)
                    ]
                    region_sites[state.region] = pool
                sites = [site for site in pool if site not in self.slice_occ]
                if not sites:
                    raise PlacementError(
                        f"{state.name}: no free slice site in region {state.region} "
                        f"({len(self.design.slices)} slices to place)"
                    )
                self._claim(state, sites[int(self.rng.integers(len(sites)))])

    def _apply_guide(self) -> None:
        assert self.guide is not None
        for name, comp in self.guide.slices.items():
            state = self.comps.get(name)
            if state is None or state.is_iob or comp.site is None or state.site is not None:
                continue
            site = tuple(comp.site)
            if site not in self.slice_occ and state.region.contains(site[0], site[1]):
                self._claim(state, site, fixed=True)
        for name, iob in self.guide.iobs.items():
            state = self.comps.get(name)
            if state is None or not state.is_iob or iob.site is None or state.site is not None:
                continue
            if iob.site not in self.iob_occ:
                self._claim(state, iob.site, fixed=True)

    def _claim(self, state: _CompState, site, fixed: bool = False) -> None:
        if state.is_iob:
            if site in self.iob_occ:
                raise PlacementError(
                    f"IOB site {site.name} wanted by {state.name} and {self.iob_occ[site]}"
                )
            self.iob_occ[site] = state.name
        else:
            if site in self.slice_occ:
                raise PlacementError(
                    f"site {site} wanted by {state.name} and {self.slice_occ[site]}"
                )
            self.slice_occ[site] = state.name
        state.site = site
        state.fixed = state.fixed or fixed

    # -- array state -------------------------------------------------------------------

    #: Affected-term count at which a move evaluation switches from the
    #: precomputed-index python path to the numpy reduceat path (numpy's
    #: per-call overhead only pays off on wide unions).
    _VEC_THRESHOLD = 96

    def _build_arrays(self) -> None:
        """Mirror component tiles and net incidence into flat arrays.

        * ``_rows``/``_cols`` (numpy) and ``_rows_l``/``_cols_l`` (list
          mirrors for scalar reads): current tile of component ``i``;
        * ``_net_ptr``/``_net_flat``: CSR of term component indices per net;
        * ``_aff_single[i]``: precomputed gather plan covering every net
          incident to component ``i`` — the whole per-move working set for
          a move into an empty site (swap plans are built and memoized per
          component pair on first use).

        Costs are integer HPWLs, so deltas are exact.  The move loop's own
        state is integer-indexed too (see :meth:`_moves`):

        * ``_site[i]``: slice site ``(r*cols + c)*2 + s``, or the index of
          an IOB site in ``geometry.iob_sites`` (``-1`` for a fixed
          component off the drawable sites — it can never be displaced);
        * ``_slice_occ``/``_iob_occ``: site code -> component index;
        * ``_bounds[i]``: the clipped region as half-open
          ``(rmin, rmax + 1, cmin, cmax + 1)`` draw bounds;
        * ``_prohibited``: prohibited tiles as ``r*cols + c``.
        """
        names = list(self.comps)
        comp_idx = {n: i for i, n in enumerate(names)}
        self._build_sites(names)
        n = len(names)
        rows = np.empty(n, np.int64)
        cols = np.empty(n, np.int64)
        for i, name in enumerate(names):
            rows[i], cols[i] = self._tile_of(self.comps[name])
        self._rows, self._cols = rows, cols
        self._rows_l = rows.tolist()
        self._cols_l = cols.tolist()

        net_names = list(self.net_terms)
        self._net_idx = {nm: j for j, nm in enumerate(net_names)}
        ptr = [0]
        flat: list[int] = []
        for nm in net_names:
            flat.extend(comp_idx[t] for t in self.net_terms[nm])
            ptr.append(len(flat))
        self._net_ptr = np.asarray(ptr, np.int64)
        self._net_flat = np.asarray(flat, np.int64)

        self._comp_nets: list[np.ndarray] = [
            np.asarray(
                sorted({self._net_idx[nm] for nm in self.comps[name].nets}),
                np.int64,
            )
            for name in names
        ]
        self._aff_single = [self._gather_plan(nets) for nets in self._comp_nets]
        self._aff_pairs: dict[tuple[int, int], tuple] = {}
        self._net_costs: list[int] = [0] * len(net_names)
        # numpy coordinate mirrors are synced lazily: moves record dirty
        # component indices and the reduceat path flushes them on demand
        self._dirty: list[int] | None = []
        self._dirty_cap = max(64, n)  # not-a-frame-count

    def _build_sites(self, names: list[str]) -> None:
        """Integer site codes, occupancy and draw bounds for the move loop."""
        dev = self.device
        rows, cols = dev.rows, dev.cols
        iob_code = dev.geometry.iob_site_index
        self._iob_rows = [r for r, _ in dev.geometry.iob_site_tiles]
        self._iob_cols = [c for _, c in dev.geometry.iob_site_tiles]
        self._prohibited = {r * cols + c for r, c in self.constraints.prohibited}
        self._site: list[int] = []
        self._is_iob: list[bool] = []
        self._fixed: list[bool] = []
        self._bounds: list[tuple[int, int, int, int] | None] = []
        self._slice_occ: dict[int, int] = {}
        self._iob_occ: dict[int, int] = {}
        clipped: dict[RegionRect, tuple[int, int, int, int]] = {}
        for i, name in enumerate(names):
            state = self.comps[name]
            if state.is_iob:
                code = iob_code.get(state.site, -1)
                occ, bounds = self._iob_occ, None
            else:
                r, c, s = state.site
                on_device = 0 <= r < rows and 0 <= c < cols and s in (0, 1)
                code = (r * cols + c) * 2 + s if on_device else -1
                occ = self._slice_occ
                bounds = clipped.get(state.region)
                if bounds is None:
                    reg = state.region.clip_to(dev)
                    bounds = clipped[state.region] = (
                        reg.rmin, reg.rmax + 1, reg.cmin, reg.cmax + 1
                    )
            if code >= 0:
                occ[code] = i
            self._site.append(code)
            self._is_iob.append(state.is_iob)
            self._fixed.append(state.fixed)
            self._bounds.append(bounds)
        self._movable = [i for i, fixed in enumerate(self._fixed) if not fixed]

    def _sync_sites(self) -> None:
        """Write the move loop's integer sites back to the component states."""
        iob_sites = self.device.geometry.iob_sites
        cols = self.device.cols
        names = list(self.comps)
        for i in self._movable:
            state = self.comps[names[i]]
            code = self._site[i]
            if state.is_iob:
                state.site = iob_sites[code]
            else:
                tile, s = divmod(code, 2)
                state.site = (*divmod(tile, cols), s)

    def _gather_plan(self, nets: np.ndarray) -> tuple:
        """Precomputed working set for evaluating a set of nets.

        Returns ``(nids, pairs, getters, flat, bounds, vectorize)``.
        ``nids`` are the net ids (for cost-cache reads/writes), two-term
        nets first.  The python path reads ``pairs`` (the two term
        component indices of each two-term net) and ``getters`` (an
        ``itemgetter`` over the terms of each wider net), in ``nids``
        order.  ``flat``/``bounds`` feed the numpy gather + reduceat path,
        and ``vectorize`` picks between the paths by total term count.
        """
        if nets.size == 0:
            return (), (), (), None, None, False
        ptr = self._net_ptr
        sizes = ptr[nets + 1] - ptr[nets]
        nets = np.concatenate([nets[sizes == 2], nets[sizes != 2]])
        starts = ptr[nets].tolist()
        ends = ptr[nets + 1].tolist()
        flat = np.concatenate(
            [self._net_flat[s:e] for s, e in zip(starts, ends)]
        )
        bounds = np.zeros(nets.size, np.int64)
        np.cumsum((ptr[nets + 1] - ptr[nets])[:-1], out=bounds[1:])
        terms = [self._net_flat[s:e].tolist() for s, e in zip(starts, ends)]
        return (
            tuple(nets.tolist()),
            tuple(tuple(t) for t in terms if len(t) == 2),
            tuple(itemgetter(*t) for t in terms if len(t) != 2),
            flat, bounds, flat.size >= self._VEC_THRESHOLD,
        )

    def _pair_plan(self, key: tuple[int, int]) -> tuple:
        """Gather plan for the union of two components' incident nets,
        memoized in ``_aff_pairs`` under ``key`` (lower index first)."""
        plan = self._aff_pairs[key] = self._gather_plan(
            np.union1d(self._comp_nets[key[0]], self._comp_nets[key[1]])
        )
        return plan

    def _mark_dirty(self, i: int) -> None:
        """Record that component ``i``'s list coordinates changed, so the
        numpy mirror patches it on the next flush."""
        d = self._dirty
        if d is not None:
            if len(d) < self._dirty_cap:
                d.append(i)
            else:
                self._dirty = None  # too stale to patch; full resync instead

    def _flush_coords(self) -> None:
        """Bring the numpy coordinate mirrors up to date with the lists."""
        if self._dirty is None:
            self._rows = np.asarray(self._rows_l, np.int64)
            self._cols = np.asarray(self._cols_l, np.int64)
        elif self._dirty:
            rows, cols = self._rows, self._cols
            rl, cl = self._rows_l, self._cols_l
            for i in self._dirty:
                rows[i] = rl[i]
                cols[i] = cl[i]
        self._dirty = []

    # -- cost -------------------------------------------------------------------------

    def _tile_of(self, state: _CompState) -> tuple[int, int]:
        if state.is_iob:
            return self.device.geometry.iob_tile(state.site)
        r, c, _ = state.site
        return r, c

    def _total_cost(self) -> float:
        if self._net_costs:
            self._flush_coords()
            flat, bounds = self._net_flat, self._net_ptr[:-1]
            r = self._rows[flat]
            c = self._cols[flat]
            costs = (
                np.maximum.reduceat(r, bounds) - np.minimum.reduceat(r, bounds)
            ) + (np.maximum.reduceat(c, bounds) - np.minimum.reduceat(c, bounds))
            self._net_costs = costs.tolist()
        return sum(self._net_costs)

    # -- annealing ----------------------------------------------------------------------

    def _anneal(self) -> None:
        movable = [s for s in self.comps.values() if not s.fixed]
        self.stats.movable = len(movable)
        self.stats.fixed = len(self.comps) - len(movable)
        cost = self._total_cost()
        self.stats.initial_cost = cost
        if not movable or not self.net_terms:
            self.stats.final_cost = cost
            return

        # temperature from the spread of a random-move sample
        sample = self._moves(min(50, 10 * len(movable)), math.inf, dry=True)
        deltas = [abs(d) for d in sample]
        temp = 2.0 * (float(np.std(deltas)) + 1.0) if deltas else 1.0

        inner = max(20, int(self.effort * 12 * len(movable)))
        stall = 0
        while stall < 4 and temp > 1e-3:
            accepted = self._moves(inner, temp)
            self.stats.moves_attempted += inner
            self.stats.moves_accepted += len(accepted)
            cost += sum(accepted)
            self.stats.temperatures += 1
            ratio = len(accepted) / inner
            stall = stall + 1 if ratio < 0.02 else 0
            # VPR-style adaptive cooling: cool slowly near 44% acceptance
            if ratio > 0.96:
                temp *= 0.5
            elif ratio > 0.4:
                temp *= 0.9
            elif ratio > 0.1:
                temp *= 0.95
            else:
                temp *= 0.8
        self.stats.final_cost = cost

    def _moves(self, count: int, temperature: float, dry: bool = False) -> list:
        """Attempt ``count`` moves; return each accepted delta.

        A move draws a movable component and a target site in its region
        (a random IOB site for an IOB), is illegal if the target holds a
        fixed component or one whose region excludes our current tile, and
        passes the Metropolis rule, which draws only for uphill moves.
        State is integer site codes and index lists (see
        :meth:`_build_arrays`), all bound to locals.  A move is evaluated
        on hypothetically-patched coordinate lists; occupancy and sites
        change only when it is committed.  ``dry`` evaluates without
        committing (the temperature sample).
        """
        integers, random, exp = self.rng.integers, self.rng.random, math.exp
        movable = self._movable
        n_movable = len(movable)
        is_iob, fixed, bounds, site = self._is_iob, self._fixed, self._bounds, self._site
        slice_occ, iob_occ = self._slice_occ, self._iob_occ
        prohibited = self._prohibited
        cols = self.device.cols
        iob_rows, iob_cols = self._iob_rows, self._iob_cols
        n_iob = len(iob_rows)
        rows_l, cols_l = self._rows_l, self._cols_l
        aff_single, aff_pairs = self._aff_single, self._aff_pairs
        costs = self._net_costs
        mark_dirty = self._mark_dirty
        accepted = []
        for _ in range(count):
            # -- propose
            i = movable[integers(n_movable)]
            if is_iob[i]:
                target = integers(n_iob)
                new_r, new_c = iob_rows[target], iob_cols[target]
                occ = iob_occ
            else:
                rlo, rhi, clo, chi = bounds[i]
                for _attempt in range(8):
                    new_r = integers(rlo, rhi)
                    new_c = integers(clo, chi)
                    tile = new_r * cols + new_c
                    if tile not in prohibited:
                        target = tile * 2 + integers(2)
                        break
                else:
                    continue
                occ = slice_occ
            j = occ.get(target, -1)
            if j == i:
                continue
            old_r, old_c = rows_l[i], cols_l[i]
            if j < 0:
                plan = aff_single[i]
            else:
                if fixed[j]:
                    continue
                if not is_iob[j]:
                    # the displaced comp must be allowed at our current site
                    rlo, rhi, clo, chi = bounds[j]
                    if not (rlo <= old_r < rhi and clo <= old_c < chi):
                        continue
                key = (i, j) if i < j else (j, i)
                plan = aff_pairs.get(key) or self._pair_plan(key)

            # -- evaluate
            nids, pairs, getters, flat, net_bounds, vectorize = plan
            before = 0
            for nid in nids:
                before += costs[nid]
            rows_l[i], cols_l[i] = new_r, new_c
            if j >= 0:
                # the displaced comp swaps into our old tile
                j_r, j_c = rows_l[j], cols_l[j]
                rows_l[j], cols_l[j] = old_r, old_c
            if vectorize:
                mark_dirty(i)
                if j >= 0:
                    mark_dirty(j)
                self._flush_coords()
                r = self._rows[flat]
                c = self._cols[flat]
                after_vals = (
                    (np.maximum.reduceat(r, net_bounds) - np.minimum.reduceat(r, net_bounds))
                    + (np.maximum.reduceat(c, net_bounds) - np.minimum.reduceat(c, net_bounds))
                ).tolist()
            else:
                after_vals = []
                append = after_vals.append
                for a, b in pairs:
                    dr = rows_l[a] - rows_l[b]
                    dc = cols_l[a] - cols_l[b]
                    append((dr if dr >= 0 else -dr) + (dc if dc >= 0 else -dc))
                for get in getters:
                    rs = get(rows_l)
                    cs = get(cols_l)
                    append(max(rs) - min(rs) + max(cs) - min(cs))
            delta = sum(after_vals) - before

            # -- Metropolis; draws only for uphill moves
            accept = delta <= 0 or (
                temperature > 0 and random() < exp(-delta / temperature)
            )
            if accept and not dry:
                old = site[i]
                if j >= 0:
                    occ[old] = j
                    site[j] = old
                    if not vectorize:  # the flush above already synced
                        mark_dirty(j)
                else:
                    del occ[old]
                occ[target] = i
                site[i] = target
                if not vectorize:
                    mark_dirty(i)
                for nid, v in zip(nids, after_vals):
                    costs[nid] = v
                accepted.append(delta)
                continue
            # reject (or dry run): restore the hypothetical coordinates
            rows_l[i], cols_l[i] = old_r, old_c
            if j >= 0:
                rows_l[j], cols_l[j] = j_r, j_c
            if vectorize:
                # the numpy mirror saw the hypothetical values; re-patch it
                mark_dirty(i)
                if j >= 0:
                    mark_dirty(j)
            if accept:
                accepted.append(delta)
        return accepted

    # -- commit ---------------------------------------------------------------------------

    def _commit(self) -> None:
        for state in self.comps.values():
            if state.is_iob:
                self.design.iobs[state.name].site = state.site
            else:
                self.design.slices[state.name].site = state.site


def place(
    design: NcdDesign,
    constraints: Constraints | None = None,
    *,
    guide: NcdDesign | None = None,
    seed: int | None = None,
    effort: float = 1.0,
) -> PlacementStats:
    """Place ``design`` in place; see :class:`Placer`."""
    return Placer(design, constraints, guide=guide, seed=seed, effort=effort).run()
