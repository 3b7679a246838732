"""Multi-region base designs: the Figure-1 / Figure-4 scenarios.

A :class:`RegionPlan` lists the regions (full-height column slabs), the
module kind living in each, and the variant set available for swapping.
:func:`build_region_plan` slices a device into equal slabs;
:func:`build_base_netlist` assembles the phase-1 base design;
:func:`make_project` runs the whole two-phase methodology and returns a
ready :class:`~repro.core.project.JpgProject` with every version
implemented — the object the examples and the FIG4 benchmark drive.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.project import JpgProject
from ..devices import get_device
from ..errors import JpgError
from ..flow.floorplan import AreaGroup, Constraints, RegionRect
from ..netlist.builder import NetlistBuilder
from ..netlist.logical import Netlist
from .generators import ModuleSpec, attach_module, build_module_netlist


@dataclass(frozen=True)
class RegionPlan:
    """One reconfigurable region and its module variants."""

    name: str
    rect: RegionRect
    base_spec: ModuleSpec
    variants: tuple[ModuleSpec, ...] = ()

    @property
    def n_versions(self) -> int:
        return len(self.variants)


def slab_regions(part: str, names: list[str], *, margin: int = 2) -> list[RegionRect]:
    """Split a device into len(names) equal full-height column slabs,
    keeping ``margin`` columns free at each edge for IO routing."""
    device = get_device(part)
    usable = device.cols - 2 * margin
    n = len(names)
    if usable < n:
        raise JpgError(f"{device.name}: cannot fit {n} slabs")
    width = usable // n
    rects = []
    for i in range(n):
        cmin = margin + i * width
        cmax = cmin + width - 1
        rects.append(RegionRect(0, cmin, device.rows - 1, cmax))
    return rects


def figure4_plan(part: str = "XCV300", width: int = 4) -> list[RegionPlan]:
    """The paper's §4.1 scenario: three regions with 3, 3, and 4 module
    implementations (36 combinations, 10 partial bitstreams)."""
    rects = slab_regions(part, ["r1", "r2", "r3"])
    return [
        RegionPlan(
            "r1", rects[0],
            ModuleSpec("counter", width, "up"),
            (
                ModuleSpec("counter", width, "up"),
                ModuleSpec("counter", width, "down"),
                ModuleSpec("counter", width, "step3"),
            ),
        ),
        RegionPlan(
            "r2", rects[1],
            ModuleSpec("lfsr", width, "taps_a"),
            (
                ModuleSpec("lfsr", width, "taps_a"),
                ModuleSpec("lfsr", width, "taps_b"),
                ModuleSpec("lfsr", width, "taps_c"),
            ),
        ),
        RegionPlan(
            "r3", rects[2],
            ModuleSpec("matcher", width, "1" * width),
            (
                ModuleSpec("matcher", width, "1" * width),
                ModuleSpec("matcher", width, "10" * (width // 2)),
                ModuleSpec("matcher", width, "01" * (width // 2)),
                ModuleSpec("matcher", width, "1" + "0" * (width - 1)),
            ),
        ),
    ]


def scale_plan(part: str = "XCV1000", *, regions: int = 12, variants: int = 9,
               width: int = 4) -> list[RegionPlan]:
    """A large-device stress plan: ``regions`` slabs x ``variants`` module
    versions each (default 12 x 9 = 108 partials on an XCV1000).

    This is the large-batch workload axis: many independent partials on
    a geometry (64 x 96 CLBs) whose frame count makes each generation
    meaningfully expensive.  Regions alternate between counter variants (``up``,
    ``down``, ``step2``...) and bit-serial matcher patterns so adjacent
    slabs never share module internals.
    """
    if variants < 1:
        raise JpgError(f"scale_plan needs >= 1 variant, got {variants}")
    names = [f"r{i + 1}" for i in range(regions)]
    rects = slab_regions(part, names)
    counter_variants = ["up", "down"] + [f"step{n}" for n in range(2, variants)]
    matcher_patterns = [
        format(p % (1 << width), f"0{width}b")
        for p in (1, 2, 3, 5, 6, 9, 10, 12, 15, 4, 7, 8, 11, 13, 14)
    ]
    plans = []
    for i, (name, rect) in enumerate(zip(names, rects)):
        if i % 2 == 0:
            specs = tuple(
                ModuleSpec("counter", width, v)
                for v in counter_variants[:variants]
            )
        else:
            specs = tuple(
                ModuleSpec("matcher", width, p)
                for p in matcher_patterns[:variants]
            )
        plans.append(RegionPlan(name, rect, specs[0], specs))
    return plans


def build_base_netlist(name: str, plans: list[RegionPlan], *, clock_port: str = "clk") -> Netlist:
    """Phase 1: the base design — one module per region, shared clock."""
    b = NetlistBuilder(name)
    clk = b.clock(clock_port)
    for plan in plans:
        attach_module(b, plan.name, plan.base_spec, clk)
    return b.finish()


def version_name(spec: ModuleSpec) -> str:
    return spec.variant or spec.kind


def flow_constraints(plans: list[RegionPlan]) -> Constraints:
    """Region constraints for ``plans``, one ``AREA_GROUP`` per region —
    the same floorplan :meth:`JpgProject.constraints` derives."""
    cons = Constraints()
    for plan in plans:
        cons.groups.append(AreaGroup(f"AG_{plan.name}", [f"{plan.name}/*"], plan.rect))
    return cons


def flow_cases() -> list[tuple[str, str, Netlist, Constraints]]:
    """The flow-phase benchmark axis: ``(label, part, netlist, constraints)``
    for the paper's Figure-4 base design and the XCV1000 scale design."""
    fig4 = figure4_plan("XCV100")
    scale = scale_plan("XCV1000", regions=12, variants=9)
    return [
        ("fig4-XCV100", "XCV100",
         build_base_netlist("fig4_base", fig4), flow_constraints(fig4)),
        ("scale-XCV1000", "XCV1000",
         build_base_netlist("scale_base", scale), flow_constraints(scale)),
    ]


def make_project(
    name: str,
    part: str,
    plans: list[RegionPlan],
    *,
    seed: int | None = 0,
    effort: float = 1.0,
    implement_variants: bool = True,
) -> JpgProject:
    """Run the full two-phase methodology for a region plan."""
    project = JpgProject(name, part)
    for plan in plans:
        project.add_region(plan.name, plan.rect)
    base = build_base_netlist(f"{name}_base", plans)
    project.implement_base(base, seed=seed, effort=effort)
    if implement_variants:
        for plan in plans:
            for spec in plan.variants:
                vname = version_name(spec)
                netlist = build_module_netlist(
                    f"{plan.name}_{vname}", plan.name, spec
                )
                project.add_version(plan.name, vname, netlist, seed=seed, effort=effort)
    return project
