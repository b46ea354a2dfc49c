"""The Sec. II physical design case study (Fig. 2) and Obs. 2 power check.

Runs the full physical flow on both designs and reports the quantities of
Fig. 2: iso footprint, CS counts (1 vs 8), area breakdown, achieved
frequency at the 20 MHz target, wirelength, per-tier power, upper-tier
power fraction (<1%) and peak-power-density ratio (~+1%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, percent, times
from repro.physical.flow import FlowOutcome, run_staged_flow
from repro.spec.resolve import resolve
from repro.units import MEGABYTE, to_mm2, to_mw


@dataclass(frozen=True)
class CaseStudyResult:
    """Physical design outcome for the 2D/M3D pair.

    Attributes:
        baseline: 2D flow result.
        m3d: M3D flow result.
    """

    baseline: FlowOutcome
    m3d: FlowOutcome

    @property
    def iso_footprint(self) -> bool:
        """True when footprints match (the paper's headline constraint)."""
        return abs(self.baseline.footprint - self.m3d.footprint) \
            <= 1e-6 * self.baseline.footprint

    @property
    def iso_capacity(self) -> bool:
        """True when on-chip memory capacities match."""
        return (self.baseline.design.rram_capacity_bits
                == self.m3d.design.rram_capacity_bits)

    @property
    def cs_gain(self) -> int:
        """Extra parallel CSs unlocked by M3D (paper: 1 -> 8)."""
        return self.m3d.design.n_cs - self.baseline.design.n_cs

    @property
    def peak_density_ratio(self) -> float:
        """M3D/2D peak power density (Obs. 2: ~1.01)."""
        return (self.m3d.power.peak_power_density
                / self.baseline.power.peak_power_density)

    @property
    def upper_tier_fraction(self) -> float:
        """Fraction of M3D power in the BEOL tiers (Obs. 2: <1%)."""
        return self.m3d.power.upper_tier_fraction


def format_case_study(result: CaseStudyResult) -> str:
    """Render the Fig. 2 comparison table."""
    rows = []
    for label, flow in (("2D baseline", result.baseline), ("M3D", result.m3d)):
        design = flow.design
        rows.append([
            label,
            design.n_cs,
            f"{to_mm2(flow.footprint):.1f}",
            f"{design.rram_capacity_bits / MEGABYTE:.0f}",
            f"{flow.timing.achieved_frequency / 1e6:.0f}",
            f"{to_mw(flow.power.total):.1f}",
            percent(flow.power.upper_tier_fraction, 2),
            f"{flow.quality['hpwl_metre_bits']:.1f}",
        ])
    table = format_table(
        "Fig. 2 — iso-footprint, iso-capacity physical design case study",
        ["design", "CS", "footprint mm^2", "RRAM MB", "fmax MHz",
         "power mW", "upper-tier P", "HPWL m-bits"],
        rows,
    )
    summary = (
        f"\niso-footprint: {result.iso_footprint}  "
        f"iso-capacity: {result.iso_capacity}  "
        f"CS gain: +{result.cs_gain}  "
        f"peak power density: {times(result.peak_density_ratio, 4)}"
    )
    return table + summary


@experiment("casestudy", "Fig. 2 + Obs. 2: physical design case study",
            formatter=format_case_study)
def casestudy_experiment(ctx: ExperimentContext,
                         capacity_bits: int | None = None) -> CaseStudyResult:
    """Run the flow on the 2D baseline and the iso-footprint M3D design.

    Each design goes through the staged pipeline
    (:func:`~repro.physical.flow.run_staged_flow`) with the spec's
    ``flow`` section, dispatched stage by stage through the evaluation
    engine — a warm cache (memory or ``--cache-dir``) serves repeat runs
    per stage.  ``strict=True`` keeps the historical abort on a timing
    miss.  ``capacity_bits`` (if given) overrides the context spec's
    capacity.
    """
    changes = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    spec = ctx.design_spec(changes)
    point = resolve(spec, ctx.pdk)
    baseline, m3d = (
        run_staged_flow(design, point.pdk, flow=spec.flow,
                        engine=ctx.engine, strict=True)
        for design in (point.baseline, point.m3d))
    return CaseStudyResult(baseline=baseline, m3d=m3d)
