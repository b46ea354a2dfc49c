"""Folding-only M3D: the prior-work baseline the paper's intro contrasts.

Prior RTL-to-GDS M3D studies ([3], [4]) *fold* the existing 2D design into
two tiers — same architecture, iso-on-chip-memory-capacity — and collect
physical-design gains only: ~50% footprint, ~20% wirelength/buffer
reduction, worth ~1.1-1.4x EDP.  The paper's thesis is that the big wins
(5.7x+) need *new architectural design points*, not just folding.

This experiment reproduces both numbers from the same codebase:

* the folded design keeps the single CS but stacks the RRAM above it, so
  the footprint shrinks to max(memory tier, logic tier); wirelength scales
  with sqrt(area), and the wire shares of delay and energy (measured from
  the flow's timing and routing outputs) convert the wirelength saving
  into the folded EDP benefit;
* the architectural M3D design is the usual 8-CS case study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.physical.flow import run_staged_flow
from repro.spec.evaluate import evaluate_specs
from repro.spec.resolve import resolve
from repro.units import to_mm2

#: Fraction of chip dynamic energy in interconnect at this node class.
WIRE_ENERGY_SHARE = 0.30


@dataclass(frozen=True)
class FoldingResult:
    """Folding-only vs architectural M3D.

    Attributes:
        footprint_2d: 2D baseline footprint, m^2.
        footprint_folded: Folded-M3D footprint, m^2.
        wirelength_ratio: Folded/2D wirelength (sqrt-area scaling).
        wire_delay_share: Wire share of the 2D critical path.
        folded_speedup: Delay benefit of folding at iso-architecture.
        folded_energy_benefit: Energy benefit of folding.
        folded_edp_benefit: EDP benefit of folding (paper: ~1.1-1.4x).
        architectural_edp_benefit: The 8-CS case-study benefit (~5.7x).
    """

    footprint_2d: float
    footprint_folded: float
    wirelength_ratio: float
    wire_delay_share: float
    folded_speedup: float
    folded_energy_benefit: float
    folded_edp_benefit: float
    architectural_edp_benefit: float

    @property
    def footprint_ratio(self) -> float:
        """Folded footprint relative to 2D (prior work: ~0.5)."""
        return self.footprint_folded / self.footprint_2d

    @property
    def architectural_advantage(self) -> float:
        """How much the new design points add over folding alone."""
        return self.architectural_edp_benefit / self.folded_edp_benefit


@experiment("folding", "Prior-work contrast: folding-only M3D",
            formatter=lambda result: format_folding(result))
def folding_experiment(
    ctx: ExperimentContext,
    capacity_bits: int | None = None,
) -> FoldingResult:
    """Evaluate folding-only M3D against the architectural case study.

    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    changes = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    spec = ctx.design_spec(changes)
    point = resolve(spec, ctx.pdk)

    flow_2d = run_staged_flow(point.baseline, point.pdk, flow=spec.flow,
                              engine=ctx.engine, strict=True)
    baseline = flow_2d.design

    # Folded footprint: the memory tier and the logic tier overlap.
    logic_tier = (baseline.area.cs_unit + baseline.area.peripherals
                  + baseline.area.bus_io)
    folded_footprint = max(baseline.area.cells, logic_tier)
    wl_ratio = math.sqrt(folded_footprint / baseline.area.footprint)

    # Delay: the shorter wires shrink only the wire share of the critical
    # path; clock frequency scales with the inverse of the new path.
    timing = flow_2d.timing
    wire_share = timing.wire_delay / timing.critical_path
    folded_path = (timing.logic_delay + timing.wire_delay * wl_ratio)
    folded_speedup = timing.critical_path / folded_path

    # Energy: the wire share of dynamic energy scales with wirelength.
    folded_energy = 1.0 - WIRE_ENERGY_SHARE * (1.0 - wl_ratio)
    folded_energy_benefit = 1.0 / folded_energy

    architectural, = evaluate_specs([spec], pdk=ctx.pdk, engine=ctx.engine,
                                    jobs=ctx.jobs)
    return FoldingResult(
        footprint_2d=baseline.area.footprint,
        footprint_folded=folded_footprint,
        wirelength_ratio=wl_ratio,
        wire_delay_share=wire_share,
        folded_speedup=folded_speedup,
        folded_energy_benefit=folded_energy_benefit,
        folded_edp_benefit=folded_speedup * folded_energy_benefit,
        architectural_edp_benefit=architectural.edp_benefit,
    )


def format_folding(result: FoldingResult) -> str:
    """Render the folding-vs-architecture comparison."""
    rows = [
        ["2D footprint", f"{to_mm2(result.footprint_2d):.0f} mm^2"],
        ["folded M3D footprint",
         f"{to_mm2(result.footprint_folded):.0f} mm^2 "
         f"({result.footprint_ratio:.0%} of 2D)"],
        ["wirelength", f"{result.wirelength_ratio:.0%} of 2D "
                       f"(prior work: ~80%)"],
        ["folded speedup", times(result.folded_speedup)],
        ["folded energy benefit", times(result.folded_energy_benefit)],
        ["folded EDP benefit", f"{times(result.folded_edp_benefit)} "
                               f"(prior work [3-4]: 1.1-1.4x)"],
        ["architectural EDP benefit",
         f"{times(result.architectural_edp_benefit)} (this paper)"],
        ["architecture / folding", times(result.architectural_advantage)],
    ]
    return format_table(
        "Folding-only M3D vs new architectural design points "
        "(the paper's Fig. 1 contrast)",
        ["quantity", "value"], rows)
