"""Extension study: computing sub-systems in the BEOL CNFET tier.

The paper's conclusion projects that M3D benefits "will grow with further
performance optimization (e.g., full CMOS on upper layers)".  The case
study uses the CNFET tier only for RRAM access FETs; here we additionally
place CSs built from the (drive-derated) CNFET standard-cell library in
the CNFET-tier area left over beside the memory arrays.

At the case study's relaxed 20 MHz target, a CNFET CS closes timing
comfortably despite the weaker devices (fmax scales with the relative
drive but stays far above 20 MHz), so each upper-tier CS contributes full
throughput — the gain is purely the extra parallelism, and the cost shows
up as upper-tier power (which this study tracks against the thermal
budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.tech.pdk import PDK
from repro.arch.accelerator import baseline_2d_design
from repro.core.thermal import ThermalStack, temperature_rise
from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.spec.evaluate import spec_benefit, spec_calls
from repro.spec.resolve import resolve


def cnfet_tier_free_area(pdk: PDK, capacity_bits: int) -> float:
    """CNFET-tier area not occupied by memory access FETs, m^2."""
    baseline = baseline_2d_design(pdk, capacity_bits)
    return max(0.0, baseline.area.footprint - baseline.area.cells)


def cnfet_cs_fmax(pdk: PDK) -> float:
    """First-order fmax of a CNFET-tier CS, Hz (logic-depth limited)."""
    nand = pdk.cnfet_library.gate_equivalent
    path = 24 * nand.delay_with_load(2.0 * nand.input_capacitance)
    return 1.0 / path


def extra_cnfet_cs_count(pdk: PDK, capacity_bits: int) -> int:
    """CNFET-tier CSs that fit beside the arrays.

    The upper-tier CS reuses the case-study configuration; CNFET cells have
    the same footprint as Si cells at this node, so the CS area carries
    over.  The SRAM buffers stay per-CS but live in the CNFET tier too
    (BEOL-compatible memories would be used in practice; area-equivalent
    here).
    """
    baseline = baseline_2d_design(pdk, capacity_bits)
    free = cnfet_tier_free_area(pdk, capacity_bits)
    return max(0, math.floor(free / baseline.area.cs_unit))


@dataclass(frozen=True)
class BEOLLogicResult:
    """Outcome of the BEOL-logic extension study.

    Attributes:
        si_cs: CSs in the Si tier (the case-study 8).
        cnfet_cs: Additional CSs in the CNFET tier.
        cnfet_fmax: fmax of a CNFET CS, Hz (must exceed the 20 MHz target).
        speedup / energy_benefit / edp_benefit: ResNet-18 benefits of the
            extended design vs the 2D baseline.
        baseline_edp_benefit: The plain 8-CS M3D benefit, for contrast.
        upper_tier_power_fraction: Chip power now in the upper tiers.
        temperature_rise: Eq. 17 rise with compute in the stack, K.
        thermal_ok: True when inside the 60 K budget.
    """

    si_cs: int
    cnfet_cs: int
    cnfet_fmax: float
    speedup: float
    energy_benefit: float
    edp_benefit: float
    baseline_edp_benefit: float
    upper_tier_power_fraction: float
    temperature_rise: float
    thermal_ok: bool


@experiment("ext-beol-logic", "Extension: CSs in the BEOL CNFET tier",
            formatter=lambda result: format_beol_logic(result))
def beol_logic_experiment(
    ctx: ExperimentContext,
    capacity_bits: int | None = None,
    stack: ThermalStack | None = None,
) -> BEOLLogicResult:
    """Evaluate the M3D design extended with CNFET-tier CSs.

    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    changes = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    spec = ctx.design_spec(changes)
    point = resolve(spec, ctx.pdk)
    pdk = point.pdk
    stack = stack if stack is not None else ThermalStack()
    si_cs = point.m3d.n_cs
    extra = extra_cnfet_cs_count(pdk, spec.arch.capacity_bits)
    extended = spec.updated({"arch.n_cs": si_cs + extra})
    plain_benefit, extended_benefit = ctx.engine.map(
        spec_benefit, spec_calls([spec, extended], ctx.pdk),
        stage="ext_beol_logic.benefit", jobs=ctx.jobs)

    # Power attribution: the CNFET CSs' share of average power moves to the
    # upper tier; Eq. 17 treats the chip as one compute+memory pair with
    # that share dissipated above the Si tier.
    total_power = extended_benefit.m3d.average_power
    upper_share = extra / extended_benefit.m3d.design.n_cs
    upper_power = total_power * upper_share
    rise = temperature_rise([total_power - upper_power, upper_power], stack)

    return BEOLLogicResult(
        si_cs=si_cs,
        cnfet_cs=extra,
        cnfet_fmax=cnfet_cs_fmax(pdk),
        speedup=extended_benefit.speedup,
        energy_benefit=extended_benefit.energy_benefit,
        edp_benefit=extended_benefit.edp_benefit,
        baseline_edp_benefit=plain_benefit.edp_benefit,
        upper_tier_power_fraction=upper_share,
        temperature_rise=rise,
        thermal_ok=rise <= stack.max_rise,
    )


def format_beol_logic(result: BEOLLogicResult) -> str:
    """Render the BEOL-logic study."""
    rows = [
        ["Si-tier CSs (case study)", result.si_cs],
        ["extra CNFET-tier CSs", result.cnfet_cs],
        ["CNFET CS fmax", f"{result.cnfet_fmax / 1e6:.0f} MHz "
                          f"(target 20 MHz)"],
        ["EDP benefit, 8-CS M3D", times(result.baseline_edp_benefit)],
        ["EDP benefit, + BEOL logic", times(result.edp_benefit)],
        ["upper-tier power share", f"{result.upper_tier_power_fraction:.0%}"],
        ["temperature rise", f"{result.temperature_rise:.2f} K "
                             f"(ok={result.thermal_ok})"],
    ]
    return format_table(
        "Extension — computing sub-systems in the BEOL CNFET tier "
        "(the paper's 'full CMOS on upper layers' projection)",
        ["quantity", "value"], rows)
