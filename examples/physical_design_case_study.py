#!/usr/bin/env python3
"""The Sec. II physical design case study, end to end (paper Fig. 2).

Runs the block-level RTL-to-GDS flow (synthesize -> floorplan -> place ->
route -> timing -> power) on both designs and prints the Fig. 2 comparison:
iso footprint, 1 vs 8 computing sub-systems, achieved frequency at the
20 MHz target, per-tier power, and the Obs. 2 thermal headlines (<1% power
in the upper tiers, ~+1% peak power density).
"""

from repro.experiments import ExperimentContext, run_experiment
from repro.experiments.casestudy import format_case_study
from repro.experiments.reporting import percent
from repro.units import MEGABYTE, to_mm2


def main() -> None:
    ctx = ExperimentContext.create()
    result = run_experiment("casestudy", ctx, capacity_bits=64 * MEGABYTE)
    print(format_case_study(result))

    m3d = result.m3d
    print("\n--- M3D flow detail ---")
    plan = m3d.floorplan
    print(f"die: {to_mm2(plan.footprint):.1f} mm^2, "
          f"Si utilization {percent(plan.tier_utilization('si_cmos'))}, "
          f"RRAM-tier utilization {percent(plan.tier_utilization('rram'))}")
    print(f"routing: {m3d.routing.inter_block_wirelength:.1f} m-bits "
          f"inter-block, {m3d.routing.buffer_count} repeaters, "
          f"{m3d.routing.ilv_count} inter-layer vias")
    print(f"timing: critical path {m3d.timing.critical_path * 1e9:.2f} ns "
          f"-> fmax {m3d.timing.achieved_frequency / 1e6:.0f} MHz "
          f"(target 20 MHz, slack {m3d.timing.slack * 1e9:.1f} ns)")
    for tier, watts in sorted(m3d.power.per_tier.items()):
        print(f"power[{tier:8s}] = {watts * 1e3:8.3f} mW "
              f"({percent(watts / m3d.power.total, 2)})")


if __name__ == "__main__":
    main()
