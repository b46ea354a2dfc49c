"""Extension: joint design-space exploration with Pareto extraction."""

from _reporting import report_table

from repro.core.dse import joint_grid_sweep
from repro.experiments.reporting import format_table, times
from repro.sweep import run_streaming_sweep
from repro.tech import foundry_m3d_pdk
from repro.units import MEGABYTE, to_mm2


def _run(pdk):
    result = run_streaming_sweep(joint_grid_sweep(), pdk=pdk)
    return result.evaluations, result.frontier_evaluations()


def test_bench_ext_dse_pareto(benchmark):
    pdk = foundry_m3d_pdk()
    candidates, frontier = benchmark(_run, pdk)
    assert len(candidates) == 36
    assert 1 <= len(frontier) <= len(candidates)
    # The case-study point must not be dominated at its capacity.
    case = next(c for c in candidates
                if c.spec.arch.capacity_bits == 64 * MEGABYTE
                and c.spec.tech.delta == 1.0 and c.spec.tech.beta == 1.0
                and c.spec.arch.tier_pairs == 1)
    same_size = [c for c in candidates if c.footprint <= case.footprint]
    assert case.edp_benefit >= 0.8 * max(c.edp_benefit for c in same_size)
    rows = [[f"{c.spec.arch.capacity_bits / MEGABYTE:.0f} MB",
             c.spec.tech.delta, c.spec.tech.beta, c.spec.arch.tier_pairs,
             c.n_cs_m3d, f"{to_mm2(c.footprint):.0f}",
             times(c.edp_benefit)] for c in frontier]
    report_table("ext_dse", format_table(
        "Extension — Pareto frontier of the joint (capacity, delta, beta, "
        "Y) space, ResNet-18",
        ["capacity", "delta", "beta", "Y", "N", "footprint mm^2",
         "EDP benefit"], rows))
