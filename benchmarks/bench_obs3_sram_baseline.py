"""Obs. 3: SRAM-class (less dense) 2D baselines make M3D look better."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.obs3 import format_obs3
from repro.units import MEGABYTE


def test_bench_obs3_sram_baseline(benchmark, ctx):
    rows = benchmark(run_experiment, "obs3", ctx, capacity_bits=64 * MEGABYTE)
    by_ratio = {row.density_ratio: row for row in rows}
    assert by_ratio[2.0].n_cs == 16
    assert by_ratio[2.0].edp_benefit > by_ratio[1.0].edp_benefit
    report_table("obs3", format_obs3(rows))
