"""Fig. 8 / Obs. 5: EDP benefit over the bandwidth x CS-count plane."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.fig8 import format_fig8


def test_bench_fig8_bandwidth_vs_cs(benchmark, ctx):
    result = benchmark(run_experiment, "fig8", ctx)
    assert 1.8 < result.compute_bound_doubling < 2.4
    assert 1.8 < result.memory_bound_rebalance < 2.4
    report_table("fig8", format_fig8(result))
