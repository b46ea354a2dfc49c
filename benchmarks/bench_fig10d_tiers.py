"""Fig. 10d / Obs. 9: interleaved compute+memory tier pairs (Case 3)."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.fig10 import format_fig10d


def test_bench_fig10d_tiers(benchmark, ctx):
    result = benchmark(run_experiment, "fig10d", ctx)
    sweep = result.network_sweep
    assert sweep[1].edp_benefit > sweep[0].edp_benefit  # Y=2 beats Y=1
    assert result.parallel_layer_sweep[-1].edp_benefit > 15.0
    report_table("fig10d", format_fig10d(result))
