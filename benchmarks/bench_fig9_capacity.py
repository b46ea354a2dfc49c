"""Fig. 9 / Obs. 6: M3D benefit vs baseline RRAM capacity."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.fig9 import format_fig9


def test_bench_fig9_capacity(benchmark, ctx):
    points = benchmark(run_experiment, "fig9", ctx)
    assert points[0].n_cs_m3d == 1
    assert points[-1].edp_benefit > 6.0
    report_table("fig9", format_fig9(points))
