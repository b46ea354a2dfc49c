"""Fig. 7 / Table II: six architectures, mapper vs analytical framework."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.fig7 import format_fig7


def test_bench_fig7_architectures(benchmark, ctx):
    rows = benchmark(run_experiment, "fig7", ctx)
    assert all(row.edp_disagreement < 0.10 for row in rows)
    report_table("fig7", format_fig7(rows))
