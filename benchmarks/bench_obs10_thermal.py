"""Obs. 10 / Eq. 17: thermal ceiling on stacked tier pairs."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.fig10 import format_obs10


def test_bench_obs10_thermal(benchmark, ctx):
    rows = benchmark(run_experiment, "obs10", ctx)
    assert rows[0].max_pairs > rows[-1].max_pairs
    report_table("obs10", format_obs10(rows))
