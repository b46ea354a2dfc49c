"""Obs. 8 / Case 2: ILV pitch sweep."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.fig10 import format_obs8


def test_bench_obs8_via_pitch(benchmark, ctx):
    rows = benchmark(run_experiment, "obs8", ctx)
    by_beta = {row.evaluation.spec.tech.beta: row.evaluation for row in rows}
    assert abs(by_beta[1.3].edp_benefit - by_beta[1.0].edp_benefit) \
        < 0.05 * by_beta[1.0].edp_benefit
    assert by_beta[1.6].edp_benefit < 2.0
    report_table("obs8", format_obs8(rows))
