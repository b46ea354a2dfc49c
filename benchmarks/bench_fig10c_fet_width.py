"""Fig. 10b-c / Obs. 7: access-FET width relaxation sweep (Case 1)."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.fig10 import format_fig10c


def test_bench_fig10c_fet_width(benchmark, ctx):
    results = benchmark(run_experiment, "fig10c", ctx)
    by_delta = {r.spec.tech.delta: r for r in results}
    assert abs(by_delta[1.6].edp_benefit - by_delta[1.0].edp_benefit) \
        < 0.05 * by_delta[1.0].edp_benefit
    assert by_delta[2.5].edp_benefit > 1.0
    report_table("fig10c", format_fig10c(results))
