"""Fig. 5: whole-model benefits for AlexNet / VGG / ResNet inference."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.fig5 import format_fig5
from repro.units import MEGABYTE


def test_bench_fig5_models(benchmark, ctx):
    rows = benchmark(run_experiment, "fig5", ctx, capacity_bits=64 * MEGABYTE)
    benefits = [row.edp_benefit for row in rows]
    assert 5.4 <= min(benefits) and max(benefits) <= 8.5
    report_table("fig5", format_fig5(rows))
