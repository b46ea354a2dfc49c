"""Table I: per-layer ResNet-18 benefits."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.table1 import format_table1
from repro.units import MEGABYTE


def test_bench_table1_resnet18(benchmark, ctx):
    rows = benchmark(run_experiment, "table1", ctx,
                     capacity_bits=64 * MEGABYTE)
    total = rows[-1]
    assert abs(total.speedup - 5.64) / 5.64 < 0.05
    report_table("table1", format_table1(rows))
