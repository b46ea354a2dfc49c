"""Extension: operand precision vs capacity and benefit."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.ext_precision import format_precision
from repro.units import MEGABYTE


def test_bench_ext_precision(benchmark, ctx):
    rows = benchmark(run_experiment, "ext-precision", ctx,
                     capacity_bits=64 * MEGABYTE)
    by_bits = {row.evaluation.spec.arch.precision_bits: row for row in rows}
    # 16-bit weights halve the effective capacity: fewer models fit.
    assert len(by_bits[16].models_fitting) < len(by_bits[8].models_fitting)
    # Lower precision loads weight slabs faster -> mildly better benefit.
    assert by_bits[4].evaluation.edp_benefit \
        >= by_bits[16].evaluation.edp_benefit
    report_table("ext_precision", format_precision(rows))
