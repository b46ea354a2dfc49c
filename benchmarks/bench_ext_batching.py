"""Extension: token batching on a transformer encoder."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.ext_batching import format_batching
from repro.units import MEGABYTE


def test_bench_ext_batching(benchmark, ctx):
    rows = benchmark(run_experiment, "ext-batching", ctx,
                     capacity_bits=64 * MEGABYTE)
    # Batching amortizes slab setup: >20x fewer cycles per token.
    assert rows[0].cycles_per_token_2d > 20 * rows[-1].cycles_per_token_2d
    # The M3D benefit is robust across the regime (stays near N = 8).
    assert all(6.5 < row.speedup <= 8.0 for row in rows)
    report_table("ext_batching", format_batching(rows))
