"""The paper's Fig. 1 contrast: folding-only M3D vs new design points."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.folding import format_folding
from repro.units import MEGABYTE


def test_bench_folding_vs_architecture(benchmark, ctx):
    result = benchmark(run_experiment, "folding", ctx,
                       capacity_bits=64 * MEGABYTE)
    # Folding alone lands in the prior-work band ([3-4]: ~1.1-1.4x)...
    assert 1.05 < result.folded_edp_benefit < 1.5
    # ...while the architectural design points deliver the paper's 5.7x.
    assert result.architectural_edp_benefit > 5.0
    assert result.architectural_advantage > 3.5
    report_table("folding", format_folding(result))
