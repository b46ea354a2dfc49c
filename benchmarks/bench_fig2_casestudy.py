"""Fig. 2: the full physical design case study (2D and M3D flows)."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.casestudy import format_case_study
from repro.units import MEGABYTE


def test_bench_fig2_case_study(benchmark, ctx):
    result = benchmark(run_experiment, "casestudy", ctx,
                       capacity_bits=64 * MEGABYTE)
    assert result.iso_footprint and result.iso_capacity
    assert result.m3d.design.n_cs == 8
    report_table("fig2", format_case_study(result))
