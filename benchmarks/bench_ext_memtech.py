"""Extension: the M3D principle across BEOL memory technologies."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.ext_memtech import format_memtech
from repro.units import MEGABYTE


def test_bench_ext_memory_technologies(benchmark, ctx):
    rows = benchmark(run_experiment, "ext-memtech", ctx,
                     capacity_bits=64 * MEGABYTE)
    by_name = {row.evaluation.spec.tech.memory: row.evaluation
               for row in rows}
    # Sparser cells free more silicon -> more CSs; denser cells fewer.
    assert by_name["stt_mram"].n_cs_m3d > by_name["rram"].n_cs_m3d
    assert by_name["pcm"].n_cs_m3d < by_name["rram"].n_cs_m3d
    # Every BEOL technology still shows a multi-x benefit.
    assert all(row.evaluation.edp_benefit > 3.0 for row in rows)
    report_table("ext_memtech", format_memtech(rows))
