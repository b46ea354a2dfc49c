"""Extension: computing sub-systems in the BEOL CNFET tier."""

from _reporting import report_table

from repro.experiments import run_experiment
from repro.experiments.ext_beol_logic import format_beol_logic
from repro.units import MEGABYTE


def test_bench_ext_beol_logic(benchmark, ctx):
    result = benchmark(run_experiment, "ext-beol-logic", ctx,
                       capacity_bits=64 * MEGABYTE)
    assert result.cnfet_cs > 0
    assert result.cnfet_fmax > 20e6  # the derated CSs still close timing
    assert result.edp_benefit > result.baseline_edp_benefit
    assert result.thermal_ok
    report_table("ext_beol_logic", format_beol_logic(result))
