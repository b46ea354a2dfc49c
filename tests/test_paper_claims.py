"""Integration suite: every headline claim of the paper in one place.

Each test names the claim it checks, with the tolerance used in
EXPERIMENTS.md.  These are the "does the reproduction reproduce" tests —
if one fails, the corresponding table/figure in EXPERIMENTS.md is stale.
"""

import pytest

from repro.arch import baseline_2d_design, m3d_design
from repro.experiments import run_experiment
from repro.perf import compare_designs, simulate
from repro.spec import DesignSpec, evaluate_specs
from repro.units import MEGABYTE
from repro.workloads import build_network


@pytest.fixture(scope="module")
def case_study(ctx):
    return run_experiment("casestudy", ctx, capacity_bits=64 * MEGABYTE)


def _reoptimized(pdk, knob, *values):
    """The case study with ``knob`` at each value, against the
    re-optimized 2D baseline (Cases 1 and 2)."""
    return evaluate_specs(
        [DesignSpec().updated({knob: value, "arch.baseline": "reoptimized"})
         for value in values], pdk=pdk)


class TestHeadline:
    """Abstract: 5.3x-11.5x analytical range; 5.7x-7.5x case study."""

    def test_case_study_edp_range(self, ctx):
        rows = run_experiment("fig5", ctx, capacity_bits=64 * MEGABYTE)
        benefits = [row.edp_benefit for row in rows]
        assert min(benefits) == pytest.approx(5.7, rel=0.05)
        assert max(benefits) == pytest.approx(7.5, rel=0.10)

    def test_architectural_range_5p3_to_11p5(self, ctx):
        rows = run_experiment("fig7", ctx)
        benefits = [row.analytic_edp for row in rows]
        assert min(benefits) == pytest.approx(5.3, rel=0.20)
        assert max(benefits) == pytest.approx(11.5, rel=0.15)

    def test_folding_alone_would_not_give_this(self, resnet18_benefit):
        """Prior folding-only approaches reach ~1.4x; new architectural
        design points are what unlock >5x (the paper's thesis)."""
        assert resnet18_benefit.edp_benefit > 4 * 1.4


class TestSectionII:
    """Physical design case study."""

    def test_iso_constraints(self, case_study):
        assert case_study.iso_footprint
        assert case_study.iso_capacity

    def test_one_to_eight_cs(self, case_study):
        assert case_study.baseline.design.n_cs == 1
        assert case_study.m3d.design.n_cs == 8

    def test_both_close_timing_at_20mhz(self, case_study):
        assert case_study.baseline.timing.meets_target
        assert case_study.m3d.timing.meets_target
        assert case_study.baseline.design.frequency_hz == 20e6

    def test_obs2_upper_tier_power(self, case_study):
        assert case_study.upper_tier_fraction < 0.01

    def test_obs2_peak_power_density(self, case_study):
        assert case_study.peak_density_ratio < 1.02

    def test_table1_total(self, resnet18_benefit):
        assert resnet18_benefit.speedup == pytest.approx(5.64, rel=0.05)
        assert resnet18_benefit.energy_benefit == pytest.approx(1.0, abs=0.05)
        assert resnet18_benefit.edp_benefit == pytest.approx(5.66, rel=0.05)


class TestSectionIII:
    """Analytical framework observations."""

    def test_obs6_capacity_scaling(self, ctx):
        points = {round(p.spec.arch.capacity_bits / MEGABYTE): p
                  for p in run_experiment("fig9", ctx)}
        assert points[12].edp_benefit == pytest.approx(1.0, abs=0.02)
        assert points[128].edp_benefit == pytest.approx(6.8, rel=0.05)

    def test_obs7_fet_width_tolerance(self, pdk):
        results = {r.spec.tech.delta: r
                   for r in _reoptimized(pdk, "tech.delta", 1.0, 1.6, 2.5)}
        assert results[1.6].edp_benefit == pytest.approx(
            results[1.0].edp_benefit, rel=0.02)
        assert 1.0 < results[2.5].edp_benefit < 2.0

    def test_obs8_via_pitch_tolerance(self, pdk):
        results = {r.spec.tech.beta: r
                   for r in _reoptimized(pdk, "tech.beta", 1.0, 1.3, 1.6)}
        assert results[1.3].edp_benefit == pytest.approx(
            results[1.0].edp_benefit, rel=0.02)
        assert results[1.6].edp_benefit < 0.4 * results[1.0].edp_benefit

    def test_obs9_tier_scaling(self, ctx):
        results = run_experiment("fig10d", ctx, max_pairs=4).network_sweep
        assert results[0].edp_benefit == pytest.approx(5.7, rel=0.05)
        assert results[1].edp_benefit == pytest.approx(6.9, rel=0.05)
        assert max(r.edp_benefit for r in results) == pytest.approx(
            7.1, rel=0.05)

    def test_obs4_model_agreement(self, ctx):
        rows = run_experiment("fig7", ctx)
        assert all(row.edp_disagreement < 0.10 for row in rows)


class TestConservatism:
    """The comparisons are stacked against M3D, per the paper."""

    def test_baseline_already_has_benefits_of_on_chip_memory(self, baseline):
        """The 2D baseline keeps all weights on-chip (no DRAM)."""
        net = build_network("resnet152")
        assert net.weight_bits(8) <= baseline.rram_capacity_bits

    def test_m3d_gains_nothing_from_memory_tech(self, baseline, m3d):
        """Same RRAM cells, same capacity, same read energy on both sides."""
        assert baseline.bank_plan.array.cell.read_energy_per_bit \
            == m3d.bank_plan.array.cell.read_energy_per_bit

    def test_m3d_footprint_never_larger(self, baseline, m3d):
        assert m3d.area.footprint <= baseline.area.footprint * (1 + 1e-9)
