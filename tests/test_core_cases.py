"""Cases 1-3 of the analytical framework (Obs. 7, 8, 9)."""

import pytest

from repro.errors import ConfigurationError
from repro.arch.accelerator import reoptimized_2d_cs_count
from repro.core.multitier import stack_temperature_rise
from repro.core.thermal import ThermalStack
from repro.core.via_pitch import effective_cell_growth
from repro.experiments import run_experiment
from repro.experiments.fig10 import DELTAS
from repro.spec import DesignSpec, evaluate_specs


def reoptimized(pdk, knob, *values):
    """Evaluations of the case study with ``knob`` at each value, against
    the re-optimized 2D baseline (Cases 1 and 2)."""
    return evaluate_specs(
        [DesignSpec().updated({knob: value, "arch.baseline": "reoptimized"})
         for value in values], pdk=pdk)


def tiers(pdk, *pairs, **changes):
    """Evaluations of the case study at each tier-pair count (Case 3)."""
    return evaluate_specs(
        [DesignSpec().updated({"arch.tier_pairs": y, **changes})
         for y in pairs], pdk=pdk)


# --- Case 1: relaxed FET width --------------------------------------------------

def test_delta_one_reproduces_case_study(pdk):
    (result,) = reoptimized(pdk, "tech.delta", 1.0)
    assert result.n_cs_2d == 1
    assert result.n_cs_m3d == 8
    assert result.edp_benefit == pytest.approx(5.66, rel=0.05)


def test_no_edp_loss_to_1p6(pdk):
    """Obs. 7: benefits unchanged up to 1.6x relaxed widths."""
    reference, *relaxed = reoptimized(pdk, "tech.delta", 1.0, 1.2, 1.4, 1.6)
    for result in relaxed:
        assert result.edp_benefit == pytest.approx(
            reference.edp_benefit, rel=0.02), result.spec.tech.delta


def test_benefits_decline_beyond_1p7(pdk):
    flat, declined = reoptimized(pdk, "tech.delta", 1.6, 2.0)
    assert declined.edp_benefit < 0.6 * flat.edp_benefit


def test_small_benefits_retained_at_2p5(pdk):
    """Obs. 7: small benefits retained even at 2.5x relaxed widths."""
    (result,) = reoptimized(pdk, "tech.delta", 2.5)
    assert 1.0 < result.edp_benefit < 2.0


def test_2d_baseline_gains_cs_when_footprint_grows(pdk):
    (result,) = reoptimized(pdk, "tech.delta", 2.0)
    assert result.n_cs_2d > 1
    assert result.n_cs_m3d > 8


def test_reoptimized_cs_count_eq9():
    assert reoptimized_2d_cs_count(10.0, 8.0, 1.0) == 3
    assert reoptimized_2d_cs_count(8.0, 8.0, 1.0) == 1
    assert reoptimized_2d_cs_count(7.0, 8.0, 1.0) == 1


def test_delta_below_one_rejected():
    with pytest.raises(ConfigurationError):
        DesignSpec().updated({"tech.delta": 0.9})


def test_sweep_fet_width_ordered(ctx):
    results = run_experiment("fig10c", ctx)
    assert [r.spec.tech.delta for r in results] == list(DELTAS)


# --- Case 2: via pitch -----------------------------------------------------------

def test_cell_growth_one_at_fine_pitch(pdk):
    assert effective_cell_growth(pdk, 1.0) == pytest.approx(1.0)


def test_cell_growth_quadratic_once_via_limited(pdk):
    g2 = effective_cell_growth(pdk, 2.0)
    g4 = effective_cell_growth(pdk, 4.0)
    assert g4 == pytest.approx(4 * g2, rel=0.01)


def test_benefits_unchanged_to_beta_1p3(pdk):
    """Obs. 8: up to 1.3x pitch, benefits do not change."""
    reference, result = reoptimized(pdk, "tech.beta", 1.0, 1.3)
    assert result.edp_benefit == pytest.approx(reference.edp_benefit,
                                               rel=0.02)


def test_benefits_limited_at_beta_1p6(pdk):
    """Obs. 8: at 1.6x pitch the benefit is limited to none."""
    (result,) = reoptimized(pdk, "tech.beta", 1.6)
    assert result.edp_benefit < 2.0


def test_via_pitch_equivalent_to_width_relaxation(pdk):
    """Case 2 reduces to Case 1 at delta_eff = cell growth."""
    beta = 1.5
    growth = effective_cell_growth(pdk, beta)
    (case2,) = reoptimized(pdk, "tech.beta", beta)
    (case1,) = reoptimized(pdk, "tech.delta", growth)
    assert case2.edp_benefit == pytest.approx(case1.edp_benefit, rel=0.02)


def test_sweep_via_pitch_monotone_nonincreasing(pdk):
    results = reoptimized(pdk, "tech.beta", 1.0, 1.3, 1.5, 1.7, 2.0)
    benefits = [r.edp_benefit for r in results]
    assert benefits[0] == max(benefits)
    assert benefits[-1] < benefits[0]


# --- Case 3: interleaved tiers ------------------------------------------------------

def test_single_pair_matches_case_study(pdk):
    (result,) = tiers(pdk, 1)
    assert result.n_cs_m3d == 8
    assert result.edp_benefit == pytest.approx(5.66, rel=0.05)


def test_second_pair_boost(pdk):
    """Obs. 9: one extra pair lifts ResNet-18 from ~5.7x to ~6.9x."""
    (result,) = tiers(pdk, 2)
    assert result.n_cs_m3d == 16
    assert result.edp_benefit == pytest.approx(6.9, rel=0.05)


def test_benefit_plateaus(ctx):
    """Obs. 9: the benefit plateaus near 7.1x as CSs exceed N#."""
    results = run_experiment("fig10d", ctx, max_pairs=6).network_sweep
    plateau = max(r.edp_benefit for r in results)
    assert plateau == pytest.approx(7.1, rel=0.05)
    assert results[-1].edp_benefit == pytest.approx(plateau, rel=0.05)


def test_parallel_layer_approaches_23x(pdk):
    """Obs. 9: a highly parallelizable layer (L4.1 CONV2, N# = 32)
    approaches ~23x; our plateau lands within ~35% (see EXPERIMENTS.md)."""
    (result,) = tiers(pdk, 4, **{"workload.layer": "L4.1 CONV2"})
    assert result.edp_benefit > 20.0


def test_thermal_rise_recorded(pdk):
    rise = stack_temperature_rise(
        DesignSpec().updated({"arch.tier_pairs": 4}), pdk)
    assert rise > 0
    assert rise <= ThermalStack().max_rise  # 20 MHz chips are thermally trivial


def test_zero_pairs_rejected():
    with pytest.raises(ConfigurationError):
        DesignSpec().updated({"arch.tier_pairs": 0})
