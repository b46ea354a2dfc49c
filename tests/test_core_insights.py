"""Obs. 5 / Obs. 6 design-space sweeps (Figs. 8 and 9)."""

import pytest

from repro.core.insights import (
    m3d_point,
    obs5_compute_bound_ratio,
    obs5_memory_bound_ratio,
    reference_design_point,
    sweep_bandwidth_vs_cs,
)
from repro.experiments import run_experiment
from repro.spec import DesignSpec, evaluate_specs
from repro.units import MEGABYTE


def test_reference_point_is_case_study(pdk):
    point = reference_design_point(pdk)
    assert point.n_cs == 1
    assert point.peak_ops_per_cycle == 256
    assert point.bandwidth_bits_per_cycle == 256


def test_m3d_point_scales_total_bandwidth():
    base = reference_design_point()
    point = m3d_point(base, n_cs=8, per_cs_bandwidth_factor=1.0)
    assert point.bandwidth_bits_per_cycle == pytest.approx(8 * 256)


def test_obs5_compute_bound_doubling_near_2():
    """Paper: ~2.1x better EDP from 2x CSs at 16 ops/bit."""
    ratio = obs5_compute_bound_ratio()
    assert ratio == pytest.approx(2.1, rel=0.10)


def test_obs5_memory_bound_rebalance_near_2():
    """Paper: ~2.1x better EDP from 2x per-CS bandwidth at half the CSs."""
    ratio = obs5_memory_bound_ratio()
    assert ratio == pytest.approx(2.1, rel=0.10)


def test_compute_bound_grid_favors_cs_count():
    grid = sweep_bandwidth_vs_cs(16.0)
    at = {(p.n_cs, p.bandwidth_factor): p.edp_benefit for p in grid}
    assert at[(8, 1.0)] > at[(4, 1.0)] > at[(2, 1.0)]
    # Extra bandwidth alone buys nothing when compute-bound.
    assert at[(8, 2.0)] == pytest.approx(at[(8, 1.0)], rel=0.01)


def test_memory_bound_grid_favors_bandwidth():
    grid = sweep_bandwidth_vs_cs(1.0 / 16.0)
    at = {(p.n_cs, p.bandwidth_factor): p.edp_benefit for p in grid}
    assert at[(1, 2.0)] > at[(1, 1.0)]
    # Extra CSs alone buy nothing (slightly negative via idle energy).
    assert at[(8, 1.0)] <= at[(1, 1.0)]


def test_memory_bound_low_bandwidth_hurts():
    grid = sweep_bandwidth_vs_cs(1.0 / 16.0)
    at = {(p.n_cs, p.bandwidth_factor): p.edp_benefit for p in grid}
    assert at[(1, 0.5)] < 1.0


def test_grid_covers_requested_points():
    grid = sweep_bandwidth_vs_cs(16.0, n_cs_values=(1, 2),
                                 bandwidth_factors=(1.0, 2.0))
    assert len(grid) == 4


def test_capacity_sweep_matches_fig9(ctx):
    """Fig. 9: 1x at 12 MB -> ~5.7x at 64 MB -> ~6.8x at 128 MB."""
    points = run_experiment("fig9", ctx)
    by_mb = {round(p.spec.arch.capacity_bits / MEGABYTE): p for p in points}
    assert by_mb[12].n_cs_m3d == 1
    assert by_mb[12].edp_benefit == pytest.approx(1.0, abs=0.01)
    assert by_mb[64].edp_benefit == pytest.approx(5.66, rel=0.05)
    assert by_mb[128].edp_benefit == pytest.approx(6.8, rel=0.05)


def test_capacity_sweep_monotone_cs(ctx):
    points = run_experiment("fig9", ctx)
    cs_counts = [p.n_cs_m3d for p in points]
    assert cs_counts == sorted(cs_counts)


def test_capacity_sweep_custom_points(pdk):
    points = evaluate_specs(
        [DesignSpec().with_capacity(mb * MEGABYTE) for mb in (24, 48)],
        pdk=pdk)
    assert len(points) == 2
    assert points[0].n_cs_m3d < points[1].n_cs_m3d
