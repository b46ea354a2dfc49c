"""Folding-only baseline and the spatial thermal map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.thermal import ThermalStack, vertical_conductance
from repro.experiments import run_experiment
from repro.experiments.folding import format_folding
from repro.physical.floorplan import Floorplan, PlacedBlock, Rect
from repro.physical.flow import run_staged_flow
from repro.physical.netlist import BlockKind
from repro.physical.power import PowerReport
from repro.physical.thermal_map import (
    GRID,
    LATERAL_CONDUCTANCE,
    power_density_grid,
    relative_residual,
    solve_grid,
    solve_thermal_map,
)
from repro.units import MEGABYTE


@pytest.fixture(scope="module")
def folding(ctx):
    return run_experiment("folding", ctx, capacity_bits=64 * MEGABYTE)


@pytest.fixture(scope="module")
def flows(pdk, baseline, m3d, legacy_flow):
    return tuple(run_staged_flow(design, pdk, flow=legacy_flow, strict=True)
                 for design in (baseline, m3d))


@pytest.fixture(scope="module")
def maps(flows):
    flow_2d, flow_m3d = flows
    return (solve_thermal_map(flow_2d.floorplan, flow_2d.power),
            solve_thermal_map(flow_m3d.floorplan, flow_m3d.power))


# --- folding ---------------------------------------------------------------------

def test_folded_footprint_shrinks(folding):
    assert folding.footprint_folded < folding.footprint_2d
    assert 0.5 < folding.footprint_ratio < 0.8


def test_folded_wirelength_about_80pct(folding):
    """Prior work [3-4] reports ~20% wirelength reduction."""
    assert folding.wirelength_ratio == pytest.approx(0.8, abs=0.05)


def test_folded_edp_in_prior_work_band(folding):
    """[3-4]: folding alone is worth ~1.1-1.4x."""
    assert 1.05 <= folding.folded_edp_benefit <= 1.5


def test_architecture_dwarfs_folding(folding):
    """The paper's thesis: design points, not folding, carry the benefit."""
    assert folding.architectural_edp_benefit > 4 * folding.folded_edp_benefit


def test_folding_components_multiply(folding):
    assert folding.folded_edp_benefit == pytest.approx(
        folding.folded_speedup * folding.folded_energy_benefit)


def test_folding_format(folding):
    text = format_folding(folding)
    assert "folded EDP benefit" in text
    assert "architecture / folding" in text


# --- thermal map -----------------------------------------------------------------------

def test_power_grid_conserves_power(flows):
    flow_2d, _ = flows
    grid, _ = power_density_grid(flow_2d.floorplan, flow_2d.power)
    assert grid.sum() == pytest.approx(flow_2d.power.total, rel=0.01)


def test_power_grid_shape(flows):
    flow_2d, _ = flows
    grid, cell = power_density_grid(flow_2d.floorplan, flow_2d.power)
    assert grid.shape == (GRID, GRID)
    assert cell > 0


def test_thermal_rise_nonnegative(maps):
    for thermal in maps:
        assert float(thermal.rise.min()) >= 0.0


def test_hotspot_at_least_average(maps):
    for thermal in maps:
        assert thermal.hotspot >= thermal.average


def test_case_study_thermally_trivial(maps):
    """Obs. 2's conclusion: no additional thermal management needed."""
    _, m3d_map = maps
    assert m3d_map.hotspot < 0.1  # kelvin


def test_m3d_hotspot_spread_not_peaked(maps):
    """The spatial extension of Obs. 2: with ~4x the 2D average power,
    the M3D hotspot rises only ~3x, because the 8 CSs spread the heat
    (peak/mean ~1.12 vs ~1.43) — and it stays thermally trivial."""
    map_2d, map_m3d = maps
    assert map_m3d.hotspot / map_2d.hotspot \
        < map_m3d.average / map_2d.average
    assert map_m3d.hotspot / map_m3d.average \
        < map_2d.hotspot / map_2d.average
    assert map_m3d.hotspot < 0.1  # kelvin


def test_m3d_average_warmer(maps):
    """More total power -> warmer on average, but spread, not peaked."""
    map_2d, map_m3d = maps
    assert map_m3d.average > map_2d.average


def test_hotspot_location_in_die(flows, maps):
    flow_2d, _ = flows
    thermal, _ = maps
    x, y = thermal.hotspot_location
    die = flow_2d.floorplan.die
    assert 0 <= x <= die.width * (1 + 1 / GRID)
    assert 0 <= y <= die.height * (1 + 1 / GRID)


def test_rise_at_matches_grid(maps):
    thermal, _ = maps
    x, y = thermal.hotspot_location
    assert thermal.rise_at(x, y) == pytest.approx(thermal.hotspot)


def test_uniform_power_gives_flat_field():
    """A uniform source has no lateral gradient: T = P_cell / G_v."""
    g_vertical = vertical_conductance(GRID * GRID)
    source = np.full((GRID, GRID), 1e-4)
    temp = solve_grid(source, g_vertical, LATERAL_CONDUCTANCE)
    np.testing.assert_allclose(temp, 1e-4 / g_vertical, rtol=1e-12)


def _dense_operator(n, g_vertical, g_lateral):
    """``G_v I + G_l L`` assembled cell by cell (row-major flattening)."""
    size = n * n
    matrix = np.eye(size) * g_vertical
    for row in range(n):
        for col in range(n):
            cell = row * n + col
            for r, c in ((row - 1, col), (row + 1, col),
                         (row, col - 1), (row, col + 1)):
                if 0 <= r < n and 0 <= c < n:
                    matrix[cell, cell] += g_lateral
                    matrix[cell, r * n + c] -= g_lateral
    return matrix


@st.composite
def grid_problems(draw):
    n = draw(st.integers(min_value=4, max_value=20))
    source = draw(arrays(np.float64, (n, n),
                         elements=st.floats(min_value=0.0, max_value=1.0,
                                            allow_subnormal=False)))
    # G_l / G_v up to 1e4 spans the case study's ~3e3 while keeping the
    # dense reference solve itself accurate to ~1e-11.
    g_vertical = draw(st.floats(min_value=1e-3, max_value=1.0))
    g_lateral = draw(st.floats(min_value=0.0, max_value=10.0))
    return source, g_vertical, g_lateral


@settings(max_examples=40, deadline=None)
@given(grid_problems())
def test_cosine_solve_matches_dense_solve(problem):
    source, g_vertical, g_lateral = problem
    n = source.shape[0]
    dense = np.linalg.solve(_dense_operator(n, g_vertical, g_lateral),
                            source.ravel()).reshape(n, n)
    temp = solve_grid(source, g_vertical, g_lateral)
    scale = max(float(np.abs(dense).max()), 1e-300)
    assert float(np.abs(temp - dense).max()) <= 1e-10 * scale
    # The residual applies the same operator the dense matrix assembles.
    for field in (temp, dense):
        assert relative_residual(field, source, g_vertical, g_lateral) <= 1e-10
    if source.any():
        assert relative_residual(np.zeros_like(source), source,
                                 g_vertical, g_lateral) == 1.0


@st.composite
def placed_designs(draw):
    """A die of any aspect ratio with a few powered blocks on it."""
    width = draw(st.floats(min_value=1e-3, max_value=3e-2))
    height = width * draw(st.floats(min_value=0.3, max_value=3.0))
    blocks, watts = [], {}
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        fx0, fx1 = sorted(draw(st.tuples(st.floats(0.0, 1.0),
                                         st.floats(0.0, 1.0))))
        fy0, fy1 = sorted(draw(st.tuples(st.floats(0.0, 1.0),
                                         st.floats(0.0, 1.0))))
        rect = Rect(fx0 * width, fy0 * height,
                    max(fx1 - fx0, 1e-3) * width,
                    max(fy1 - fy0, 1e-3) * height)
        name = f"block{index}"
        blocks.append(PlacedBlock(name, rect, frozenset({"si_cmos"}),
                                  BlockKind.LOGIC))
        watts[name] = draw(st.floats(min_value=1e-4, max_value=1.0))
    floorplan = Floorplan("synthetic", Rect(0.0, 0.0, width, height),
                          tuple(blocks))
    grid = draw(st.integers(min_value=4, max_value=64))
    return floorplan, PowerReport("synthetic", per_block=watts), grid


@settings(max_examples=40, deadline=None)
@given(placed_designs())
def test_energy_balance(design):
    """Every watt leaves through the vertical path: G_v * sum(T) ==
    sum(P), so the mean rise is P * R0 scaled by the die's share of the
    grid (below P * R0 when the grid overhangs a non-square die)."""
    floorplan, power, grid = design
    source, cell = power_density_grid(floorplan, power, grid)
    solved = solve_thermal_map(floorplan, power, grid=grid)
    cells_on_die = floorplan.die.area / (cell * cell)
    total = float(source.sum())
    assert vertical_conductance(cells_on_die) * float(solved.rise.sum()) \
        == pytest.approx(total, rel=1e-10)
    assert solved.average == pytest.approx(
        total * ThermalStack().r_ambient * cells_on_die / grid ** 2,
        rel=1e-10)
    assert solved.residual <= 1e-10
