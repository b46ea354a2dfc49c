"""Coarse 2D steady-state thermal map of a placed design.

Extends the paper's Obs. 2 from a scalar peak-power-density check to a
spatial one: the placed blocks' power densities drive a grid model with a
vertical (through-package) conductance to ambient per cell and lateral
(in-silicon) spreading between neighbours:

    G_v * T[i,j] + sum_nbr G_l * (T[i,j] - T[nbr]) = P[i,j]

i.e. ``(G_v I + G_l L) T = P`` with ``L`` the grid Laplacian under
insulated (Neumann) die edges.  ``L = L1 (x) I + I (x) L1`` is separable,
and the orthonormal DCT-II basis ``V`` diagonalises the 1-D path
Laplacian ``L1`` with eigenvalues ``lambda_k = 2 - 2 cos(pi k / n)``, so
the solve is exact to rounding in a few small matmuls:

    T = V [(V^T P V) / (G_v + G_l (lambda_i + lambda_j))] V^T

Because the model is linear with a uniform vertical path, the field obeys
an energy balance: ``G_v * sum(T) == sum(P)``.  For the case study the
converged M3D hotspot is ~3x the 2D one at ~4x the average power — the
heat is spread, not peaked — and stays far below 0.1 K (Obs. 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.thermal import ThermalStack, vertical_conductance
from repro.errors import require
from repro.physical.floorplan import Floorplan
from repro.physical.power import PowerReport

#: Grid resolution (cells per die edge).
GRID = 64

#: Lateral spreading conductance between neighbouring cells, W/K.
#: Silicon spreads heat well; a few W/K per ~0.3 mm cell is representative.
LATERAL_CONDUCTANCE = 2.0


@dataclass(frozen=True)
class ThermalMap:
    """Solved temperature field for one design.

    Attributes:
        design_name: Design identifier.
        rise: Temperature-rise grid (K above ambient), shape (GRID, GRID).
        cell_size: Grid cell edge, metres.
        residual: Relative max-norm residual of the solve,
            ``max|(G_v I + G_l L) T - P| / max|P|``.
    """

    design_name: str
    rise: np.ndarray
    cell_size: float
    residual: float

    @property
    def hotspot(self) -> float:
        """Peak temperature rise, K."""
        return float(self.rise.max())

    @property
    def average(self) -> float:
        """Mean temperature rise, K."""
        return float(self.rise.mean())

    @property
    def hotspot_location(self) -> tuple[float, float]:
        """(x, y) of the hottest cell centre, metres."""
        index = int(self.rise.argmax())
        row, col = divmod(index, self.rise.shape[1])
        return ((col + 0.5) * self.cell_size, (row + 0.5) * self.cell_size)

    def rise_at(self, x: float, y: float) -> float:
        """Temperature rise at a die coordinate, K."""
        col = min(self.rise.shape[1] - 1, max(0, int(x / self.cell_size)))
        row = min(self.rise.shape[0] - 1, max(0, int(y / self.cell_size)))
        return float(self.rise[row, col])


def power_density_grid(floorplan: Floorplan, power: PowerReport,
                       grid: int = GRID) -> tuple[np.ndarray, float]:
    """Rasterize per-block power onto a grid; returns (P per cell, cell size).

    Upper-tier (M3D) block power lands on the same (x, y) cells as the
    silicon below it — heat has to come down through the stack.
    """
    require(grid >= 4, "grid must be at least 4x4")
    die = floorplan.die
    cell = max(die.width, die.height) / grid
    field = np.zeros((grid, grid))
    for placed in floorplan.placements:
        watts = power.per_block.get(placed.name, 0.0)
        if watts <= 0:
            continue
        rect = placed.rect
        col0 = int(rect.x / cell)
        col1 = max(col0 + 1, math.ceil((rect.x + rect.width) / cell))
        row0 = int(rect.y / cell)
        row1 = max(row0 + 1, math.ceil((rect.y + rect.height) / cell))
        col1 = min(col1, grid)
        row1 = min(row1, grid)
        cells = max(1, (row1 - row0) * (col1 - col0))
        field[row0:row1, col0:col1] += watts / cells
    return field, cell


@lru_cache(maxsize=8)
def cosine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II basis ``V`` and eigenvalues of the Neumann ``L1``.

    ``V[:, k]`` is the k-th eigenvector of the n-point path Laplacian
    with insulated ends; ``L1 @ V == V * lam``.  Cached per size, so each
    process builds a grid's basis once; the arrays are read-only because
    every caller shares them.
    """
    k = np.arange(n)
    basis = np.cos(np.pi * np.outer(k + 0.5, k) / n)
    basis[:, 0] *= np.sqrt(1.0 / n)
    basis[:, 1:] *= np.sqrt(2.0 / n)
    eigenvalues = 2.0 - 2.0 * np.cos(np.pi * k / n)
    basis.flags.writeable = False
    eigenvalues.flags.writeable = False
    return basis, eigenvalues


def solve_grid(source: np.ndarray, g_vertical: float,
               g_lateral: float) -> np.ndarray:
    """Exact solve of ``(G_v I + G_l L) T = P`` on a square grid."""
    require(source.ndim == 2 and source.shape[0] == source.shape[1],
            "source must be a square grid")
    require(g_vertical > 0, "vertical conductance must be positive")
    require(g_lateral >= 0, "lateral conductance must be non-negative")
    basis, eigenvalues = cosine_basis(source.shape[0])
    spectrum = basis.T @ source @ basis
    spectrum /= g_vertical + g_lateral * (eigenvalues[:, None]
                                          + eigenvalues[None, :])
    return basis @ spectrum @ basis.T


def relative_residual(temp: np.ndarray, source: np.ndarray,
                      g_vertical: float, g_lateral: float) -> float:
    """``max|(G_v I + G_l L) T - P| / max|P|`` (0 for a source-free grid).

    Applies the operator cell by cell, independently of the basis, so it
    checks the solve rather than restating it.
    """
    lateral = np.zeros_like(temp)
    rows = temp[1:, :] - temp[:-1, :]
    cols = temp[:, 1:] - temp[:, :-1]
    lateral[:-1, :] -= rows
    lateral[1:, :] += rows
    lateral[:, :-1] -= cols
    lateral[:, 1:] += cols
    error = float(np.abs(g_vertical * temp + g_lateral * lateral
                         - source).max())
    scale = float(np.abs(source).max())
    return error / scale if scale > 0 else error


def solve_thermal_map(
    floorplan: Floorplan,
    power: PowerReport,
    grid: int = GRID,
    stack: ThermalStack | None = None,
) -> ThermalMap:
    """Solve the steady-state grid model exactly in the cosine basis."""
    source, cell = power_density_grid(floorplan, power, grid)
    # Vertical conductance per cell from the stack's K/W resistance,
    # apportioned by cell area share of the die (shared definition in
    # repro.core.thermal, so the scalar Eq. 17 check cannot diverge).
    cells_on_die = floorplan.die.area / (cell * cell)
    g_vertical = vertical_conductance(cells_on_die, stack)
    temp = solve_grid(source, g_vertical, LATERAL_CONDUCTANCE)
    return ThermalMap(
        design_name=floorplan.name, rise=temp, cell_size=cell,
        residual=relative_residual(temp, source, g_vertical,
                                   LATERAL_CONDUCTANCE))
