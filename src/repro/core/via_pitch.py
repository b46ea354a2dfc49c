"""Case 2 (Sec. III-E): M3D inter-layer-via pitch.

Every M3D memory cell needs ``m`` ILVs to reach its access FET in the upper
tier, so when the via pitch beta grows, the cell becomes via-pitch limited:
A_cells = m * k * beta^2 (k bits, m vias per bit).  The area consequence is
the same as a width relaxation of delta_eff = A_cell(beta) / A_cell(2D);
the resolver scales the PDK's ILV by ``tech.beta`` and the ``obs8``
experiment evaluates that knob like any other design point.

Obs. 8: up to ~1.3x pitch the cell stays FET-limited and benefits are
unchanged; at ~1.6x and beyond the quadratic growth (delta_eff ~ 2.5)
erases the benefit — ultra-dense vias are load-bearing for M3D
architectural benefits.
"""

from __future__ import annotations

from repro.errors import require
from repro.tech.pdk import PDK
from repro.spec.resolve import scaled_pdk


def effective_cell_growth(pdk: PDK, beta: float) -> float:
    """delta_eff: M3D cell area at pitch beta over the 2D cell area."""
    require(beta > 0, "beta must be positive")
    scaled = scaled_pdk(pdk, beta)
    cell_m3d = scaled.m3d_rram_cell().area(scaled.ilv)
    cell_2d = pdk.rram_cell.area(None)
    return cell_m3d / cell_2d
