"""Extraction of the analytical framework's scalar inputs from designs.

The paper instantiates Eqs. 1-8 with parameters measured from its physical
design (bandwidths, energies, area ratios).  :func:`params_from_designs`
does the same from our :class:`~repro.arch.accelerator.AcceleratorDesign`
objects, producing ready-to-use :class:`~repro.core.framework.DesignPoint`
pairs plus the gamma area ratios of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import require
from repro.tech import constants
from repro.tech.pdk import PDK, foundry_m3d_pdk
from repro.arch.accelerator import AcceleratorDesign, peripheral_leakage
from repro.core.framework import DesignPoint


@dataclass(frozen=True)
class FrameworkParams:
    """Scalar inputs to the analytical framework for a 2D/M3D design pair.

    Attributes:
        gamma_cells: A_M^cells / A_C of the 2D baseline.
        gamma_perif: A_M^perif / A_C of the 2D baseline.
        n_cs_m3d: N — parallel CSs in the M3D design.
        baseline: 2D design point (N = 1).
        m3d: M3D design point.
        cycle_time: Clock period in seconds (both designs run at the same
            target frequency, per Sec. II).
    """

    gamma_cells: float
    gamma_perif: float
    n_cs_m3d: int
    baseline: DesignPoint
    m3d: DesignPoint
    cycle_time: float

    def __post_init__(self) -> None:
        require(self.gamma_cells > 0, "gamma_cells must be positive")
        require(self.gamma_perif >= 0, "gamma_perif must be non-negative")
        require(self.cycle_time > 0, "cycle time must be positive")


def _compute_energy_per_op(design: AcceleratorDesign) -> float:
    """E_C: MAC energy plus the per-op share of input-buffer streaming."""
    pe = design.cs.array.pe
    streaming_share = (design.precision_bits / design.cs.array.cols
                       * constants.SRAM_ENERGY_PER_BIT)
    return pe.mac_energy + streaming_share


def _cs_idle_energy_per_cycle(design: AcceleratorDesign, pdk: PDK) -> float:
    """E_C^idle: one CS's static energy per clock cycle."""
    return design.cs.leakage(pdk) * design.cycle_time


def _memory_idle_energy_per_cycle(design: AcceleratorDesign, pdk: PDK) -> float:
    """E_M^idle: memory peripheral static energy per clock cycle (the RRAM
    cells themselves are non-volatile and draw no retention power)."""
    return peripheral_leakage(pdk) * design.cycle_time


def design_point(design: AcceleratorDesign, pdk: PDK | None = None) -> DesignPoint:
    """Build a framework :class:`DesignPoint` from a concrete design."""
    pdk = pdk if pdk is not None else foundry_m3d_pdk()
    return DesignPoint(
        n_cs=design.n_cs,
        peak_ops_per_cycle=design.cs.array.peak_macs_per_cycle,
        bandwidth_bits_per_cycle=design.total_weight_bandwidth,
        memory_energy_per_bit=design.bank_plan.array.cell.read_energy_per_bit,
        compute_energy_per_op=_compute_energy_per_op(design),
        cs_idle_energy_per_cycle=_cs_idle_energy_per_cycle(design, pdk),
        memory_idle_energy_per_cycle=_memory_idle_energy_per_cycle(design, pdk),
    )


def params_from_designs(
    baseline: AcceleratorDesign,
    m3d: AcceleratorDesign,
    pdk: PDK | None = None,
) -> FrameworkParams:
    """Extract framework parameters from a 2D/M3D design pair.

    Validates the paper's comparison constraints: iso-on-chip-memory
    capacity and iso-footprint (to within floorplan rounding).
    """
    pdk = pdk if pdk is not None else foundry_m3d_pdk()
    require(baseline.rram_capacity_bits == m3d.rram_capacity_bits,
            "designs must be iso-on-chip-memory-capacity")
    require(m3d.area.footprint <= baseline.area.footprint * 1.001,
            "M3D design must be iso-footprint with the 2D baseline")
    return FrameworkParams(
        gamma_cells=baseline.area.gamma_cells,
        gamma_perif=baseline.area.gamma_perif,
        n_cs_m3d=m3d.n_cs,
        baseline=design_point(baseline, pdk),
        m3d=design_point(m3d, pdk),
        cycle_time=baseline.cycle_time,
    )
