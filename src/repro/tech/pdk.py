"""The bundled process design kit (PDK).

:class:`PDK` collects everything the architecture, analytical, and physical
design layers consume: the node, the tier stack, the two cell libraries, the
RRAM bit-cell, the ILV model, and the SRAM macro density.  The factory
:func:`foundry_m3d_pdk` produces, once per argument set, our stand-in for
the foundry 130 nm M3D PDK of [5] (see DESIGN.md for the substitution
rationale).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

from repro.errors import require
from repro.tech import constants
from repro.tech.devices import FETModel, beol_cnfet, silicon_nmos
from repro.tech.ilv import ILVModel, default_ilv
from repro.tech.node import NODE_130NM, TechnologyNode
from repro.tech.rram import RRAMCell, default_rram_cell
from repro.tech.stackup import LayerStack, baseline_2d_stackup, m3d_stackup
from repro.tech.stdcells import CellLibrary, cnfet_cell_library, silicon_cell_library


@dataclass(frozen=True)
class PDK:
    """A process design kit for the M3D flow.

    Attributes:
        name: Kit name.
        node: Technology node.
        stack: Tier stack-up for M3D designs.
        stack_2d: Tier stack-up for the restricted 2D baseline.
        silicon_library: FEOL Si CMOS standard cells.
        cnfet_library: BEOL CNFET standard cells.
        rram_cell: The 1T1R bit-cell (Si access FET, 2D baseline geometry).
        ilv: Inter-layer via model.
        sram_bitcell_area: 6T SRAM bit-cell area in m^2 (for buffer macros).
        sram_energy_per_bit: SRAM access energy, J/bit.
        si_access_fet: The 2D baseline's RRAM access device.
        cnfet_access_fet: The M3D design's RRAM access device.
    """

    name: str
    node: TechnologyNode
    stack: LayerStack
    stack_2d: LayerStack
    silicon_library: CellLibrary
    cnfet_library: CellLibrary
    rram_cell: RRAMCell
    ilv: ILVModel
    sram_bitcell_area: float
    sram_energy_per_bit: float
    si_access_fet: FETModel
    cnfet_access_fet: FETModel

    def __post_init__(self) -> None:
        require(self.sram_bitcell_area > 0, "SRAM bit-cell area must be positive")
        require(self.sram_energy_per_bit >= 0, "SRAM energy must be non-negative")

    @property
    def rram_bitcell_area(self) -> float:
        """2D-baseline 1T1R footprint in m^2 (Si access FET, fine-pitch ILV)."""
        return self.rram_cell.area(self.ilv)

    def m3d_rram_cell(self, width_relaxation: float = 1.0) -> RRAMCell:
        """The M3D bit-cell: CNFET access FET relaxed by ``width_relaxation``.

        ``width_relaxation`` is the paper's delta applied *on top of* the 2D
        cell geometry: delta = 1 reproduces the iso-footprint case study
        (same cell footprint, access FET moved to the CNFET tier); delta > 1
        models weaker BEOL devices needing wider channels (Case 1).
        """
        require(width_relaxation >= 1.0, "width relaxation (delta) must be >= 1")
        return self.rram_cell.with_access_width_factor(width_relaxation)

    def with_ilv_pitch_factor(self, beta: float) -> "PDK":
        """Return a PDK whose ILV pitch is scaled by ``beta`` (Case 2)."""
        return replace(self, ilv=self.ilv.scaled(beta))

    def with_memory_cell(self, cell: RRAMCell) -> "PDK":
        """Return a PDK whose on-chip memory uses ``cell`` instead of the
        foundry RRAM (e.g. an MRAM or FeFET preset from
        :mod:`repro.tech.memories`)."""
        return replace(self, rram_cell=cell)

    def sram_macro_area(self, capacity_bits: float, overhead: float = 0.3) -> float:
        """Footprint of an SRAM buffer macro of ``capacity_bits`` bits.

        ``overhead`` adds decoder/sense/column periphery on top of the
        bit-cell array, a standard macro-compiler overhead fraction.
        """
        require(capacity_bits >= 0, "capacity must be non-negative")
        require(overhead >= 0, "overhead must be non-negative")
        return capacity_bits * self.sram_bitcell_area * (1.0 + overhead)


@cache
def foundry_m3d_pdk(
    node: TechnologyNode = NODE_130NM,
    cnfet_relative_drive: float = constants.CNFET_RELATIVE_DRIVE,
) -> PDK:
    """The stand-in for the foundry 130 nm M3D PDK of [5].

    Built once per argument set: every ``pdk=None`` default shares one
    object, so identity-keyed sharing (the key encoder's text cache, the
    tech x CS stage memo, worker invariant shipping) holds across calls.
    The PDK is frozen, and value objects are never mutated in place.
    """
    return PDK(
        name=f"foundry_m3d_{node.name}",
        node=node,
        stack=m3d_stackup(),
        stack_2d=baseline_2d_stackup(),
        silicon_library=silicon_cell_library(node),
        cnfet_library=cnfet_cell_library(node, cnfet_relative_drive),
        rram_cell=default_rram_cell(node),
        ilv=default_ilv(),
        sram_bitcell_area=constants.SRAM_BITCELL_AREA_130NM,
        sram_energy_per_bit=constants.SRAM_ENERGY_PER_BIT,
        si_access_fet=silicon_nmos(node),
        cnfet_access_fet=beol_cnfet(node, relative_drive=cnfet_relative_drive),
    )
