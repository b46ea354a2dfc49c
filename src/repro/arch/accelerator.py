"""Whole-chip accelerator designs: the 2D baseline and the M3D design.

This module owns the paper's central geometric argument (Figs. 1, 2, 6):

* In the **2D baseline**, the RRAM access transistors occupy the Si tier
  under the cell arrays, so the single computing sub-system (CS) must sit
  *next to* the arrays.
* In the **M3D design**, the access transistors move to the BEOL CNFET tier;
  the Si area under the arrays — minus blockages for the memory peripherals,
  which stay in silicon — becomes available, and at iso-footprint it hosts

      N = 1 + floor((A_cells - A_perif) / A_CS)

  parallel CSs (the paper's Eq. 2, refined by the peripheral blockage the
  paper describes in Sec. II).  With the case-study numbers this yields
  N = 8, reproducing Fig. 2c-d.

The RRAM capacity is re-partitioned into N banks so each CS gets a private
weight channel (8x total bandwidth at 64 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.errors import require
from repro.tech import constants
from repro.tech.pdk import PDK
from repro.tech.rram import RRAMArray, RRAMBankPlan
from repro.arch.pe import PEConfig
from repro.arch.systolic import SystolicArrayConfig, default_systolic_array
from repro.units import MEGABYTE, MHZ

#: Gate-equivalents of the memory peripherals (sense amplifiers, write
#: drivers, bank controllers, channel interfaces).  Dominated by the
#: controllers and channel logic, so first-order independent of capacity.
PERIPHERAL_GATES = 1.69e6

#: Silicon set aside for the system bus, host interface, I/O ring, clock and
#: power distribution (and floorplan whitespace) in both designs, m^2.
SYSTEM_BUS_IO_AREA = 93.0e-6

#: Default per-bank RRAM read-channel width, bits per cycle (B_2D).
DEFAULT_BANK_WIDTH_BITS = 256

#: Default shared output-writeback bus width, bits per cycle.
DEFAULT_WRITEBACK_BUS_BITS = 128

#: Lanes of the post-processing vector unit in each CS (pooling, activation).
DEFAULT_POOL_LANES = 16

#: Physical-design target frequency for both designs (Sec. II relaxes the
#: 40 nm-optimized architecture to 20 MHz at the 130 nm node).
DEFAULT_FREQUENCY_HZ = 20 * MHZ


@dataclass(frozen=True)
class ComputingSubsystem:
    """One computing sub-system: systolic array + SRAM buffers + control.

    Attributes:
        array: The weight-stationary systolic array.
        input_buffer_bits: Input-activation SRAM buffer capacity, bits.
        output_buffer_bits: Output-activation SRAM buffer capacity, bits.
        control_gates: Control/sequencing logic in gate-equivalents.
    """

    array: SystolicArrayConfig
    input_buffer_bits: int
    output_buffer_bits: int
    control_gates: int

    def __post_init__(self) -> None:
        require(self.input_buffer_bits >= 0, "input buffer must be non-negative")
        require(self.output_buffer_bits >= 0, "output buffer must be non-negative")
        require(self.control_gates >= 0, "control gates must be non-negative")

    @property
    def buffer_bits(self) -> int:
        """Total SRAM buffer capacity, bits."""
        return self.input_buffer_bits + self.output_buffer_bits

    @property
    def logic_gates(self) -> float:
        """Gate-equivalents of array + control logic."""
        return self.array.pe_count * self.array.pe.gate_count + self.control_gates

    def silicon_area(self, pdk: PDK) -> float:
        """CS footprint in the Si tier, m^2 (the paper's A_C)."""
        logic = pdk.silicon_library.area_for_gates(self.logic_gates)
        buffers = pdk.sram_macro_area(self.buffer_bits)
        return logic + buffers

    def leakage(self, pdk: PDK) -> float:
        """Static power of one CS in watts."""
        logic = pdk.silicon_library.leakage_for_gates(self.logic_gates)
        buffers = self.buffer_bits * constants.SRAM_LEAKAGE_PER_BIT
        return logic + buffers


def case_study_cs() -> ComputingSubsystem:
    """The Sec. II case-study CS: 16x16 array, 1.4 MB of I/O buffers."""
    return ComputingSubsystem(
        array=default_systolic_array(),
        input_buffer_bits=int(0.7 * MEGABYTE),
        output_buffer_bits=int(0.7 * MEGABYTE),
        control_gates=140_000,
    )


def precision_scaled_cs(precision_bits: int) -> ComputingSubsystem:
    """The case-study CS with its registers rebuilt around a precision.

    Same 16x16 array geometry, I/O buffers and control logic as
    :func:`case_study_cs`, but the PE weight/input registers carry
    ``precision_bits`` and the accumulator widens to ``max(16, 3 * bits)``
    (the ext-precision study's configuration).
    """
    require(precision_bits >= 1, "precision must be at least one bit")
    pe = PEConfig(precision_bits=precision_bits,
                  weight_reg_bits=precision_bits,
                  input_reg_bits=precision_bits,
                  output_reg_bits=max(16, 3 * precision_bits))
    return ComputingSubsystem(
        array=SystolicArrayConfig(rows=16, cols=16, pe=pe),
        input_buffer_bits=int(0.7 * MEGABYTE),
        output_buffer_bits=int(0.7 * MEGABYTE),
        control_gates=140_000,
    )


def peripheral_area(pdk: PDK) -> float:
    """Footprint of the memory peripherals in the Si tier, m^2."""
    return pdk.silicon_library.area_for_gates(PERIPHERAL_GATES)


def peripheral_leakage(pdk: PDK) -> float:
    """Static power of the memory peripherals in watts.

    RRAM cells are non-volatile and contribute no retention power; the
    CNFET access-FET tier leaks only marginally (off-state), folded into
    this term.
    """
    library = pdk.silicon_library
    return library.leakage_for_gates(
        peripheral_area(pdk) / library.gate_equivalent.area)


@dataclass(frozen=True)
class AreaBreakdown:
    """Si-tier area accounting for one design (the paper's Fig. 6 symbols).

    Attributes:
        cells: RRAM cell-array footprint A_M^cells, m^2.
        peripherals: Memory peripheral footprint A_M^perif, m^2.
        compute: Total CS footprint N * A_C, m^2.
        cs_unit: Single-CS footprint A_C, m^2.
        bus_io: System bus / IO / whitespace, m^2.
        footprint: Chip footprint, m^2.
        cells_overlap_compute: True for M3D, where the cell arrays sit above
            the Si tier instead of consuming it.
    """

    cells: float
    peripherals: float
    compute: float
    cs_unit: float
    bus_io: float
    footprint: float
    cells_overlap_compute: bool

    @property
    def gamma_cells(self) -> float:
        """The paper's gamma_cells = A_M^cells / A_C."""
        return self.cells / self.cs_unit

    @property
    def gamma_perif(self) -> float:
        """The paper's gamma_perif = A_M^perif / A_C."""
        return self.peripherals / self.cs_unit

    @property
    def si_tier_used(self) -> float:
        """Area consumed in the Si tier, m^2."""
        used = self.peripherals + self.compute + self.bus_io
        if not self.cells_overlap_compute:
            used += self.cells
        return used


def reoptimized_2d_cs_count(
    grown_footprint: float,
    original_footprint: float,
    cs_area: float,
) -> int:
    """Eq. 9: CSs a commensurately enlarged 2D baseline can host.

    When a Case 1/2 knob grows the M3D footprint past the 2D baseline's,
    fairness demands the baseline get the same extra silicon; it fills it
    with additional CSs sharing its single weight channel.
    """
    require(cs_area > 0, "CS area must be positive")
    extra = grown_footprint - original_footprint
    if extra <= 0:
        return 1
    return 1 + math.floor(extra / cs_area)


def derive_parallel_cs_count(
    cells_area: float,
    peripherals_area: float,
    cs_area: float,
    extra_si_area: float = 0.0,
) -> int:
    """Parallel CS count of an iso-footprint M3D design (Eq. 2, refined).

    Moving the access FETs to the CNFET tier frees the Si under the cell
    arrays; the memory peripherals remain as blockages.  ``extra_si_area``
    adds Si gained when the footprint itself grows (Cases 1-2).
    """
    require(cells_area >= 0, "cells area must be non-negative")
    require(peripherals_area >= 0, "peripherals area must be non-negative")
    require(cs_area > 0, "CS area must be positive")
    freed = cells_area - peripherals_area + extra_si_area
    return 1 + max(0, math.floor(freed / cs_area))


class TechCSStage(NamedTuple):
    """What one (tech-adjusted PDK, CS preset, delta) fixes for a design pair.

    The first stage of design construction: everything the CS-count stage
    (:func:`design_counts`) and the row stage
    (:func:`repro.perf.simulator.design_row`) read that capacity, tier
    pairs and the baseline policy cannot change.

    Attributes:
        pdk: The tech-adjusted PDK.
        cs: The CS preset.
        cell_area_2d: 2D bit-cell area, m^2.
        cell_area_m3d: M3D bit-cell area at delta, m^2.
        cs_area: Single-CS silicon area A_C, m^2.
        cs_leakage: Single-CS static power, W.
        peripheral: Memory-peripheral silicon area, m^2.
        peripheral_leakage: Memory-peripheral static power, W.
    """

    pdk: PDK
    cs: ComputingSubsystem
    cell_area_2d: float
    cell_area_m3d: float
    cs_area: float
    cs_leakage: float
    peripheral: float
    peripheral_leakage: float


def tech_cs_stage(pdk: PDK, cs: ComputingSubsystem,
                  access_width_factor: float) -> TechCSStage:
    """The tech x CS stage of ``cs`` on ``pdk`` at delta
    ``access_width_factor``."""
    return TechCSStage(
        pdk=pdk,
        cs=cs,
        cell_area_2d=pdk.rram_cell.area(None),
        cell_area_m3d=pdk.m3d_rram_cell(access_width_factor).area(pdk.ilv),
        cs_area=cs.silicon_area(pdk),
        cs_leakage=cs.leakage(pdk),
        peripheral=peripheral_area(pdk),
        peripheral_leakage=peripheral_leakage(pdk),
    )


class DesignCounts(NamedTuple):
    """CS counts and footprints of one 2D baseline / M3D design pair.

    Attributes:
        n_2d: CS count of the 2D baseline.
        n_m3d: CS count of the M3D design.
        footprint_2d: Footprint of the 2D baseline, m^2.
        footprint_m3d: Footprint of the M3D design, m^2 — the original
            2D footprint, grown when the M3D cell arrays outgrow it.
    """

    n_2d: int
    n_m3d: int
    footprint_2d: float
    footprint_m3d: float


def design_counts(
    stage: TechCSStage,
    capacity_bits: int,
    tier_pairs: int = 1,
    n_cs: int | None = None,
    baseline: str = "iso",
) -> DesignCounts:
    """Eqs. 2 and 9: the CS counts and footprints of a design pair.

    The M3D design hosts Eq. 2's CS count (refined by the peripheral
    blockage) times ``tier_pairs``, unless ``n_cs`` pins it.  Under the
    ``reoptimized`` baseline policy the 2D baseline grows to the M3D
    footprint and refills the extra silicon per Eq. 9; under ``iso`` it
    keeps its single CS and original footprint.
    """
    cells_2d = capacity_bits * stage.cell_area_2d
    original = _footprint_2d(cells_2d, stage.peripheral, stage.cs_area)
    grown = max(original, capacity_bits * stage.cell_area_m3d)
    if n_cs is None:
        # The freed area is computed from the *2D* cell geometry: that is
        # the silicon the access FETs vacate (a relaxed M3D cell is larger,
        # but only in the BEOL tiers).
        n_cs = derive_parallel_cs_count(
            cells_2d, stage.peripheral, stage.cs_area, grown - original,
        ) * tier_pairs
    if baseline == "reoptimized":
        n_2d = reoptimized_2d_cs_count(grown, original, stage.cs_area)
        return DesignCounts(n_2d, n_cs, grown, grown)
    return DesignCounts(1, n_cs, original, grown)


def _footprint_2d(cells_area: float, peripherals_area: float,
                  compute_area: float) -> float:
    """2D footprint: cell arrays, peripherals and CSs side by side in Si."""
    return cells_area + peripherals_area + compute_area + SYSTEM_BUS_IO_AREA


@dataclass(frozen=True)
class AcceleratorDesign:
    """A complete accelerator chip design point.

    Attributes:
        name: Design name.
        cs: The computing sub-system replicated ``n_cs`` times.
        n_cs: Parallel CS count (1 for the 2D baseline).
        bank_plan: RRAM capacity partitioning into weight channels.
        writeback_bus_bits: Shared output-writeback bus width, bits/cycle.
        pool_lanes: Post-processing vector lanes per CS.
        frequency_hz: Operating frequency.
        area: Si-tier area breakdown.
        is_m3d: True when access FETs are in the BEOL CNFET tier.
        precision_bits: Operand precision.
    """

    name: str
    cs: ComputingSubsystem
    n_cs: int
    bank_plan: RRAMBankPlan
    writeback_bus_bits: int
    pool_lanes: int
    frequency_hz: float
    area: AreaBreakdown
    is_m3d: bool
    precision_bits: int = 8

    def __post_init__(self) -> None:
        require(self.n_cs >= 1, "need at least one CS")
        require(self.writeback_bus_bits >= self.precision_bits,
                "writeback bus must carry at least one value per cycle")
        require(self.pool_lanes >= 1, "pool lanes must be >= 1")
        require(self.frequency_hz > 0, "frequency must be positive")

    @property
    def rram_capacity_bits(self) -> int:
        """On-chip RRAM capacity, bits."""
        return self.bank_plan.array.capacity_bits

    @property
    def peak_macs_per_cycle(self) -> int:
        """Chip-level P_peak across all CSs."""
        return self.n_cs * self.cs.array.peak_macs_per_cycle

    @property
    def bank_width_bits(self) -> int:
        """Per-bank weight-channel width, bits/cycle."""
        return self.bank_plan.bank_width_bits

    @property
    def total_weight_bandwidth(self) -> int:
        """Aggregate weight-read bandwidth, bits/cycle (B_2D or B_3D)."""
        return self.bank_plan.total_bandwidth_bits_per_cycle

    @property
    def cycle_time(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.frequency_hz

    def with_n_cs(self, n_cs: int) -> "AcceleratorDesign":
        """Return a copy with a different CS count (banks follow CS count for
        M3D designs; the 2D baseline keeps its single channel)."""
        require(n_cs >= 1, "need at least one CS")
        banks = n_cs if self.is_m3d else self.bank_plan.banks
        compute = n_cs * self.area.cs_unit
        return replace(
            self,
            n_cs=n_cs,
            bank_plan=self.bank_plan.rebanked(banks),
            area=replace(self.area, compute=compute),
        )


def _design(
    pdk: PDK,
    cs: ComputingSubsystem,
    array: RRAMArray,
    n_cs: int,
    frequency_hz: float,
    footprint: float | None,
    is_m3d: bool,
) -> AcceleratorDesign:
    """A design over ``array``: M3D designs give each CS its own bank; the
    2D baseline keeps one channel and, by default, the Si footprint of
    cells, peripherals and CSs side by side."""
    cs_area = cs.silicon_area(pdk)
    perif = peripheral_area(pdk)
    if footprint is None:
        footprint = _footprint_2d(array.area, perif, n_cs * cs_area)
    return AcceleratorDesign(
        name=f"m3d_{n_cs}cs" if is_m3d else f"2d_baseline_{n_cs}cs",
        cs=cs,
        n_cs=n_cs,
        bank_plan=RRAMBankPlan(array=array, banks=n_cs if is_m3d else 1,
                               bank_width_bits=DEFAULT_BANK_WIDTH_BITS),
        writeback_bus_bits=DEFAULT_WRITEBACK_BUS_BITS,
        pool_lanes=DEFAULT_POOL_LANES,
        frequency_hz=frequency_hz,
        area=AreaBreakdown(
            cells=array.area,
            peripherals=perif,
            compute=n_cs * cs_area,
            cs_unit=cs_area,
            bus_io=SYSTEM_BUS_IO_AREA,
            footprint=footprint,
            cells_overlap_compute=is_m3d,
        ),
        is_m3d=is_m3d,
    )


def baseline_2d_design(
    pdk: PDK,
    capacity_bits: int = 64 * MEGABYTE,
    cs: ComputingSubsystem | None = None,
    n_cs: int = 1,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    footprint: float | None = None,
) -> AcceleratorDesign:
    """The Sec. II baseline: Si CMOS + on-chip RRAM, one CS, one channel.

    ``n_cs`` and ``footprint`` support the Case 1/2 re-optimized (enlarged)
    2D baselines; the default reproduces Fig. 2a-b.
    """
    cs = cs if cs is not None else case_study_cs()
    # The 2D bit-cell's access FET sits directly below the RRAM; it needs
    # only local contacts, not inter-layer vias, so its footprint is
    # independent of the ILV pitch (Case 2 sweeps leave the baseline alone).
    array = RRAMArray(cell=pdk.rram_cell, capacity_bits=capacity_bits, ilv=None)
    return _design(pdk, cs, array, n_cs, frequency_hz, footprint,
                   is_m3d=False)


def m3d_design(
    pdk: PDK,
    capacity_bits: int = 64 * MEGABYTE,
    cs: ComputingSubsystem | None = None,
    access_width_factor: float = 1.0,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    n_cs: int | None = None,
    footprint: float | None = None,
) -> AcceleratorDesign:
    """The iso-footprint, iso-capacity M3D design (Fig. 2c-d).

    The CS count and footprint default to :func:`design_counts`: Eq. 2
    refined by the peripheral blockage, plus any Si gained when a relaxed
    access FET (``access_width_factor`` > 1, Case 1) or a coarse ILV pitch
    (via the PDK, Case 2) grows the footprint beyond the 2D baseline's.
    """
    cs = cs if cs is not None else case_study_cs()
    if n_cs is None or footprint is None:
        counts = design_counts(
            tech_cs_stage(pdk, cs, access_width_factor), capacity_bits)
        n_cs = counts.n_m3d if n_cs is None else n_cs
        footprint = counts.footprint_m3d if footprint is None else footprint
    array = RRAMArray(cell=pdk.m3d_rram_cell(access_width_factor),
                      capacity_bits=capacity_bits, ilv=pdk.ilv)
    return _design(pdk, cs, array, n_cs, frequency_hz, footprint,
                   is_m3d=True)
