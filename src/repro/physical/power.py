"""Per-tier power analysis (the paper's Tempus step, Obs. 2).

Power is attributed per placed block and per device tier:

* CS logic — MAC array switching at its compute duty plus control logic;
* SRAM buffers — streaming reads/writes at the array's operand rates;
* memory peripherals — the peripheral share of each weight-channel read;
* RRAM macro — the in-array share of read energy; in M3D a further slice
  of that share sits in the CNFET access-FET tier;
* bus/IO — writeback transfers across the die;
* leakage — every Si block's static power.

The two headline quantities of Obs. 2 fall out of the attribution:
``upper_tier_fraction`` (paper: <1%) and the peak-power-density ratio
between M3D and 2D (paper: +1%), computed by stacking the upper-tier power
density onto the Si blocks that sit underneath the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import require
from repro.tech import constants
from repro.tech.pdk import PDK
from repro.arch.accelerator import AcceleratorDesign
from repro.physical.floorplan import Floorplan, overlapping_pairs
from repro.physical.netlist import BlockKind, Netlist

#: Share of the RRAM read energy dissipated inside the cell array
#: (bit-line/word-line charging and the access device); the rest burns in
#: the sense amplifiers, drivers and decoders of the Si-tier peripherals.
RRAM_CELL_ENERGY_FRACTION = 0.15

#: Of the in-array share, the slice dissipated in the access FET itself —
#: the part that moves to the CNFET tier in M3D designs.
ACCESS_FET_ENERGY_FRACTION = 0.6

#: Physical footprint of one weight channel's sense-amplifier strip, m^2.
#: A channel is the same 256-bit strip in both designs, so its power
#: concentrates over the same area whether the periphery serves one bank
#: (2D) or eight (M3D).
CHANNEL_STRIP_AREA = 0.5e-6


@dataclass(frozen=True)
class ActivityFactors:
    """Duty factors for the power model (Tempus-style default activities).

    Attributes:
        cs_compute: Fraction of cycles each CS computes at full rate.
        weight_channel: Fraction of cycles each weight channel streams.
        writeback_bus: Fraction of cycles the shared bus transfers.
    """

    cs_compute: float = 0.85
    weight_channel: float = 0.05
    writeback_bus: float = 0.10

    def __post_init__(self) -> None:
        for name in ("cs_compute", "weight_channel", "writeback_bus"):
            value = getattr(self, name)
            require(0.0 <= value <= 1.0, f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class PowerReport:
    """Power outcome for one design.

    Attributes:
        design_name: Design identifier.
        per_block: Power per placed block, watts.
        per_tier: Power per device tier, watts.
        block_density: Power density per Si block (upper-tier power of
            overlapping arrays stacked in), W/m^2.
    """

    design_name: str
    per_block: dict[str, float] = field(default_factory=dict)
    per_tier: dict[str, float] = field(default_factory=dict)
    block_density: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Total chip power, watts."""
        return sum(self.per_tier.values())

    @property
    def upper_tier_power(self) -> float:
        """Power in the BEOL tiers (RRAM + CNFET), watts."""
        return self.per_tier.get("rram", 0.0) + self.per_tier.get("cnfet", 0.0)

    @property
    def upper_tier_fraction(self) -> float:
        """Fraction of chip power in the upper tiers (Obs. 2: <1%)."""
        return self.upper_tier_power / self.total

    @property
    def peak_power_density(self) -> float:
        """Highest block power density on the chip, W/m^2."""
        return max(self.block_density.values())


def analyze_power(
    floorplan: Floorplan,
    netlist: Netlist,
    design: AcceleratorDesign,
    pdk: PDK,
    activity: ActivityFactors | None = None,
    frequency_hz: float | None = None,
) -> PowerReport:
    """Run the per-tier power model on a placed design.

    ``frequency_hz`` overrides the design's architected clock (the flow
    spec's target-frequency knob); ``None`` keeps ``design.frequency_hz``.
    """
    activity = activity if activity is not None else ActivityFactors()
    freq = design.frequency_hz if frequency_hz is None else frequency_hz
    precision = design.precision_bits
    lib = pdk.silicon_library

    per_block: dict[str, float] = {}
    per_tier: dict[str, float] = {"si_cmos": 0.0, "rram": 0.0, "cnfet": 0.0}
    channel_dynamic: dict[str, float] = {}

    read_energy_per_bit = constants.RRAM_READ_ENERGY_PER_BIT
    cell_share = read_energy_per_bit * RRAM_CELL_ENERGY_FRACTION
    perif_share = read_energy_per_bit - cell_share
    channel_rate = design.bank_width_bits * freq * activity.weight_channel

    for block in netlist.blocks.values():
        if block.kind == BlockKind.LOGIC and block.name.startswith("cs"):
            array = design.cs.array
            compute = (array.peak_macs_per_cycle * array.pe.mac_energy
                       * freq * activity.cs_compute)
            control = lib.energy_for_gates(design.cs.control_gates) * freq
            leak = lib.leakage_for_gates(block.gate_count)
            power = compute + control + leak
        elif block.kind == BlockKind.SRAM_MACRO:
            stream_bits = design.cs.array.rows * precision
            dynamic = (stream_bits * constants.SRAM_ENERGY_PER_BIT * freq
                       * activity.cs_compute)
            leak = block.bits * constants.SRAM_LEAKAGE_PER_BIT
            power = dynamic + leak
        elif block.name.startswith("perif"):
            dynamic = channel_rate * perif_share
            channel_dynamic[block.name] = dynamic
            leak = lib.leakage_for_gates(block.gate_count)
            power = dynamic + lib.energy_for_gates(block.gate_count) * freq + leak
        elif block.kind == BlockKind.RRAM_MACRO:
            power = per_block[block.name] = channel_rate * cell_share
            # The access FET: CNFET in M3D, silicon under the array in 2D.
            access = power * ACCESS_FET_ENERGY_FRACTION
            per_tier["cnfet" if design.is_m3d else "si_cmos"] += access
            per_tier["rram"] += power - access
            continue
        elif block.kind == BlockKind.IO:
            die_span = (floorplan.die.width + floorplan.die.height) / 2.0
            dynamic = (design.writeback_bus_bits * freq * activity.writeback_bus
                       * constants.WIRE_ENERGY_PER_BIT_MM * (die_span / 1e-3))
            power = dynamic + lib.leakage_for_gates(block.gate_count)
        else:
            power = lib.leakage_for_gates(block.gate_count)
        per_tier["si_cmos"] += power
        per_block[block.name] = power

    # Power density per Si region, with overlapping upper-tier power stacked
    # onto whatever silicon sits underneath the arrays (M3D only).  A CS and
    # its private buffer form one thermal region (one CS "slot"), matching
    # the granularity heat spreads over in practice.
    density: dict[str, float] = {}
    si_blocks = [p for p in floorplan.placements if "si_cmos" in p.tiers]
    regions: dict[str, list] = {}
    for placed in si_blocks:
        regions.setdefault(placed.name.removesuffix("_buf"), []).append(placed)
    upper_blocks = [p for p in floorplan.placements
                    if p.kind == BlockKind.RRAM_MACRO and floorplan.is_m3d]
    stacked: dict[str, set[int]] = {}  # region -> indices of upper blocks
    n_si = len(si_blocks)
    if upper_blocks:
        rects = [p.rect for p in si_blocks + upper_blocks]
        for i, j in overlapping_pairs(rects):
            if i < n_si <= j:
                region = si_blocks[i].name.removesuffix("_buf")
                stacked.setdefault(region, set()).add(j - n_si)
    for region, members in regions.items():
        power = sum(per_block[m.name] for m in members)
        area = sum(m.rect.area for m in members)
        # Sense-channel power concentrates over the channel strip, which has
        # the same physical size in both designs.
        strip_power = sum(channel_dynamic.get(m.name, 0.0) for m in members)
        local = (power - strip_power) / area
        if strip_power > 0:
            local += strip_power / CHANNEL_STRIP_AREA
        for k in sorted(stacked.get(region, ())):
            upper = upper_blocks[k]
            local += per_block[upper.name] / upper.rect.area
        density[region] = local
    # 2D arrays are themselves Si blockages carrying their access-FET power.
    if not floorplan.is_m3d:
        for placed in floorplan.placements:
            if placed.kind == BlockKind.RRAM_MACRO:
                density[placed.name] = per_block[placed.name] / placed.rect.area

    return PowerReport(
        design_name=design.name,
        per_block=per_block,
        per_tier=per_tier,
        block_density=density,
    )
