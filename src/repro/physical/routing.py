"""Routing estimation: wirelength, buffering, and inter-layer vias.

Global routing is estimated from the placed floorplan:

* inter-block wirelength — per-net half-perimeter wirelength (HPWL) times
  the net's bus width;
* intra-block wirelength — a Donath/Rent-style estimate from each logic
  block's gate count and area;
* repeater (buffer) insertion — one buffer per optimal repeater distance on
  every long wire;
* ILV count — M3D nets that cross device tiers consume one inter-layer via
  per bit per tier crossing (the ultra-dense vias the paper's Case 2 sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import require
from repro.tech import constants
from repro.physical.floorplan import Floorplan
from repro.physical.netlist import BlockKind, Netlist

#: Rent exponent for intra-block wirelength estimation.
RENT_EXPONENT = 0.6

#: Optimal repeater spacing at the 130 nm node, metres.
BUFFER_SPACING = 2.0e-3


@dataclass(frozen=True)
class RoutingResult:
    """Routing estimate for one design.

    Attributes:
        inter_block_wirelength: Sum of net HPWL x bus width, metre-bits.
        intra_block_wirelength: Rent-style intra-block estimate, metres.
        buffer_count: Repeaters inserted on inter-block wires.
        ilv_count: Inter-layer vias used by tier-crossing nets.
        wire_capacitance: Total switched wire capacitance, farads.
    """

    inter_block_wirelength: float
    intra_block_wirelength: float
    buffer_count: int
    ilv_count: int
    wire_capacitance: float

    @property
    def total_wirelength(self) -> float:
        """Total wirelength, metres (bus wires counted per bit)."""
        return self.inter_block_wirelength + self.intra_block_wirelength


def intra_block_wirelength(gate_count: float, area: float) -> float:
    """Donath-style intra-block wirelength estimate, metres.

    Average net length scales as gate_pitch * gates^(p - 0.5); total length
    multiplies by the net count (~gates).
    """
    require(gate_count >= 0 and area >= 0, "inputs must be non-negative")
    if gate_count < 2:
        return 0.0
    gate_pitch = (area / gate_count) ** 0.5
    average_length = 2.0 * gate_pitch * gate_count ** (RENT_EXPONENT - 0.5)
    return average_length * gate_count


def route(floorplan: Floorplan, netlist: Netlist) -> RoutingResult:
    """Estimate routing for a placed design."""
    inter = 0.0
    buffers = 0
    ilvs = 0
    for net in netlist.nets:
        length = floorplan.net_hpwl(net)
        inter += length * net.width_bits
        buffers += int(length / BUFFER_SPACING) * net.width_bits
        crossings = len({netlist.block(name).tier
                         for name in (net.driver, *net.sinks)}) - 1
        ilvs += crossings * net.width_bits

    intra = sum(
        intra_block_wirelength(block.gate_count, block.area)
        for block in netlist.blocks_of_kind(BlockKind.LOGIC)
    )
    capacitance = (inter + intra) * constants.WIRE_CAP_PER_M
    return RoutingResult(
        inter_block_wirelength=inter,
        intra_block_wirelength=intra,
        buffer_count=buffers,
        ilv_count=ilvs,
        wire_capacitance=capacitance,
    )
