"""Static timing analysis at block level.

The critical path of the case-study accelerator is the PE MAC pipeline
stage plus the longest buffered inter-block wire (the weight channel from a
bank's peripheral block to its CS).  Both designs target the same 20 MHz
clock (Sec. II: the 40 nm-optimized architecture is relaxed to 20 MHz at the
130 nm node), so the interesting output is the achieved frequency and the
slack at target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import require
from repro.tech import constants
from repro.tech.pdk import PDK
from repro.physical.floorplan import Floorplan
from repro.physical.netlist import Netlist
from repro.physical.routing import BUFFER_SPACING

#: Logic depth of the MAC pipeline stage, in gate-equivalent levels
#: (8x8 multiplier partial-product tree + 24-bit accumulate).
MAC_PIPELINE_DEPTH = 24


@dataclass(frozen=True)
class TimingResult:
    """Timing outcome for one design.

    Attributes:
        logic_delay: MAC pipeline delay, seconds.
        wire_delay: Longest buffered inter-block wire delay, seconds.
        critical_path: Total critical path, seconds.
        target_frequency: Target clock, Hz.
    """

    logic_delay: float
    wire_delay: float
    critical_path: float
    target_frequency: float

    @property
    def achieved_frequency(self) -> float:
        """Maximum frequency supported by the critical path, Hz."""
        return 1.0 / self.critical_path

    @property
    def meets_target(self) -> bool:
        """True when the design closes timing at the target clock."""
        return self.achieved_frequency >= self.target_frequency

    @property
    def slack(self) -> float:
        """Positive slack at the target clock, seconds."""
        return 1.0 / self.target_frequency - self.critical_path


def buffered_wire_delay(length: float) -> float:
    """Delay of an optimally repeated wire of ``length`` metres.

    Per repeated segment: buffer intrinsic delay + segment RC; the segment
    count is length / spacing.
    """
    require(length >= 0, "length must be non-negative")
    if length == 0:
        return 0.0
    segments = max(1, math.ceil(length / BUFFER_SPACING))
    segment_length = length / segments
    segment_rc = (constants.WIRE_RES_PER_M * segment_length
                  * constants.WIRE_CAP_PER_M * segment_length / 2.0)
    buffer_delay = 0.6 * constants.GATE_DELAY_130NM
    return segments * (buffer_delay + segment_rc)


def longest_net_length(floorplan: Floorplan, netlist: Netlist) -> float:
    """Longest inter-block net HPWL, metres."""
    return max(map(floorplan.net_hpwl, netlist.nets), default=0.0)


def analyze_timing(
    floorplan: Floorplan,
    netlist: Netlist,
    pdk: PDK,
    target_frequency: float,
) -> TimingResult:
    """Run the block-level static timing model."""
    require(target_frequency > 0, "target frequency must be positive")
    nand = pdk.silicon_library.gate_equivalent
    logic_delay = MAC_PIPELINE_DEPTH * nand.delay_with_load(
        2.0 * nand.input_capacitance)
    wire_delay = buffered_wire_delay(longest_net_length(floorplan, netlist))
    # M3D tier crossings add one ILV RC per crossing — negligible by design,
    # which is exactly why fine-pitch ILVs keep folding free.
    ilv_delay = 2.0 * pdk.ilv.rc_delay() if floorplan.is_m3d else 0.0
    return TimingResult(
        logic_delay=logic_delay,
        wire_delay=wire_delay + ilv_delay,
        critical_path=logic_delay + wire_delay + ilv_delay,
        target_frequency=target_frequency,
    )
