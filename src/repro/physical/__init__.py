"""Physical design substrate: the RTL-to-GDS flow stand-in (paper Fig. 4b).

The paper's case study runs Synopsys DC synthesis plus a custom monolithic-3D
Cadence Innovus place-and-route flow on a foundry PDK.  This package models
the same pipeline at block level:

    synthesize -> floorplan -> place -> route -> timing -> power

producing the quantities the paper reports from its flow: footprint, area
breakdown per tier, wirelength, achieved frequency at the 20 MHz target, and
per-tier power (Obs. 2's "<1% power in the upper layers" and "+1% peak power
density").
"""

from repro.physical.netlist import (
    BlockKind,
    DesignBlock,
    Net,
    Netlist,
    synthesize,
)
from repro.physical.floorplan import Floorplan, PlacedBlock, Rect, build_floorplan
from repro.physical.placement import legalize_floorplan, placement_quality
from repro.physical.routing import RoutingResult, route
from repro.physical.timing import TimingResult, analyze_timing
from repro.physical.power import ActivityFactors, PowerReport, analyze_power
from repro.physical.clock import ClockTree, synthesize_clock_tree
from repro.physical.congestion import CongestionReport, congestion_report
from repro.physical.thermal import ThermalReport, analyze_thermal
from repro.physical.flow import (
    FLOW_STAGES,
    FlowFeasibility,
    FlowOutcome,
    run_staged_flow,
)

__all__ = [
    "BlockKind",
    "DesignBlock",
    "Net",
    "Netlist",
    "synthesize",
    "Rect",
    "PlacedBlock",
    "Floorplan",
    "build_floorplan",
    "legalize_floorplan",
    "placement_quality",
    "RoutingResult",
    "route",
    "TimingResult",
    "analyze_timing",
    "ActivityFactors",
    "PowerReport",
    "analyze_power",
    "ClockTree",
    "synthesize_clock_tree",
    "CongestionReport",
    "congestion_report",
    "ThermalReport",
    "analyze_thermal",
    "FLOW_STAGES",
    "FlowFeasibility",
    "FlowOutcome",
    "run_staged_flow",
]
