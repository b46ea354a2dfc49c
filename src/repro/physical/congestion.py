"""Routing and inter-layer-via congestion analysis.

Two feasibility checks the flow's wirelength estimates imply but do not
verify:

* **metal congestion** — the estimated wirelength must fit the routing
  tracks the die offers (tracks = layers x die-width / pitch); reported as
  average track utilization per routing tier;
* **ILV congestion** — the M3D-specific one: the memory cells consume
  ``vias_per_cell`` ILVs *per bit* over the array footprint, and signal
  nets crossing tiers add more.  Demand must stay below the pitch-limited
  ILV capacity; the margin shrinks quadratically as the via pitch coarsens
  (Case 2's mechanism showing up as a routability limit rather than an
  area limit).

:func:`congestion_report` is the staged-flow entry point — it takes the
floorplan/routing artifacts directly so the engine can content-hash them
as cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import AcceleratorDesign
from repro.errors import require
from repro.physical.floorplan import Floorplan
from repro.physical.routing import RoutingResult

#: Signal routing layers available over the whole stack.
ROUTING_LAYERS = 6
#: Routing track pitch, metres (intermediate metal at the 130 nm node).
TRACK_PITCH = 0.46e-6
#: Fraction of tracks usable for signal routing (power grid, blockages).
TRACK_UTILIZATION_LIMIT = 0.7


@dataclass(frozen=True)
class CongestionReport:
    """Routability summary for one placed design.

    Attributes:
        design_name: Design identifier.
        track_demand: Wirelength-derived track demand, metres.
        track_capacity: Usable track supply, metres.
        ilv_demand: ILVs required (memory cells + tier-crossing signals).
        ilv_capacity: Pitch-limited ILV supply over the array footprint.
    """

    design_name: str
    track_demand: float
    track_capacity: float
    ilv_demand: float
    ilv_capacity: float

    @property
    def track_utilization(self) -> float:
        """Average track utilization (must stay < 1 for routability)."""
        return self.track_demand / self.track_capacity

    @property
    def ilv_utilization(self) -> float:
        """ILV utilization over the array footprint."""
        if self.ilv_capacity == 0:
            return 0.0
        return self.ilv_demand / self.ilv_capacity

    @property
    def routable(self) -> bool:
        """True when both resources are inside their limits."""
        return (self.track_utilization <= 1.0
                and self.ilv_utilization <= 1.0)


def congestion_report(floorplan: Floorplan, routing: RoutingResult,
                      design: AcceleratorDesign) -> CongestionReport:
    """The congestion report from the placed-and-routed artifacts."""
    die = floorplan.die
    tracks_per_layer = die.width / TRACK_PITCH
    capacity = (ROUTING_LAYERS * tracks_per_layer * die.height
                * TRACK_UTILIZATION_LIMIT)
    demand = routing.total_wirelength

    if design.is_m3d:
        cells = design.bank_plan.array
        cell_vias = cells.capacity_bits * cells.cell.vias_per_cell
        signal_vias = routing.ilv_count
        ilv_demand = float(cell_vias + signal_vias)
        # Capacity: the pitch-limited via sites over the cell-array
        # footprint (where the access-FET connections must land).
        pdk_area = design.area.cells
        pitch = design.bank_plan.array.ilv.pitch \
            if design.bank_plan.array.ilv is not None else None
        require(pitch is not None, "M3D design must carry an ILV model")
        ilv_capacity = pdk_area / (pitch * pitch)
    else:
        ilv_demand = float(routing.ilv_count)
        ilv_capacity = float("inf") if ilv_demand == 0 else die.area / (
            (0.46e-6) ** 2)
    return CongestionReport(
        design_name=design.name,
        track_demand=demand,
        track_capacity=capacity,
        ilv_demand=ilv_demand,
        ilv_capacity=ilv_capacity,
    )

