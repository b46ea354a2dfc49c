"""Thermal feasibility stage of the physical flow.

:func:`analyze_thermal` condenses a placed design's heat picture into a
:class:`ThermalReport` — a plain-float summary the runtime engine can
content-hash and persist (the full :class:`~repro.physical.thermal_map
.ThermalMap` carries a numpy grid, which the cache codec deliberately
rejects).  The budget it checks against comes from the shared
:class:`~repro.core.thermal.ThermalStack`, the single home of the repo's
thermal constants.

The report is backed by the exact cosine-basis grid solve of
:mod:`repro.physical.thermal_map`, and records that solve's relative
residual so a run states the numerical quality it reached.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.thermal import ThermalStack
from repro.errors import require
from repro.physical.floorplan import Floorplan
from repro.physical.power import PowerReport

__all__ = ["ThermalReport", "analyze_thermal"]


@dataclass(frozen=True)
class ThermalReport:
    """Flow-stage thermal summary for one design (plain floats only).

    Attributes:
        design_name: Design identifier.
        hotspot_rise_k: Peak temperature rise over ambient, K.
        average_rise_k: Mean temperature rise over the die, K.
        hotspot_x: Hotspot x coordinate on the die, metres.
        hotspot_y: Hotspot y coordinate on the die, metres.
        budget_k: The rise budget the feasibility check used, K.
        residual: Relative max-norm residual of the grid solve,
            ``max|(G_v I + G_l L) T - P| / max|P|``.
    """

    design_name: str
    hotspot_rise_k: float
    average_rise_k: float
    hotspot_x: float
    hotspot_y: float
    budget_k: float
    residual: float

    @property
    def headroom_k(self) -> float:
        """Budget minus hotspot rise (negative = over budget), K."""
        return self.budget_k - self.hotspot_rise_k

    @property
    def within_budget(self) -> bool:
        """True when the hotspot stays inside the rise budget."""
        return self.hotspot_rise_k <= self.budget_k


def analyze_thermal(
    floorplan: Floorplan,
    power: PowerReport,
    grid: int = 64,
    budget_k: float | None = None,
) -> ThermalReport:
    """Thermal summary of a placed design against a rise budget.

    ``budget_k`` defaults to the shared stack's ``max_rise``
    (:data:`repro.tech.constants.THERMAL_MAX_RISE_K`).
    """
    stack = ThermalStack()
    budget = stack.max_rise if budget_k is None else budget_k
    require(budget > 0, "thermal budget must be positive")
    # Deferred so numpy loads only once a thermal stage runs.
    from repro.physical.thermal_map import solve_thermal_map

    solved = solve_thermal_map(floorplan, power, grid=grid, stack=stack)
    x, y = solved.hotspot_location
    return ThermalReport(
        design_name=floorplan.name,
        hotspot_rise_k=solved.hotspot,
        average_rise_k=solved.average,
        hotspot_x=x,
        hotspot_y=y,
        budget_k=budget,
        residual=solved.residual,
    )
