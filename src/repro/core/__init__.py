"""The paper's analytical framework (Sec. III) — the primary contribution.

* :mod:`repro.core.framework` — Eqs. 1-8 exactly as published: roofline
  execution times, energies with idle terms, and EDP benefits.
* :mod:`repro.core.params` — extraction of the framework's scalar inputs
  (gamma ratios, bandwidths, energies) from concrete designs.
* :mod:`repro.core.network_model` — per-layer analytical evaluation of a DNN
  on a 2D/M3D design pair (the model validated within 10% of the simulator).
* :mod:`repro.core.via_pitch` — Case 2: cell growth under ILV pitch scaling.
* :mod:`repro.core.multitier` — Case 3: Eq. 17 rise of interleaved tiers.
* :mod:`repro.core.thermal` — Eq. 17 thermal stack model.
* :mod:`repro.core.insights` — Obs. 5 design-space sweeps.

Cases 1-3 and the Fig. 9 capacity study each vary one knob of a
:class:`~repro.spec.design.DesignSpec`; their benefits come from
:func:`repro.spec.evaluate.evaluate_specs` like any other design point.
"""

from repro.core.framework import (
    DesignPoint,
    Workload,
    edp_benefit,
    energy,
    execution_time,
    speedup,
)
from repro.core.params import FrameworkParams, params_from_designs
from repro.core.network_model import (
    AnalyticalLayerResult,
    AnalyticalNetworkResult,
    analyze_network,
)
from repro.core.via_pitch import effective_cell_growth
from repro.core.multitier import stack_temperature_rise
from repro.core.thermal import (
    ThermalStack,
    max_tier_pairs,
    temperature_rise,
)
from repro.core.insights import BandwidthCSPoint, sweep_bandwidth_vs_cs
from repro.core.allocate import Allocation, AllocationResult, optimize_freed_silicon
from repro.core.dse import design_point_spec

__all__ = [
    "Workload",
    "DesignPoint",
    "execution_time",
    "energy",
    "speedup",
    "edp_benefit",
    "FrameworkParams",
    "params_from_designs",
    "AnalyticalLayerResult",
    "AnalyticalNetworkResult",
    "analyze_network",
    "effective_cell_growth",
    "stack_temperature_rise",
    "ThermalStack",
    "temperature_rise",
    "max_tier_pairs",
    "BandwidthCSPoint",
    "sweep_bandwidth_vs_cs",
    "Allocation",
    "AllocationResult",
    "optimize_freed_silicon",
    "design_point_spec",
]
