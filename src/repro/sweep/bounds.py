"""Admissible design-space bounds: cheap certificates for sweep pruning.

The B&B tiling search (:mod:`repro.mapper.cost`) skips a mapping when a
fast *admissible* bound proves it cannot beat the incumbent.
:func:`spec_bounds` lifts that idea from the mapping space to the design
space: for one :class:`~repro.spec.design.DesignSpec` it returns the
point's exact footprint together with a certified *upper* bound on its
EDP benefit, so the streaming executor can discard a grid point that a
frontier member already dominates — without ever simulating its M3D
design.

The bound prices exactly the simulator's *mandatory* work:

* the 2D baseline simulates **exactly** (its per-layer results memoize on
  the design fingerprint, and under the ``reoptimized`` policy the
  baseline does not change along the ``tier_pairs`` axis, so this cost
  amortizes across the axis the sweep scales);
* the M3D side is **lower-bounded** per layer by terms that are
  independent of the CS count: input streaming with every weight slab
  stream-bound (``per_slab >= stream``) and perfect output-channel
  partitioning (``ceil(k_tiles / used_cs) >= 1``), pooling at its full
  channel-tile parallelism (``used_cs <= channel_tiles``), the exact
  serial writeback, and the dynamic energy with the output fan-out at its
  ``n_cs = 1`` minimum and leakage at its ``>= 0`` minimum.

Each mandatory term reproduces the corresponding expression of the
simulator's cost model, :func:`repro.perf.layer_cost.layer_cost` (same
arithmetic, same order), so where the bound is mathematically tight it
is bit-tight too;
:data:`repro.mapper.cost.BOUND_MARGIN` keeps the benefit ratio on the
admissible side of any remaining float reassociation.  Admissibility —
``spec_bounds(spec).edp_benefit_ub >= evaluate_spec(spec).edp_benefit``
and exact footprints — is what makes frontier pruning provably exact;
``tests/test_streaming_sweep.py`` checks the inequality across the joint
grid and ``tests/test_pareto_properties.py`` covers the frontier side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.arch.accelerator import AcceleratorDesign
from repro.errors import require
from repro.mapper.cost import BOUND_MARGIN
from repro.perf.layer_cost import WRITEBACK_WIRE_LENGTH
from repro.perf.simulator import simulate
from repro.runtime.cache import MISSING
from repro.runtime.memo import memo_table
from repro.runtime.serialize import from_jsonable, to_jsonable
from repro.spec.design import DesignSpec
from repro.spec.resolve import resolve
from repro.tech import constants
from repro.tech.pdk import PDK
from repro.workloads.layers import Layer, LayerKind, shape_key

__all__ = ["PointBounds", "spec_bounds"]

#: Per-layer bound memo: (n_cs-free design fingerprint, layer shape)
#: -> (cycles_lb, dynamic_energy_lb).  Excluding the CS count is the
#: point — every ``tier_pairs`` / ``n_cs`` sibling of a grid point shares
#: one entry per layer shape.
_BOUND_MEMO = memo_table("sweep.bound")


@dataclass(frozen=True)
class PointBounds:
    """Certified objective bounds for one (unevaluated) design spec.

    Attributes:
        spec: The bounded spec (so pruning logs are self-describing).
        footprint: Exact chip footprint, m^2 (from resolution alone).
        speedup_ub: Certified upper bound on T_2D / T_3D.
        energy_benefit_ub: Certified upper bound on E_2D / E_3D.
        edp_benefit_ub: Certified upper bound on the EDP benefit.
    """

    spec: DesignSpec
    footprint: float
    speedup_ub: float
    energy_benefit_ub: float
    edp_benefit_ub: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (used by the disk result cache)."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PointBounds":
        """Inverse of :meth:`to_dict`."""
        bounds = from_jsonable(data)
        require(isinstance(bounds, cls),
                f"expected a serialized {cls.__name__}")
        return bounds


def _layer_lower_bounds(design: AcceleratorDesign, layer: Layer,
                        batch: int) -> tuple[float, float]:
    """(cycles_lb, dynamic_energy_lb) for one layer on the M3D design.

    Mirrors :func:`repro.perf.layer_cost.layer_cost` term by term,
    replacing every CS-count-dependent factor with its best case over
    ``n_cs >= 1``.
    """
    array = design.cs.array
    precision = design.precision_bits
    if layer.kind == LayerKind.POOL:
        lanes = design.pool_lanes
        channel_tiles = max(1, math.ceil(layer.out_channels / lanes))
        # used_cs = min(n_cs, channel_tiles) <= channel_tiles.
        compute = layer.macs * batch / lanes / channel_tiles
    else:
        fill = array.fill_drain_cycles
        stream = ((array.stream_cycles_per_slab(layer) - fill) * batch
                  + fill)
        # slabs_per_cs >= row_tiles * kernel_passes (perfect K-tile
        # partitioning) and per_slab = max(stream, weight_load) >= stream.
        compute = array.row_tiles(layer) * array.kernel_passes(layer) * stream
    writeback = (layer.output_elements * batch
                 * precision / design.writeback_bus_bits)
    cycles = compute + writeback

    mac_energy = design.cs.array.pe.mac_energy
    compute_e = layer.macs * batch * mac_energy
    read_energy = design.bank_plan.array.cell.read_energy_per_bit
    weights = layer.weights * precision * read_energy
    input_reads = layer.macs * batch / design.cs.array.cols
    inputs = input_reads * precision * constants.SRAM_ENERGY_PER_BIT
    output_bits = layer.output_elements * batch * precision
    wire = (output_bits * constants.WIRE_ENERGY_PER_BIT_MM
            * (WRITEBACK_WIRE_LENGTH / 1e-3))
    # Output fan-out (1 + n_cs) bottoms out at 2; leakage bottoms at 0.
    outputs = output_bits * constants.SRAM_ENERGY_PER_BIT * 2
    energy = compute_e + weights + inputs + outputs + wire
    return cycles, energy


def _m3d_lower_bounds(design: AcceleratorDesign, layers: tuple[Layer, ...],
                      batch: int) -> tuple[float, float]:
    """Network-total (runtime_lb, energy_lb) for the M3D design."""
    fingerprint = (
        design.cs.array,
        design.precision_bits,
        design.writeback_bus_bits,
        design.pool_lanes,
        design.bank_plan.array.cell.read_energy_per_bit,
        batch,
    )
    cycles = 0.0
    energy = 0.0
    for layer in layers:
        key = (fingerprint, shape_key(layer))
        bound = _BOUND_MEMO.get(key)
        if bound is MISSING:
            bound = _layer_lower_bounds(design, layer, batch)
            _BOUND_MEMO.put(key, bound)
        cycles += bound[0]
        energy += bound[1]
    return cycles * design.cycle_time, energy


def spec_bounds(spec: DesignSpec, pdk: PDK | None = None) -> PointBounds:
    """Exact footprint plus certified benefit upper bounds for ``spec``.

    A pure function of its arguments (like
    :func:`repro.spec.evaluate.evaluate_spec`), so the evaluation engine
    can content-hash, deduplicate, and pool-dispatch it; the streaming
    executor maps it as its own ``sweep.bounds`` stage.
    """
    point = resolve(spec, pdk)
    batch = spec.workload.batch
    baseline = simulate(point.baseline, point.network, point.pdk,
                        batch=batch)
    runtime_lb, energy_lb = _m3d_lower_bounds(
        point.m3d, point.network.layers, batch)
    require(runtime_lb > 0.0 and energy_lb > 0.0,
            "M3D lower bounds must be positive")
    t_ratio = baseline.runtime / runtime_lb
    e_ratio = baseline.energy / energy_lb
    return PointBounds(
        spec=spec,
        footprint=point.footprint,
        speedup_ub=t_ratio / BOUND_MARGIN,
        energy_benefit_ub=e_ratio / BOUND_MARGIN,
        edp_benefit_ub=t_ratio * e_ratio / BOUND_MARGIN,
    )
