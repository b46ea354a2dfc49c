"""Admissible design-space bounds: cheap certificates for sweep pruning.

The B&B tiling search (:mod:`repro.mapper.cost`) skips a mapping when a
fast *admissible* bound proves it cannot beat the incumbent.
:func:`spec_bounds` lifts that idea from the mapping space to the design
space: for one :class:`~repro.spec.design.DesignSpec` it returns the
point's exact footprint together with a certified *upper* bound on its
EDP benefit, so the streaming executor can discard a grid point that a
frontier member already dominates — without ever simulating its M3D
design.

The bound is the simulator's own cost model,
:func:`repro.perf.layer_cost.layer_cost`, run on *relaxed* copies of
the design rows:

* the 2D baseline evaluates **exactly** (its unrelaxed row);
* the M3D runtime is lower-bounded by the *timing* row
  (:func:`relaxed_rows`): an unbounded CS count, so every layer
  partitions perfectly (``ceil(k_tiles / used_cs) == 1``, pooling at its
  full channel-tile parallelism), and no weight-load time, so every slab
  is stream-bound (``per_slab == stream``) — the exact serial writeback
  stays;
* the M3D energy is lower-bounded by the dynamic energy of the *energy*
  row: one CS, so the output fan-out ``1 + n_cs`` is at its minimum, and
  no leakage.

Each relaxation takes the best case of every term that depends on the
CS count, so one relaxed pair bounds — and is shared by — every
``tier_pairs`` / ``n_cs`` sibling of a grid point.  There is no
second copy of the per-layer formula: the scalar :func:`spec_bounds`
relaxes the simulator's row and runs ``layer_cost`` on it with scalar
ops (:func:`~repro.perf.simulator.row_layer_cost`, through the
simulator's layer memo), and the batch kernel's
:meth:`~repro.batch.kernel.BatchKernel.bound_calls` runs the same
relaxed rows through its vectorized delta evaluation — together with
the baseline rows, which survivors then reuse.
:data:`repro.mapper.cost.BOUND_MARGIN` keeps the benefit ratio on the
admissible side of float reassociation.  Admissibility —
``spec_bounds(spec).edp_benefit_ub >= evaluate_spec(spec).edp_benefit``
and exact footprints — is what makes frontier pruning provably exact;
``tests/test_streaming_sweep.py`` checks the inequality across the joint
grid, ``tests/test_batched_bounds.py`` the batched path's parity with
the scalar one, and ``tests/test_pareto_properties.py`` the frontier
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import require
from repro.mapper.cost import BOUND_MARGIN
from repro.perf.layer_cost import DesignRow
from repro.perf.simulator import AcceleratorSimulator, row_layer_cost, simulate
from repro.runtime.serialize import from_jsonable, to_jsonable
from repro.spec.design import DesignSpec
from repro.spec.resolve import resolve
from repro.tech.pdk import PDK

__all__ = [
    "PointBounds",
    "UNBOUNDED_CS",
    "point_bounds",
    "relaxed_rows",
    "spec_bounds",
]

#: The timing relaxation's CS count: more than any layer has K-tiles, and
#: finite, so ``ceil(k_tiles / min(n_cs, k_tiles))`` stays 1 (``inf``
#: would make it 0).
UNBOUNDED_CS = 2 ** 52


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


def relaxed_rows(row: DesignRow) -> tuple[DesignRow, DesignRow]:
    """The ``(timing, energy)`` relaxations of an M3D design row.

    ``layer_cost``'s ``cycles`` on the timing row and its ``dynamic`` on
    the energy row lower-bound the design's cycles and energy for any CS
    count.  Neither row keeps leakage (``static_power=0``).  The weight
    bandwidth is pinned to the CS count: it only enters the weight-load
    time, which the timing row drops (``weight_bits_per_slab=0``) and the
    energy row does not read, so every CS-count sibling relaxes to the
    same pair.
    """
    timing = row._replace(n_cs=UNBOUNDED_CS, bandwidth_bits=UNBOUNDED_CS,
                          weight_bits_per_slab=0, static_power=0.0)
    energy = row._replace(n_cs=1, bandwidth_bits=1, static_power=0.0)
    return timing, energy


def point_bounds(spec: DesignSpec, footprint: float,
                 baseline_runtime: float, baseline_energy: float,
                 runtime_lb: float, energy_lb: float) -> PointBounds:
    """The certified benefit bounds from the exact baseline totals and the
    M3D lower bounds (shared by the scalar and the batched path)."""
    require(runtime_lb > 0.0 and energy_lb > 0.0,
            "M3D lower bounds must be positive")
    t_ratio = baseline_runtime / runtime_lb
    e_ratio = baseline_energy / energy_lb
    return PointBounds(
        spec=spec,
        footprint=footprint,
        speedup_ub=t_ratio / BOUND_MARGIN,
        energy_benefit_ub=e_ratio / BOUND_MARGIN,
        edp_benefit_ub=t_ratio * e_ratio / BOUND_MARGIN,
    )


def spec_bounds(spec: DesignSpec, pdk: PDK | None = None) -> PointBounds:
    """Exact footprint plus certified benefit upper bounds for ``spec``.

    A pure function of its arguments (like
    :func:`repro.spec.evaluate.evaluate_spec`), so the evaluation engine
    can content-hash, deduplicate, and pool-dispatch it; the streaming
    executor maps it as its own ``sweep.bounds`` stage (through
    :meth:`~repro.batch.kernel.BatchKernel.bound_calls` when batched).
    """
    point = resolve(spec, pdk)
    batch = spec.workload.batch
    baseline = simulate(point.baseline, point.network, point.pdk,
                        batch=batch)
    timing, energy = relaxed_rows(
        AcceleratorSimulator(point.m3d, point.pdk, batch=batch).row)
    cycles_lb = energy_lb = 0.0
    for layer in point.network.layers:
        cycles_lb += row_layer_cost(timing, layer)[3]
        energy_lb += row_layer_cost(energy, layer)[4]
    return point_bounds(spec, point.footprint, baseline.runtime,
                        baseline.energy, cycles_lb * timing.cycle_time,
                        energy_lb)
