"""The vectorized batch evaluation kernel.

:class:`BatchKernel` evaluates many ``evaluate_spec`` calls at once:

1. **Pack** (python, per design): each spec lowers to two
   :class:`~repro.perf.layer_cost.DesignRow` parameter rows through the
   delta-evaluation stage tables (:mod:`repro.batch.pack`), built by the
   same staged design construction the scalar resolver and simulator
   use, once per ``(tech, arch, batch)`` design of the call
   (:class:`~repro.batch.pack.PackMemo`).  Specs the row schema cannot
   express fall back to scalar ``evaluate_spec`` (counted as
   ``batch.fallback_scalar``).
2. **Evaluate** (arrays): the distinct ``(design row, workload)`` pairs
   that no earlier point — in this batch or a previous one — already
   evaluated run through :func:`~repro.perf.layer_cost.layer_cost`, the
   per-layer cost model the scalar simulator runs too, here on numpy
   ops: each workload's group computes as (rows x layers) broadcast
   matrices and reduces over the layers.  Reused pairs count as
   ``batch.delta_hits``.
3. **Assemble** (python, per point): per-design cycle/energy totals
   combine into :class:`~repro.spec.evaluate.SpecEvaluation` results
   with the exact ratio arithmetic of ``compare_designs``.

:meth:`BatchKernel.evaluate_calls` is the ``batch_fn`` of
``EvaluationEngine.map`` for the ``spec.evaluate`` / ``sweep.evaluate``
stages — cache keys, dedup and counters stay identical to the scalar
path, so a batch run warms the same cache a scalar run reads and vice
versa.  :meth:`BatchKernel.bound_calls` is the ``batch_fn`` of the
pruned sweep's ``sweep.bounds`` stage the same way: it runs each point's 2D row and the
two relaxed M3D rows of :func:`~repro.sweep.bounds.relaxed_rows` through
the same delta evaluation (counted as ``batch.bound_points`` /
``batch.bound_delta_hits`` / ``batch.bound_fallback_scalar``), so the
bound reuses the one cost model and a survivor's baseline row is already
evaluated when the point is.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.batch.pack import (
    ROW_RESULTS,
    DesignRow,
    PackMemo,
    PackedPoint,
    UnsupportedSpec,
    WorkloadStage,
    pack_point,
    workload_stage,
)
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import is_enabled as _obs_enabled
from repro.arch.systolic import ArrayOps
from repro.perf.layer_cost import layer_cost
from repro.runtime.cache import MISSING
from repro.runtime.keys import stable_key
from repro.runtime.memo import add_counts
from repro.spec.design import DesignSpec
from repro.spec.evaluate import SpecEvaluation, evaluate_spec
from repro.sweep.bounds import (
    PointBounds,
    point_bounds,
    relaxed_rows,
    spec_bounds,
)
from repro.tech.pdk import PDK, foundry_m3d_pdk

__all__ = ["BatchKernel"]

#: The cost model's ops over (rows x layers) broadcast arrays.
_NUMPY_OPS = ArrayOps(maximum=np.maximum, minimum=np.minimum,
                      where=np.where, ceil=np.ceil)


def _design_columns(rows: Sequence[DesignRow]) -> DesignRow:
    """Stack design rows into (R, 1) column vectors for broadcasting."""
    return DesignRow._make(
        np.array(values, dtype=bool if name == "row_packing"
                 else np.float64)[:, None]
        for name, values in zip(DesignRow._fields, zip(*rows)))


def _evaluate_rows(rows: Sequence[DesignRow],
                   stage: WorkloadStage) -> "list[tuple[float, float]]":
    """Total (cycles, energy) of each design row on the stage's network."""
    _, _, _, cycles, dynamic, leakage = layer_cost(
        _NUMPY_OPS, _design_columns(rows), stage.columns())
    total_cycles = cycles.sum(axis=1)
    total_energy = (dynamic + leakage).sum(axis=1)
    return list(zip(total_cycles.tolist(), total_energy.tolist()))


def _delta_evaluate(point_rows: "Iterable[tuple[tuple, Sequence[DesignRow]]]",
                    ) -> "tuple[dict, int]":
    """Delta evaluation of each point's ``(workload key, rows)``:
    ``({workload key: {id(row): (cycles, energy)}}, hits)``.

    Only the distinct pairs no earlier call already evaluated (the
    ``batch.rows`` memo) run through :func:`_evaluate_rows`, one
    vectorized group per workload; every other pair is a delta hit.
    Results are keyed on the row *object* (which the caller pins), so a
    row shared by many points (:class:`~repro.batch.pack.PackMemo`
    interns them) is hashed by content once, not once per point.
    """
    by_workload: dict = {}
    local: dict = {}
    pending: dict = {}
    delta_hits = 0
    for workload_key, rows in point_rows:
        seen = by_workload.get(workload_key)
        if seen is None:
            seen = by_workload[workload_key] = {}
        for row in rows:
            if id(row) in seen:
                delta_hits += 1
                continue
            row_key = seen[id(row)] = (row, workload_key)
            if row_key in local or row_key in pending:
                delta_hits += 1
                continue
            memoized = ROW_RESULTS.get(row_key)
            if memoized is not MISSING:
                local[row_key] = memoized
                delta_hits += 1
                continue
            pending[row_key] = None

    groups: dict = {}
    for row, workload_key in pending:
        groups.setdefault(workload_key, []).append(row)
    for workload_key, rows in groups.items():
        stage = workload_stage(*workload_key)
        for row, totals in zip(rows, _evaluate_rows(rows, stage)):
            row_key = (row, workload_key)
            local[row_key] = totals
            ROW_RESULTS.put(row_key, totals)
    return {workload_key: {row_id: local[row_key]
                           for row_id, row_key in seen.items()}
            for workload_key, seen in by_workload.items()}, delta_hits


class BatchKernel:
    """Batched ``evaluate_spec`` against one base PDK.

    ``pdk=None`` means the default foundry M3D PDK, matching
    ``evaluate_spec(spec)``'s default — the kernel then only accepts the
    one-argument call shape, so its results answer exactly the calls the
    scalar path would have made.
    """

    def __init__(self, pdk: PDK | None = None) -> None:
        self.pdk = pdk
        self.base = pdk if pdk is not None else foundry_m3d_pdk()

    def _accepts_pdk(self, pdk) -> bool:
        """Whether a call's explicit PDK is this kernel's base: the same
        object, or the same content key (cached per object)."""
        return pdk is self.base or pdk is self.pdk or (
            isinstance(pdk, PDK) and stable_key(pdk) == stable_key(self.base))

    def evaluate_calls(
            self,
            calls: "Sequence[tuple[tuple, dict]]") -> "list[SpecEvaluation]":
        """Evaluate normalized ``(args, kwargs)`` ``evaluate_spec`` calls.

        This is the ``batch_fn`` :meth:`EvaluationEngine.map` invokes for
        cache-missing calls.  Results are positional; calls the kernel
        cannot take (unexpected shape, mismatched PDK, unsupported spec)
        evaluate through scalar ``evaluate_spec`` — errors those specs
        would raise scalar-side propagate unchanged.
        """
        results: list = [None] * len(calls)
        packed, fallback = self._pack_calls(calls)
        totals, delta_hits = _delta_evaluate(
            (point.workload_key, (point.row_2d, point.row_m3d))
            for _, point in packed)

        for index, point in packed:
            row_2d, row_m3d = point.row_2d, point.row_m3d
            workload_totals = totals[point.workload_key]
            cycles_2d, energy_2d = workload_totals[id(row_2d)]
            cycles_m3d, energy_m3d = workload_totals[id(row_m3d)]
            # compare_designs ratio arithmetic, with runtime = cycles * t.
            speedup = (cycles_2d * row_2d.cycle_time) \
                / (cycles_m3d * row_m3d.cycle_time)
            energy_benefit = energy_2d / energy_m3d
            results[index] = SpecEvaluation(
                point.spec, row_2d.n_cs, row_m3d.n_cs, point.footprint,
                speedup, energy_benefit, speedup * energy_benefit)

        for index in fallback:
            args, kwargs = calls[index]
            results[index] = evaluate_spec(*args, **kwargs)

        add_counts("batch", points=len(calls), delta_hits=delta_hits,
                   fallback_scalar=len(fallback))
        if _obs_enabled():
            registry = _metrics_registry()
            registry.counter("repro_batch_points_total").inc(len(calls))
            registry.counter("repro_batch_delta_hits_total").inc(delta_hits)
            registry.counter("repro_batch_fallback_scalar_total") \
                .inc(len(fallback))
        return results

    def bound_calls(
            self,
            calls: "Sequence[tuple[tuple, dict]]") -> "list[PointBounds]":
        """Certified bounds for normalized ``spec_bounds`` calls.

        The ``batch_fn`` of the sweep's ``sweep.bounds`` stage: each
        packed point's 2D row and the two relaxed rows of its M3D row
        (:func:`~repro.sweep.bounds.relaxed_rows`) run through the same
        delta evaluation as :meth:`evaluate_calls`, so a survivor's
        baseline row is already evaluated when the point is.  Calls the
        kernel cannot take fall back to scalar ``spec_bounds``.
        """
        results: list = [None] * len(calls)
        packed, fallback = self._pack_calls(calls)
        # The points of one design share an interned M3D row: relax each
        # distinct row once, so the relaxations are shared objects too.
        relaxations: dict[int, tuple] = {}
        relaxed = []
        for index, point in packed:
            pair = relaxations.get(id(point.row_m3d))
            if pair is None:
                pair = relaxations[id(point.row_m3d)] = \
                    relaxed_rows(point.row_m3d)
            relaxed.append((index, point, *pair))
        totals, delta_hits = _delta_evaluate(
            (point.workload_key, (point.row_2d, timing, energy))
            for _, point, timing, energy in relaxed)

        for index, point, timing, energy in relaxed:
            workload_totals = totals[point.workload_key]
            cycles_2d, energy_2d = workload_totals[id(point.row_2d)]
            cycles_lb = workload_totals[id(timing)][0]
            # Zero static power: the energy row's total is its dynamic
            # energy exactly.
            energy_lb = workload_totals[id(energy)][1]
            results[index] = point_bounds(
                point.spec, point.footprint,
                cycles_2d * point.row_2d.cycle_time, energy_2d,
                cycles_lb * timing.cycle_time, energy_lb)

        for index in fallback:
            args, kwargs = calls[index]
            results[index] = spec_bounds(*args, **kwargs)

        add_counts("batch", bound_points=len(calls),
                   bound_delta_hits=delta_hits,
                   bound_fallback_scalar=len(fallback))
        return results

    def _pack_calls(self, calls: "Sequence[tuple[tuple, dict]]",
                    ) -> "tuple[list[tuple[int, PackedPoint]], list[int]]":
        """Split ``(spec[, pdk])`` calls into packed points and the
        indices that must take the scalar path."""
        packed: "list[tuple[int, PackedPoint]]" = []
        fallback: list[int] = []
        memo = PackMemo()
        for index, (args, kwargs) in enumerate(calls):
            supported = (not kwargs and 1 <= len(args) <= 2
                         and isinstance(args[0], DesignSpec))
            if supported:
                supported = self.pdk is None if len(args) == 1 \
                    else self._accepts_pdk(args[1])
            if supported:
                try:
                    packed.append(
                        (index, pack_point(args[0], self.base, memo)))
                    continue
                except UnsupportedSpec:
                    pass
                except Exception:
                    # Invalid specs re-raise their scalar diagnostics.
                    pass
            fallback.append(index)
        return packed, fallback
