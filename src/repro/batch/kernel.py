"""The batch evaluation kernel: the one analytic value path.

One-point ``evaluate_spec`` and ``spec_bounds`` (:func:`analytic_fields`,
:func:`analytic_bounds`) and :class:`BatchKernel`'s many-call batches
all run the same three steps:

1. **Pack** (python, per design): each spec lowers to two
   :class:`~repro.perf.layer_cost.DesignRow` parameter rows through the
   delta-evaluation stage tables (:mod:`repro.batch.pack`), built by the
   same staged design construction the resolver and simulator use, once
   per ``(tech, arch, batch)`` design of the call
   (:class:`~repro.batch.pack.PackMemo`).
2. **Evaluate** (per call): the distinct ``(design row, workload)`` pairs
   that no earlier point — in this call or a previous one — already
   evaluated run through :func:`~repro.perf.layer_cost.layer_cost`, the
   per-layer cost model the simulator runs too.  Reused pairs count as
   ``batch.delta_hits``.  The new pairs evaluate one of two ways, chosen
   per call by :func:`_numpy_pays`: each row's layers through the
   simulator's layer memo (:func:`~repro.perf.simulator.row_layer_cost`),
   or each workload's group as (rows x layers) numpy matrices
   (:func:`_evaluate_rows`).  Both add a row's layers left to right
   (:func:`~repro.perf.layer_cost.ordered_sum`, over the matrices' layer
   columns on the numpy path), as the simulator's reports do, so every
   path returns the same bits on every interpreter; the choice only
   decides whether this process pays numpy's import for the call.
3. **Assemble** (python, per point): ``compare_designs``' ratio
   arithmetic (:func:`_fields`), or certified bounds
   (:func:`~repro.sweep.bounds.point_bounds`).

:meth:`BatchKernel.evaluate_calls` is the ``batch_fn`` of
``EvaluationEngine.map`` for the ``spec.evaluate`` / ``sweep.evaluate``
stages, and :meth:`BatchKernel.bound_calls` that of the pruned sweep's
``sweep.bounds`` stage: the relaxed M3D rows of
:func:`~repro.sweep.bounds.relaxed_rows` run beside the 2D rows, so a
survivor's baseline row is already evaluated when the point is.  Cache
keys, dedup and results equal per-point dispatch: a batch decides only
how calls are dispatched, never which bits come back.  Calls the kernel
does not pack go one by one (``batch.fallback_scalar``,
``batch.bound_fallback_scalar``).
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence

from repro.batch.pack import (
    ROW_RESULTS,
    DesignRow,
    PackMemo,
    PackedPoint,
    WorkloadStage,
    pack_point,
    workload_stage,
)
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import is_enabled as _obs_enabled
from repro.arch.systolic import ArrayOps
from repro.perf.layer_cost import layer_cost, ordered_sum
from repro.perf.simulator import row_layer_cost
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

__all__ = ["BatchKernel", "analytic_bounds", "analytic_fields"]

#: New (row, distinct layer shape) costs the scalar path may run in one
#: process before a call imports numpy instead (see :func:`_numpy_pays`):
#: numpy's import (51-82 ms, median 70 ms, in fresh processes on a 2-vCPU
#: VM) over the scalar path's cost per distinct shape of a new row
#: (6-31 us across the ten networks, median 11.5 us).
SCALAR_BUDGET = 6_000

#: (row, distinct layer shape) costs this process ran on the scalar path.
#: Unlocked: an update lost between threads only delays the import, and
#: both paths return the same bits.
_scalar_spent = 0


def _numpy_pays(cost: int) -> bool:
    """Whether a call whose new rows cost ``cost`` (row, distinct layer
    shape) pairs takes the numpy path.

    Ski rental, with numpy's import as the purchase: once numpy is
    loaded (by any module) it always pays.  Until then a call stays
    scalar while the process's scalar spending, this call's included,
    is within :data:`SCALAR_BUDGET` (about one import's worth), and the
    first call past it imports numpy.  So choosing costs a process at
    most about one import over the better of the two paths.  The unit is
    the distinct shape because the scalar path runs one ``layer_cost``
    per distinct shape of a new row and memo hits for the repeats.
    """
    global _scalar_spent
    if "numpy" in sys.modules or _scalar_spent + cost > SCALAR_BUDGET:
        return True
    _scalar_spent += cost
    return False


def _scalar_rows(rows: Sequence[DesignRow],
                 stage: WorkloadStage) -> "list[tuple[float, float]]":
    """Total (cycles, energy) of each design row on the stage's network,
    one layer at a time through the simulator's layer memo."""
    totals = []
    for row in rows:
        costs = [row_layer_cost(row, layer) for layer in stage.network.layers]
        totals.append((ordered_sum(cost[3] for cost in costs),
                       ordered_sum(cost[4] + cost[5] for cost in costs)))
    return totals


def _evaluate_rows(rows: Sequence[DesignRow],
                   stage: WorkloadStage) -> "list[tuple[float, float]]":
    """Total (cycles, energy) of each design row on the stage's network,
    as (rows x layers) numpy matrices."""
    import numpy as np

    ops = ArrayOps(maximum=np.maximum, minimum=np.minimum,
                   where=np.where, ceil=np.ceil)
    # The design rows as (R, 1) column vectors for broadcasting.
    design = DesignRow._make(
        np.array(values, dtype=bool if name == "row_packing"
                 else np.float64)[:, None]
        for name, values in zip(DesignRow._fields, zip(*rows)))
    _, _, _, cycles, dynamic, leakage = layer_cost(
        ops, design, stage.columns())
    # One layer column at a time across all rows: the scalar order.
    total_cycles = ordered_sum(cycles.T)
    total_energy = ordered_sum((dynamic + leakage).T)
    return list(zip(total_cycles.tolist(), total_energy.tolist()))


def _delta_evaluate(point_rows: "Iterable[tuple[tuple, Sequence[DesignRow]]]",
                    ) -> "tuple[dict, int]":
    """Delta evaluation of each point's ``(workload key, rows)``:
    ``({workload key: {id(row): (cycles, energy)}}, hits)``.

    Only the distinct pairs no earlier call already evaluated (the
    ``batch.rows`` memo) are evaluated, one group per workload, all on
    the path :func:`_numpy_pays` picks for the call; every other pair is
    a delta hit.  Results are keyed on the row *object* (which the
    caller pins), so a row shared by many points
    (:class:`~repro.batch.pack.PackMemo` interns them) is hashed by
    content once, not once per point.
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
    stages = {key: workload_stage(*key) for key in groups}
    evaluate = _evaluate_rows if _numpy_pays(sum(
        len(rows) * stages[key].shapes for key, rows in groups.items())) \
        else _scalar_rows
    for workload_key, rows in groups.items():
        for row, totals in zip(rows, evaluate(rows, stages[workload_key])):
            row_key = (row, workload_key)
            local[row_key] = totals
            ROW_RESULTS.put(row_key, totals)
    return {workload_key: {row_id: local[row_key]
                           for row_id, row_key in seen.items()}
            for workload_key, seen in by_workload.items()}, delta_hits


def _fields(point: PackedPoint, workload_totals: dict) -> tuple:
    """The six analytic fields of ``evaluate_spec`` from a point's
    evaluated rows (runtime = cycles * cycle time)."""
    row_2d, row_m3d = point.row_2d, point.row_m3d
    cycles_2d, energy_2d = workload_totals[id(row_2d)]
    cycles_m3d, energy_m3d = workload_totals[id(row_m3d)]
    speedup = (cycles_2d * row_2d.cycle_time) \
        / (cycles_m3d * row_m3d.cycle_time)
    energy_benefit = energy_2d / energy_m3d
    return (row_2d.n_cs, row_m3d.n_cs, point.footprint, speedup,
            energy_benefit, speedup * energy_benefit)


def analytic_fields(spec: DesignSpec, pdk: PDK | None = None) -> tuple:
    """One spec's six ``evaluate_spec`` fields, the way
    :meth:`BatchKernel.evaluate_calls` computes them, counting nothing.
    Raises what :func:`pack_point` raises for a spec it cannot lower."""
    point = pack_point(spec, pdk if pdk is not None else foundry_m3d_pdk())
    totals, _ = _delta_evaluate(
        ((point.workload_key, (point.row_2d, point.row_m3d)),))
    return _fields(point, totals[point.workload_key])


def analytic_bounds(spec: DesignSpec, pdk: PDK | None = None) -> PointBounds:
    """One spec's bounds, the way :meth:`BatchKernel.bound_calls`
    computes them (see :func:`analytic_fields`)."""
    point = pack_point(spec, pdk if pdk is not None else foundry_m3d_pdk())
    timing, energy = relaxed_rows(point.row_m3d)
    totals, _ = _delta_evaluate(
        ((point.workload_key, (point.row_2d, timing, energy)),))
    return point_bounds(point, timing, energy, totals[point.workload_key])


class BatchKernel:
    """Batched ``evaluate_spec`` and ``spec_bounds`` against one base PDK.

    ``pdk=None`` means the default foundry M3D PDK, matching
    ``evaluate_spec(spec)``'s default — the kernel then only packs the
    one-argument call shape, so its results answer exactly the calls
    per-point dispatch would have made.
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
        does not pack (unexpected shape, mismatched PDK, unsupported spec)
        go through ``evaluate_spec`` one by one, which evaluates them on
        their own PDK or raises the spec's scalar diagnostic.
        """
        results: list = [None] * len(calls)
        packed, fallback = self._pack_calls(calls)
        totals, delta_hits = _delta_evaluate(
            (point.workload_key, (point.row_2d, point.row_m3d))
            for _, point in packed)

        for index, point in packed:
            results[index] = SpecEvaluation(
                point.spec, *_fields(point, totals[point.workload_key]))

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
        kernel does not pack go through ``spec_bounds`` one by one.
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
            results[index] = point_bounds(point, timing, energy,
                                          totals[point.workload_key])

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
        indices that must go one by one."""
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
                except Exception:
                    # Unsupported and invalid specs raise their scalar
                    # diagnostics one by one.
                    pass
            fallback.append(index)
        return packed, fallback
