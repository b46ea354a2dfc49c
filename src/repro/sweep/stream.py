"""The sweep executor: the one code path that evaluates a grid.

Every grid in the repository — ``repro sweep`` with or without
``--stream``, the ``dse`` experiment, the served ``/v1/sweep`` stream —
runs through :func:`stream_sweep`; :func:`run_streaming_sweep` drives it
to completion, and its default ``collect=True`` is the eager mode.  The
grid is walked as a *stream*:

1. specs materialize one chunk at a time (:meth:`SweepSpec.chunks`, backed
   by the lazy generator — peak spec memory is one chunk, not the grid);
2. each chunk dispatches through the evaluation engine (content-hash
   cache, dedup, persistent worker pool) as the ``sweep.evaluate`` stage;
3. with ``prune=True`` a cheaper ``sweep.bounds`` stage runs first
   (:func:`~repro.sweep.bounds.spec_bounds`, or the batch kernel's
   :meth:`~repro.batch.kernel.BatchKernel.bound_calls` with
   ``batch=True``) and every point whose bounds a frontier member
   *certifiably* dominates is skipped — provably without changing the
   final frontier (see DESIGN.md Sec. 10);
4. completed chunks persist as atomic checkpoint records
   (:mod:`repro.sweep.checkpoint`), each stored as soon as its chunk
   completes; re-running the same sweep replays them instead of
   re-evaluating, so a SIGKILLed sweep resumes exactly after its last
   completed chunk;
5. per-chunk progress lands in the obs metrics registry
   (``repro_sweep_chunks_total``, ``repro_sweep_points_total{status}``,
   ``repro_sweep_frontier_size``, ``repro_sweep_chunk_seconds``) and a
   ``sweep.chunk`` trace span — all zero-cost unless observability is on.

Exactness invariants (enforced by ``tests/test_streaming_sweep.py``):
without pruning the evaluations equal ``evaluate_specs`` over the
expanded grid in order and value; with pruning the surviving frontier
equals the exhaustive frontier; resumed runs return values ``==``
uninterrupted runs.  Engine calls are built by
:func:`~repro.spec.evaluate.spec_calls`, the same helper
``evaluate_specs`` uses, so both share cache entries; physical points
evaluate through :func:`~repro.spec.evaluate.map_physical`, the
``evaluate_specs`` path too (``sweep.evaluate`` and ``sweep.physical``,
one flow pair per chip).  Without pruning, a physical sweep submits the
flows of later chunks while it evaluates and joins the current one, so
the pool does not drain at every chunk.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.errors import EvaluationFailure, PermanentError
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import is_enabled as _obs_enabled, span as _span
from repro.runtime.engine import EvaluationEngine, MapHandle, default_engine
from repro.runtime.pmap import default_jobs, inflight_limit
from repro.spec.evaluate import (
    SpecEvaluation,
    evaluate_spec,
    map_physical,
    spec_calls,
    submit_flows,
)
from repro.spec.sweep import SweepSpec
from repro.sweep.bounds import spec_bounds
from repro.sweep.checkpoint import ChunkRecord, SweepCheckpoint, chunk_hash
from repro.sweep.pareto import ParetoFrontier
from repro.tech.pdk import PDK

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "StreamingSweepResult",
    "SweepChunk",
    "run_streaming_sweep",
    "stream_sweep",
]

#: Default points per dispatched chunk: large enough to keep a worker
#: pool busy, small enough that one in-flight chunk bounds peak memory.
DEFAULT_CHUNK_SIZE = 64


@dataclass(frozen=True)
class SweepChunk:
    """One completed chunk of a streaming sweep.

    Attributes:
        index: Position in the sweep's chunk sequence.
        size: Points the chunk covered (evaluated + pruned).
        evaluations: Results in spec order (pruned points absent).
        pruned: Points skipped by certified frontier domination.
        resumed: True when the chunk was replayed from a checkpoint.
        frontier_size: Frontier size *after* folding this chunk in.
        seconds: Wall-clock time spent producing the chunk.
        infeasible: Evaluated points whose physical flow failed a
            feasibility check (present in ``evaluations``, excluded
            from the frontier); always 0 for non-physical sweeps.
        failures: Points that failed in partial-results mode
            (``max_failures != 0``), as structured
            :class:`~repro.errors.EvaluationFailure` records carrying
            the failed spec; absent from ``evaluations``.
    """

    index: int
    size: int
    evaluations: tuple[SpecEvaluation, ...]
    pruned: int
    resumed: bool
    frontier_size: int
    seconds: float
    infeasible: int = 0
    failures: tuple[EvaluationFailure, ...] = ()

    @property
    def failed(self) -> int:
        """Points recorded as failed in this chunk."""
        return len(self.failures)


@dataclass
class _Planned:
    """A chunk read from the grid: its checkpoint record, if any, and
    its flows when they were submitted ahead of it."""

    index: int
    chunk: tuple
    specs_hash: str | None = None
    record: ChunkRecord | None = None
    flows: MapHandle | None = None


@dataclass(frozen=True)
class StreamingSweepResult:
    """Aggregate of one :func:`run_streaming_sweep` drive.

    Attributes:
        chunks: Chunks processed (computed + resumed).
        points: Total grid points covered.
        pruned: Points never evaluated thanks to certified domination.
        resumed_chunks: Chunks replayed from checkpoint records.
        frontier: The incremental Pareto frontier over
            ``(footprint, edp_benefit)``; payloads are the frontier's
            :class:`~repro.spec.evaluate.SpecEvaluation` objects.
        evaluations: Every evaluation in sweep order, or ``None`` when
            the drive ran with ``collect=False`` (bounded-memory mode).
        infeasible: Evaluated points excluded from the frontier because
            their physical flow failed a feasibility check.  Infeasible
            points are *results*, not errors: they appear in
            ``evaluations`` with a :class:`~repro.spec.evaluate
            .PhysicalSummary` naming the violated checks.
        failures: Structured records of every point that failed in
            partial-results mode (``max_failures != 0``), in sweep
            order.  Always retained, even with ``collect=False``.
    """

    chunks: int
    points: int
    pruned: int
    resumed_chunks: int
    frontier: ParetoFrontier
    evaluations: tuple[SpecEvaluation, ...] | None = field(default=None)
    infeasible: int = 0
    failures: tuple[EvaluationFailure, ...] = ()

    @property
    def failed(self) -> int:
        """Points recorded as failed across the whole sweep."""
        return len(self.failures)

    @property
    def evaluated(self) -> int:
        """Points that produced an evaluation (replays included)."""
        return self.points - self.pruned - self.failed

    def frontier_evaluations(self) -> tuple[SpecEvaluation, ...]:
        """The Pareto-optimal evaluations, by ascending footprint."""
        return self.frontier.items()


def stream_sweep(
    sweep: SweepSpec,
    pdk: PDK | None = None,
    engine: EvaluationEngine | None = None,
    jobs: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    prune: bool = False,
    checkpoint: "SweepCheckpoint | str | os.PathLike | None" = None,
    frontier: ParetoFrontier | None = None,
    batch: bool = False,
    physical: bool = False,
    max_failures: int = 0,
) -> Iterator[SweepChunk]:
    """Lazily evaluate ``sweep`` chunk by chunk, yielding each chunk.

    ``checkpoint`` is a :class:`~repro.sweep.checkpoint.SweepCheckpoint`
    or a directory path (the store inside it is keyed by the sweep's
    content, the PDK, ``chunk_size``, and ``prune``, so unrelated runs
    never cross-contaminate).  Each chunk's record is stored as soon as
    the chunk completes, so a killed run re-evaluates nothing that
    finished.  ``frontier`` lets a caller share/inspect the incremental
    frontier; by default a fresh one is built.  Pruning decisions are certified
    against the frontier as of the *previous* chunks, which is exactly
    what replay reproduces — resumed runs prune identically.

    ``batch=True`` evaluates each chunk's survivors — and, with
    ``prune``, bounds the whole chunk first — as one vectorized kernel
    call (the ``batch_fn`` of :meth:`EvaluationEngine.map`:
    :class:`repro.batch.kernel.BatchKernel`'s ``evaluate_calls`` and
    ``bound_calls``) instead of per-point scalar dispatch; points the
    kernel cannot express fall back to scalar evaluation inside the
    batch.  Cache keys and checkpoint records match the scalar path, and
    results agree with it within 1e-9.

    ``physical=True`` attaches every evaluated point's chip summary
    (``evaluate_spec(..., physical=True)``, evaluated through
    :func:`~repro.spec.evaluate.map_physical`: the analytic
    ``sweep.evaluate`` stage in this process, then the flow once per
    distinct chip as the ``sweep.physical`` stage) and gates the
    frontier on flow feasibility: a point that fails timing, routing,
    power density, or thermal checks still yields a full evaluation (so
    sweeps *report* infeasible points instead of aborting) but is never
    admitted to the frontier.  The physical path is scalar-only, so
    ``batch`` is ignored when ``physical`` is set, mirroring
    ``evaluate_specs``.  Without ``prune`` (and without task deadlines)
    the current chunk's flows and then later chunks' flows are submitted
    before the current chunk's analytic stage runs and its flows are
    joined, so the pool works through both: chunks are read ahead
    while fewer than the dispatcher's in-flight limit (2 x ``jobs``)
    flow tasks are outstanding, chunks the checkpoint holds submit
    nothing, and closing the generator cancels what it submitted.  A
    later chunk's chip that an earlier chunk is still evaluating shares
    that evaluation as a cache hit, so counts match a serial run.

    ``max_failures`` selects **partial-results mode**: with the default
    ``0`` the first failed point raises (the classic all-or-nothing
    contract); a positive budget records up to that many failed points
    as :class:`~repro.errors.EvaluationFailure` entries — in the yielded
    chunks *and* in the checkpoint records, so a resumed run retries
    exactly the failed points and nothing else — and raises
    :class:`~repro.errors.PermanentError` only once the budget is
    exceeded (the breaching chunk's record is already stored, so no
    completed work is lost); a negative value means unlimited.  With
    ``prune``, a point whose bound fails is kept rather than pruned, so
    it is recorded exactly as an unpruned sweep records it.
    """
    engine = engine if engine is not None else default_engine()
    frontier = frontier if frontier is not None else ParetoFrontier()
    kernel = None
    if batch and not physical:
        from repro.batch.kernel import BatchKernel

        kernel = BatchKernel(pdk)
    store: SweepCheckpoint | None
    if checkpoint is None or isinstance(checkpoint, SweepCheckpoint):
        store = checkpoint
    else:
        store = SweepCheckpoint.for_sweep(
            checkpoint, sweep, pdk=pdk, chunk_size=chunk_size, prune=prune,
            physical=physical)
    on_error = "raise" if max_failures == 0 else "record"
    failed_total = 0

    def split(specs, raw):
        """Separate engine results into evaluations and spec-annotated
        failures (slot = position in the chunk's survivor order)."""
        evaluations: list[SpecEvaluation] = []
        failures: list[EvaluationFailure] = []
        for slot, (spec, value) in enumerate(zip(specs, raw)):
            if isinstance(value, EvaluationFailure):
                failures.append(replace(value, spec=spec, index=slot))
            else:
                evaluations.append(value)
        return tuple(evaluations), tuple(failures)

    def evaluate(specs, flows=None) -> list:
        """Engine results for ``specs``, one per spec."""
        if physical:
            return map_physical(engine, specs, pdk, jobs=jobs,
                                stage="sweep", on_error=on_error,
                                flows=flows)
        return engine.map(evaluate_spec, spec_calls(specs, pdk),
                          stage="sweep.evaluate", jobs=jobs,
                          on_error=on_error,
                          batch_fn=kernel.evaluate_calls if kernel else None)

    def retry_failures(record: ChunkRecord) -> ChunkRecord:
        """Resume path: re-evaluate only a record's failed points.

        Successful retries are merged back into their original survivor
        slots; points that fail again stay recorded (same slots), so
        repeated resumes keep converging without re-evaluating anything
        that already succeeded.
        """
        raw = evaluate([failure.spec for failure in record.failures])
        recovered: dict[int, SpecEvaluation] = {}
        still_failed: list[EvaluationFailure] = []
        for failure, value in zip(record.failures, raw):
            if isinstance(value, EvaluationFailure):
                still_failed.append(replace(
                    value, spec=failure.spec, index=failure.index))
            else:
                recovered[failure.index] = value
        slots = len(record.evaluations) + len(record.failures)
        failed_slots = {failure.index for failure in record.failures}
        ordered: list[SpecEvaluation] = []
        replay = iter(record.evaluations)
        for slot in range(slots):
            if slot in failed_slots:
                if slot in recovered:
                    ordered.append(recovered[slot])
            else:
                ordered.append(next(replay))
        return replace(record, evaluations=tuple(ordered),
                       failures=tuple(still_failed))

    def process(planned: _Planned, start: float) -> SweepChunk:
        """Evaluate (or replay) one chunk and fold it into the frontier."""
        nonlocal failed_total
        index, chunk, record = planned.index, planned.chunk, planned.record
        with _span("sweep.chunk", index=index, size=len(chunk)) as sp:
            if record is not None:
                if record.failures:
                    record = retry_failures(record)
                    store.store(record)
                evaluations = record.evaluations
                pruned = record.pruned
                failures = record.failures
            else:
                survivors = chunk
                pruned = 0
                if prune and len(frontier):
                    bounds = engine.map(
                        spec_bounds, spec_calls(chunk, pdk),
                        stage="sweep.bounds", jobs=jobs, on_error=on_error,
                        batch_fn=kernel.bound_calls if kernel else None)
                    kept = []
                    for spec, bound in zip(chunk, bounds):
                        # A point whose bound failed (partial-results
                        # mode) has no certificate: it survives, and
                        # sweep.evaluate records it as unpruned
                        # sweeps do.
                        if isinstance(bound, EvaluationFailure) or \
                                frontier.certified_dominator(
                                    bound.footprint,
                                    bound.edp_benefit_ub) is None:
                            kept.append(spec)
                        else:
                            pruned += 1
                    survivors = tuple(kept)
                if survivors:
                    if lookahead:
                        # This chunk's flows first, then later chunks'.
                        if planned.flows is None:
                            planned.flows = submit_chunk(planned.chunk)
                        prefetch()
                    evaluations, failures = split(survivors, evaluate(
                        survivors, planned.flows))
                else:
                    evaluations = failures = ()
                if store is not None:
                    store.store(ChunkRecord(
                        index=index, specs_hash=planned.specs_hash,
                        pruned=pruned, evaluations=evaluations,
                        failures=failures))
            infeasible = 0
            for evaluation in evaluations:
                feasible = evaluation.is_feasible
                infeasible += not feasible
                frontier.add(evaluation.footprint,
                             evaluation.edp_benefit, evaluation,
                             feasible=feasible)
            if sp:
                sp.set(pruned=pruned, evaluated=len(evaluations),
                       infeasible=infeasible, failed=len(failures),
                       resumed=record is not None,
                       frontier=len(frontier))
        elapsed = time.perf_counter() - start
        failed_total += len(failures)
        if _obs_enabled():
            registry = _metrics_registry()
            status = "resumed" if record is not None else "computed"
            registry.counter("repro_sweep_chunks_total",
                             status=status).inc()
            registry.counter("repro_sweep_points_total",
                             status=status).inc(len(evaluations))
            registry.counter("repro_sweep_points_total",
                             status="pruned").inc(pruned)
            if infeasible:
                registry.counter("repro_sweep_points_total",
                                 status="infeasible").inc(infeasible)
            if failures:
                registry.counter("repro_sweep_points_total",
                                 status="failed").inc(len(failures))
            registry.gauge("repro_sweep_frontier_size") \
                .set(len(frontier))
            registry.histogram("repro_sweep_chunk_seconds") \
                .observe(elapsed)
        if max_failures > 0 and failed_total > max_failures:
            # The breaching chunk's record is already stored: a resume
            # retries exactly its failed points.
            raise PermanentError(
                f"sweep exceeded --max-failures={max_failures}: "
                f"{failed_total} point(s) failed; last: "
                f"{failures[-1].error_type}: {failures[-1].message}")
        return SweepChunk(
            index=index, size=len(chunk), evaluations=evaluations,
            pruned=pruned, resumed=record is not None,
            frontier_size=len(frontier), seconds=elapsed,
            infeasible=infeasible, failures=failures)

    # Flow tasks (and chunks) that may wait ahead of the current chunk.
    # Pruning decides a chunk's survivors from the frontier of the chunks
    # before it, and under deadlines a queued task would spend its
    # deadline waiting, so neither reads ahead.
    lookahead = 0
    if physical and not prune and not engine.retry_policy.task_timeout:
        width = engine.jobs if jobs is None else jobs
        lookahead = inflight_limit(width if width > 0 else default_jobs(),
                                   engine.retry_policy)
    source = enumerate(sweep.chunks(chunk_size))
    ahead: deque[_Planned] = deque()
    # Flow tasks submitted for the chunks in ``ahead``.
    outstanding = 0

    def plan(index: int, chunk) -> _Planned:
        if store is None:  # only the store reads the chunk hash
            return _Planned(index, chunk)
        specs_hash = chunk_hash(chunk)
        return _Planned(index, chunk, specs_hash,
                        store.get(index, specs_hash))

    def submit_chunk(chunk) -> MapHandle:
        return submit_flows(engine, chunk, pdk, jobs=jobs, stage="sweep",
                            on_error=on_error)

    def prefetch() -> None:
        """Submit later chunks' flows while the pool has room."""
        nonlocal outstanding
        while outstanding < lookahead and len(ahead) < lookahead:
            item = next(source, None)
            if item is None:
                return
            planned = plan(*item)
            if planned.record is None:
                planned.flows = submit_chunk(planned.chunk)
                outstanding += planned.flows.tasks
            ahead.append(planned)

    planned = None
    try:
        while True:
            start = time.perf_counter()
            if ahead:
                planned = ahead.popleft()
                if planned.flows is not None:
                    outstanding -= planned.flows.tasks
            else:
                item = next(source, None)
                if item is None:
                    return
                planned = plan(*item)
            yield process(planned, start)
    finally:
        # A generator closed early (or a chunk that raised) abandons the
        # flows it submitted; cancelling a joined submission is a no-op.
        if planned is not None:
            ahead.appendleft(planned)
        while ahead:
            flows = ahead.pop().flows
            if flows is not None:
                flows.cancel()


def run_streaming_sweep(
    sweep: SweepSpec,
    pdk: PDK | None = None,
    engine: EvaluationEngine | None = None,
    jobs: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    prune: bool = False,
    checkpoint: "SweepCheckpoint | str | os.PathLike | None" = None,
    collect: bool = True,
    batch: bool = False,
    physical: bool = False,
    max_failures: int = 0,
) -> StreamingSweepResult:
    """Drive :func:`stream_sweep` to completion and aggregate the run.

    ``collect=False`` drops per-point results as chunks complete —
    memory then holds one chunk plus the frontier, which is what lets a
    100k-point sweep run in bounded RSS (perfbench's ``peak_rss_mb``
    tracks it on the ``sweep-batch`` workload).
    ``batch=True`` evaluates each chunk through the vectorized kernel.
    ``physical=True`` adds the staged physical flow per point and keeps
    infeasible points out of the frontier (they stay in the results,
    counted by :attr:`StreamingSweepResult.infeasible`).
    ``max_failures`` enables partial-results mode exactly as in
    :func:`stream_sweep`; recorded failures aggregate into
    :attr:`StreamingSweepResult.failures` (kept even with
    ``collect=False`` — failure records are small).
    """
    frontier = ParetoFrontier()
    evaluations: list[SpecEvaluation] | None = [] if collect else None
    failures: list[EvaluationFailure] = []
    chunks = points = pruned = resumed = infeasible = 0
    for chunk in stream_sweep(
            sweep, pdk=pdk, engine=engine, jobs=jobs,
            chunk_size=chunk_size, prune=prune, checkpoint=checkpoint,
            frontier=frontier,
            batch=batch, physical=physical, max_failures=max_failures):
        chunks += 1
        points += chunk.size
        pruned += chunk.pruned
        resumed += chunk.resumed
        infeasible += chunk.infeasible
        failures.extend(chunk.failures)
        if evaluations is not None:
            evaluations.extend(chunk.evaluations)
    return StreamingSweepResult(
        chunks=chunks, points=points, pruned=pruned,
        resumed_chunks=resumed, frontier=frontier,
        evaluations=None if evaluations is None else tuple(evaluations),
        infeasible=infeasible, failures=tuple(failures))
