"""The evaluation engine: memoized, parallel, instrumented sweep execution.

Every design-space sweep in this repository is a map of a *pure* function
over a grid of ``(PDK, network, knobs)`` points.  The engine exploits that
purity three ways:

* **memoization** — results are cached under a content hash of the full
  call (function name + every argument field), in memory and optionally
  on disk, so re-runs and overlapping sweeps skip evaluation entirely;
* **parallelism** — cache-missing points evaluate on a deterministic
  process pool (:func:`repro.runtime.pmap.dispatch`) with ordered
  results, so ``jobs=N`` is observably identical to serial;
  :meth:`EvaluationEngine.submit` returns while they run, and
  :meth:`EvaluationEngine.map` is ``submit(...).result()``;
* **instrumentation** — per-stage wall time and hit/miss counters
  accumulate into a :class:`RunReport`, printable via
  :func:`repro.experiments.reporting.format_run_report`.

Sweep entry points accept an explicit engine or fall back to the
process-wide default (:func:`default_engine`), which the CLI configures
from ``--jobs`` / ``--cache-dir`` / ``--no-cache``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import EvaluationFailure, require
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import (
    Span,
    SpanSummary,
    current_tracer,
    is_enabled as _obs_enabled,
    span as _span,
    summarize_spans,
)
from repro.runtime.cache import MISSING, ResultCache
from repro.runtime.keys import call_key
from repro.runtime.memo import CounterStats, MemoStats, counter_stats, memo_stats
from repro.runtime.pmap import (
    DEFAULT_RETRY_POLICY,
    Dispatch,
    RetryPolicy,
    TaskOutcome,
    dispatch,
)


@dataclass(frozen=True)
class StageStats:
    """Counters for one named stage of a run.

    Attributes:
        name: Stage label (defaults to the mapped function's name).
        calls: Results requested through the engine.
        evaluated: Calls actually executed (cache misses + uncacheable).
        cache_hits: Results served from the cache.
        cache_misses: Cacheable calls that had to be evaluated.
        dedup_hits: Calls answered by an identical call in the same batch
            (the sweep planner's common-subexpression sharing).
        uncacheable: Calls whose arguments have no stable key (evaluated
            every time, never stored).
        wall_time: Wall-clock seconds spent in this stage.
        retries: Transient retries the supervised dispatcher consumed
            (deterministic under a seeded fault plan).
        pool_deaths: Worker-pool deaths attributed during this stage.
        failures: Calls recorded as :class:`~repro.errors.EvaluationFailure`
            (partial-results mode only; the raise path counts nothing).
    """

    name: str
    calls: int = 0
    evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dedup_hits: int = 0
    uncacheable: int = 0
    wall_time: float = 0.0
    retries: int = 0
    pool_deaths: int = 0
    failures: int = 0


@dataclass(frozen=True)
class RunReport:
    """Aggregated engine statistics for a run.

    Attributes:
        stages: Per-stage counters, in first-use order.
        jobs: Worker count the engine ran with.
        memos: Fine-grained memo-table counters (layer/mapper/plan
            fingerprint tables), process-wide snapshots.
        counters: Named counter groups (e.g. branch-and-bound search
            totals), process-wide snapshots.
        spans: Root spans of the active trace at snapshot time (empty
            unless tracing was on; see :mod:`repro.obs`).
    """

    stages: tuple[StageStats, ...]
    jobs: int = 1
    memos: tuple[MemoStats, ...] = ()
    counters: tuple[CounterStats, ...] = ()
    spans: tuple[Span, ...] = ()

    @property
    def calls(self) -> int:
        """Total results requested."""
        return sum(stage.calls for stage in self.stages)

    @property
    def evaluated(self) -> int:
        """Total calls actually executed."""
        return sum(stage.evaluated for stage in self.stages)

    @property
    def cache_hits(self) -> int:
        """Total cache hits."""
        return sum(stage.cache_hits for stage in self.stages)

    @property
    def cache_misses(self) -> int:
        """Total cache misses."""
        return sum(stage.cache_misses for stage in self.stages)

    @property
    def dedup_hits(self) -> int:
        """Total within-batch duplicate calls shared."""
        return sum(stage.dedup_hits for stage in self.stages)

    @property
    def wall_time(self) -> float:
        """Total stage wall-clock seconds."""
        return sum(stage.wall_time for stage in self.stages)

    @property
    def retries(self) -> int:
        """Total transient retries across stages."""
        return sum(stage.retries for stage in self.stages)

    @property
    def pool_deaths(self) -> int:
        """Total worker-pool deaths across stages."""
        return sum(stage.pool_deaths for stage in self.stages)

    @property
    def failures(self) -> int:
        """Total calls recorded as failed across stages."""
        return sum(stage.failures for stage in self.stages)

    def stage(self, name: str) -> StageStats:
        """Look up one stage's counters by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r} in run report")

    def top_spans(self, limit: int = 10) -> tuple[SpanSummary, ...]:
        """Per-name span aggregates, by total time descending.

        Empty unless the run was traced; the CLI prints this table under
        ``--profile``.
        """
        return summarize_spans(self.spans, limit=limit)


class _MutableStage:
    """Accumulator behind one :class:`StageStats` snapshot."""

    __slots__ = ("name", "calls", "evaluated", "cache_hits",
                 "cache_misses", "dedup_hits", "uncacheable", "wall_time",
                 "retries", "pool_deaths", "failures")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.evaluated = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.dedup_hits = 0
        self.uncacheable = 0
        self.wall_time = 0.0
        self.retries = 0
        self.pool_deaths = 0
        self.failures = 0

    def snapshot(self) -> StageStats:
        return StageStats(
            name=self.name, calls=self.calls, evaluated=self.evaluated,
            cache_hits=self.cache_hits, cache_misses=self.cache_misses,
            dedup_hits=self.dedup_hits, uncacheable=self.uncacheable,
            wall_time=self.wall_time, retries=self.retries,
            pool_deaths=self.pool_deaths, failures=self.failures)


class EvaluationEngine:
    """Memoized, parallel map over pure evaluation functions."""

    def __init__(self, jobs: int = 1,
                 cache: ResultCache | None = None,
                 cache_dir: str | None = None,
                 use_cache: bool = True,
                 max_memory_entries: int = 4096,
                 retry_policy: RetryPolicy | None = None) -> None:
        require(jobs >= 0, "jobs must be >= 0 (0 = one per CPU)")
        self.jobs = jobs
        self.retry_policy = (retry_policy if retry_policy is not None
                             else DEFAULT_RETRY_POLICY)
        if not use_cache:
            self.cache: ResultCache | None = None
        elif cache is not None:
            self.cache = cache
        else:
            self.cache = ResultCache(max_memory_entries=max_memory_entries,
                                     directory=cache_dir)
        self._stages: dict[str, _MutableStage] = {}
        #: Submissions not yet joined whose calls a later submission may
        #: share (see :meth:`submit`).
        self._unfinished: list[MapHandle] = []

    def map(self, fn: Callable[..., Any], calls: Iterable[Any],
            stage: str | None = None, jobs: int | None = None,
            dedup: bool = True, on_error: str = "raise",
            batch_fn: "Callable[[list], list] | None" = None) -> list:
        """Evaluate ``fn`` over ``calls``, returning results in order.

        ``submit(...).result()``; see :meth:`submit` for the arguments.
        """
        name = stage if stage is not None else fn.__qualname__
        with _span("engine.map", stage=name) as map_span:
            handle = self.submit(fn, calls, stage=name, jobs=jobs,
                                 dedup=dedup, on_error=on_error,
                                 batch_fn=batch_fn)
            results = handle.result()
            if map_span:
                map_span.set(calls=handle.calls,
                             cache_hits=handle.cache_hits,
                             dedup_hits=handle.dedup_hits,
                             evaluated=handle.evaluated)
        return results

    def submit(self, fn: Callable[..., Any], calls: Iterable[Any],
               stage: str | None = None, jobs: int | None = None,
               dedup: bool = True, on_error: str = "raise",
               batch_fn: "Callable[[list], list] | None" = None,
               ) -> "MapHandle":
        """Start evaluating ``fn`` over ``calls``; the returned handle's
        :meth:`~MapHandle.result` gives the results in order.

        Each element of ``calls`` is a ``dict`` (keyword arguments), a
        ``tuple`` (positional arguments), or any other value (a single
        positional argument).  Keys, cache lookups and dedup happen
        here, and the first cache-missing calls are on the process pool
        when this returns (:func:`repro.runtime.pmap.dispatch`); serial
        and ``batch_fn`` evaluation waits for :meth:`MapHandle.result`.
        Cached results are returned without evaluation; with ``dedup``
        (the default), content-identical calls within the batch evaluate
        once and share the result; the rest run through the process pool
        or serially, then enter the cache.  A cacheable call whose key an
        earlier, unfinished submission to this engine evaluates shares
        that evaluation and counts as a cache hit: it is the cache entry
        that submission is about to write.

        ``jobs`` overrides the engine's worker count for this batch only
        — sweeps thread their ``jobs`` argument through here rather than
        mutating the (shared) engine.

        ``batch_fn``, when given, evaluates the cache-missing calls in one
        ``batch_fn(pending_calls)`` invocation instead of per-call
        dispatch: it receives their normalized ``(args, kwargs)`` tuples
        in order and must return one result per call — e.g. the
        vectorized spec kernel
        (:meth:`repro.batch.kernel.BatchKernel.evaluate_calls`).  It runs
        in-process; the batch itself is the parallelism.  Keys, dedup,
        counters and ordering are those of the per-call path, so a
        batched run warms exactly the cache entries a scalar run would.

        ``on_error`` selects the failure contract: ``"raise"`` (the
        default) re-raises the first failed call's exception in input
        order; ``"record"`` enables **partial-results mode** — each
        failed call yields an :class:`~repro.errors.EvaluationFailure`
        in its result slot (never cached, shared by dedup followers and
        by later submissions that share the call) while every other call
        still returns its value.  A ``batch_fn`` that raises in this mode
        falls back to supervised per-call dispatch, which isolates the
        failing point(s) instead of losing the whole batch.
        """
        require(on_error in ("raise", "record"),
                f"on_error must be 'raise' or 'record', got {on_error!r}")
        start = time.perf_counter()
        tally = self._stage(stage if stage is not None else fn.__qualname__)
        handle = MapHandle(self, fn, tally, on_error, batch_fn,
                           self.jobs if jobs is None else jobs)
        try:
            handle.plan(calls, dedup)
            if self.cache is not None and handle.owned:
                self._unfinished.append(handle)
            if handle.pending and batch_fn is None:
                handle.dispatch = dispatch(
                    fn, [handle.specs[index] for index in handle.pending],
                    jobs=handle.jobs, policy=self.retry_policy)
        except BaseException:
            handle._release()
            raise
        handle.count_submission(+1)
        handle.add_time(time.perf_counter() - start)
        return handle

    def report(self) -> RunReport:
        """Snapshot of the per-stage counters accumulated so far.

        Includes process-wide memo-table and search-counter snapshots, so
        one report covers both tiers of memoization (call-level cache +
        layer/mapper fingerprint tables).  When a trace is active, the
        report also carries its root spans (for :meth:`RunReport.top_spans`)
        and the memo snapshots are published to the metrics registry.
        """
        tracer = current_tracer()
        if _obs_enabled():
            from repro.runtime.memo import publish_metrics
            publish_metrics()
        return RunReport(
            stages=tuple(stage.snapshot() for stage in self._stages.values()),
            jobs=self.jobs,
            memos=memo_stats(),
            counters=counter_stats(),
            spans=tuple(tracer.roots) if tracer is not None else ())

    def reset_stats(self) -> None:
        """Zero the stage counters (the cache is untouched)."""
        self._stages.clear()

    def _stage(self, name: str) -> _MutableStage:
        if name not in self._stages:
            self._stages[name] = _MutableStage(name)
        return self._stages[name]

    @staticmethod
    def _normalize(item: Any) -> tuple[tuple, dict]:
        if isinstance(item, dict):
            return (), dict(item)
        if isinstance(item, tuple) and len(item) == 2 \
                and isinstance(item[0], tuple) and isinstance(item[1], dict):
            return item
        if isinstance(item, tuple):
            return item, {}
        return (item,), {}


class MapHandle:
    """One :meth:`EvaluationEngine.submit`: its calls, keys and counts,
    and the evaluation still running for it.

    :meth:`result` finishes the evaluation (the supervised loop of
    :meth:`repro.runtime.pmap.Dispatch.join`, or the serial /
    ``batch_fn`` run), fills the cache and returns the results in input
    order.  :meth:`cancel` abandons a submission nobody will join.
    """

    def __init__(self, engine: "EvaluationEngine", fn: Callable[..., Any],
                 tally: "_MutableStage", on_error: str,
                 batch_fn: "Callable[[list], list] | None",
                 jobs: int) -> None:
        self.engine = engine
        self.fn = fn
        self.tally = tally
        self.on_error = on_error
        self.batch_fn = batch_fn
        self.jobs = jobs
        self.specs: list[tuple[tuple, dict]] = []
        self.keys: list[str | None] = []
        self.results: list[Any] = []
        #: Indices this submission evaluates, in input order.
        self.pending: list[int] = []
        #: In-batch dedup: owner index -> follower indices.
        self.followers: dict[int, list[int]] = {}
        #: ``(index, owner handle, owner index)`` of shared calls.
        self.shared: list[tuple[int, "MapHandle", int]] = []
        #: key -> index of the call that evaluates it: the dedup table,
        #: and what later submissions share while this one is unfinished.
        self.owned: dict[str, int] = {}
        self.dispatch: Dispatch | None = None
        self.calls = self.cache_hits = self.dedup_hits = 0
        self.cache_misses = self.uncacheable = 0
        self.evaluated = self.retries = self.pool_deaths = 0
        self.failures = 0
        self.elapsed = 0.0
        #: index -> TaskOutcome of each failed call, once settled.
        self._failures: dict[int, TaskOutcome] | None = None
        self._error: BaseException | None = None
        self._cancelled = False
        self._lock = threading.Lock()

    @property
    def tasks(self) -> int:
        """Calls this submission evaluates itself (the rest are hits)."""
        return len(self.pending)

    def plan(self, calls: Iterable[Any], dedup: bool) -> None:
        """Key every call and sort it into a cache hit, a share of an
        earlier submission, a dedup follower or a call to evaluate."""
        fn = self.fn
        cache = self.engine.cache
        earlier = tuple(self.engine._unfinished) if cache is not None else ()
        normalize = EvaluationEngine._normalize
        self.specs = specs = [normalize(item) for item in calls]
        self.results = results = [MISSING] * len(specs)
        keys, pending, followers = self.keys, self.pending, self.followers
        owned = self.owned
        hits = dedup_hits = misses = uncacheable = 0
        for index, (args, kwargs) in enumerate(specs):
            key = None
            if cache is not None or dedup:
                try:
                    key = call_key(fn, args, kwargs)
                except TypeError:
                    pass
            keys.append(key)
            if key is None:
                uncacheable += 1
                pending.append(index)
                continue
            if cache is not None:
                cached = cache.get(key)
                if cached is not MISSING:
                    results[index] = cached
                    hits += 1
                    continue
                if earlier:
                    owner = next((other for other in earlier
                                  if key in other.owned), None)
                    if owner is not None:
                        self.shared.append((index, owner, owner.owned[key]))
                        hits += 1
                        continue
            if dedup:
                owner_index = owned.get(key)
                if owner_index is not None:
                    followers.setdefault(owner_index, []).append(index)
                    dedup_hits += 1
                    continue
            if cache is not None:
                misses += 1
            owned.setdefault(key, index)
            pending.append(index)
        self.cache_hits, self.dedup_hits = hits, dedup_hits
        self.cache_misses, self.uncacheable = misses, uncacheable

    def result(self) -> list:
        """The results in input order (see :meth:`EvaluationEngine.submit`
        for the failure contract)."""
        # Each submission charges its own evaluation time to its stage.
        self._settle()
        for _, owner, _ in self.shared:
            owner._settle()
        start = time.perf_counter()
        try:
            results = list(self.results)
            failures = dict(self._failures)
            for index, owner, owner_index in self.shared:
                failure = owner._failures.get(owner_index)
                if failure is None:
                    results[index] = owner.results[owner_index]
                else:
                    failures[index] = failure
            if failures and self.on_error == "raise":
                raise failures[min(failures)].error
            for index, outcome in failures.items():
                results[index] = EvaluationFailure.from_exception(
                    outcome.error, retries=outcome.retries,
                    pool_deaths=outcome.pool_deaths)
            for owner_index, indices in self.followers.items():
                for index in indices:
                    results[index] = results[owner_index]
        finally:
            self.add_time(time.perf_counter() - start)
        if _obs_enabled():
            self._record_metrics()
        return results

    def cancel(self) -> None:
        """Abandon an unfinished submission: no task of it stays queued
        or running, and its counts leave the stage."""
        with self._lock:
            if self._failures is not None or self._cancelled \
                    or self._error is not None:
                return
            self._cancelled = True
            if self.dispatch is not None:
                self.dispatch.cancel()
            self._release()
            self.count_submission(-1)

    def _settle(self) -> None:
        if self._failures is not None:
            return
        with self._lock:
            if self._error is not None:
                raise self._error
            if self._failures is not None:
                return
            require(not self._cancelled,
                    "a cancelled submission has no results")
            if not self.pending:
                self._failures = {}
                return
            start = time.perf_counter()
            try:
                self._failures = self._evaluate()
            except BaseException as error:
                self._error = error
                raise
            finally:
                self._release()
                self.add_time(time.perf_counter() - start)

    def _evaluate(self) -> dict[int, TaskOutcome]:
        """Run the pending calls, place their values in :attr:`results`
        and the cache; the failed calls' outcomes by index."""
        pending = self.pending
        if not pending:
            return {}
        tally = self.tally
        values = None
        if self.batch_fn is not None:
            pending_specs = [self.specs[index] for index in pending]
            try:
                values = self.batch_fn(pending_specs)
            except Exception:
                if self.on_error != "record":
                    raise
                # The vectorized kernel died on the whole chunk;
                # supervised scalar dispatch isolates the bad point.
                self.dispatch = dispatch(
                    self.fn, pending_specs, jobs=self.jobs,
                    policy=self.engine.retry_policy)
            else:
                require(len(values) == len(pending),
                        "batch_fn must return one result per call")
        failures: dict[int, TaskOutcome] = {}
        if values is None:
            report = self.dispatch.join()
            self.dispatch = None
            self.retries += report.retries
            self.pool_deaths += report.pool_deaths
            tally.retries += report.retries
            tally.pool_deaths += report.pool_deaths
            values = []
            for index, outcome in zip(pending, report.outcomes):
                values.append(outcome.value)
                if not outcome.ok:
                    failures[index] = outcome
        results = self.results
        for index, value in zip(pending, values):
            results[index] = value
        if failures and self.on_error == "raise":
            return failures
        self.evaluated += len(pending)
        tally.evaluated += len(pending)
        self.failures += len(failures)
        tally.failures += len(failures)
        keys, cache = self.keys, self.engine.cache
        if cache is not None:
            for index, value in zip(pending, values):
                # Failures are never cached: a retried run must
                # re-evaluate, not replay the failure.
                if keys[index] is not None and index not in failures:
                    cache.put(keys[index], value)
        return failures

    def _release(self) -> None:
        """Stop offering this submission's keys to later submissions."""
        try:
            self.engine._unfinished.remove(self)
        except ValueError:
            pass

    def count_submission(self, sign: int) -> None:
        """Add (or, for a cancelled submission, remove) the counts
        :meth:`EvaluationEngine.submit` makes."""
        self.calls = len(self.specs)
        tally = self.tally
        tally.calls += sign * self.calls
        tally.cache_hits += sign * self.cache_hits
        tally.dedup_hits += sign * self.dedup_hits
        tally.cache_misses += sign * self.cache_misses
        tally.uncacheable += sign * self.uncacheable

    def add_time(self, seconds: float) -> None:
        self.elapsed += seconds
        self.tally.wall_time += seconds

    def _record_metrics(self) -> None:
        registry = _metrics_registry()
        stage = self.tally.name
        registry.counter("repro_engine_calls_total", stage=stage) \
            .inc(self.calls)
        registry.counter("repro_engine_cache_hits_total", stage=stage) \
            .inc(self.cache_hits)
        registry.counter("repro_engine_dedup_hits_total", stage=stage) \
            .inc(self.dedup_hits)
        registry.counter("repro_engine_evaluated_total", stage=stage) \
            .inc(self.evaluated)
        registry.counter("repro_retries_total", stage=stage) \
            .inc(self.retries)
        registry.counter("repro_task_failures_total", stage=stage) \
            .inc(self.failures)
        registry.histogram("repro_engine_stage_seconds", stage=stage) \
            .observe(self.elapsed)


_default_engine: EvaluationEngine | None = None


def default_engine() -> EvaluationEngine:
    """The process-wide engine sweeps use when none is passed explicitly.

    Created lazily as a serial, memory-cached engine; reconfigured by
    :func:`configure` (which the CLI calls from its flags).
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = EvaluationEngine()
    return _default_engine


def configure(jobs: int = 1, cache_dir: str | None = None,
              use_cache: bool = True,
              max_memory_entries: int = 4096) -> EvaluationEngine:
    """Replace the default engine; returns the new one.

    Also retires the persistent worker pool: a reconfigured run should
    not inherit workers forked under the previous configuration.
    """
    from repro.runtime.pmap import shutdown_pool

    global _default_engine
    shutdown_pool()
    _default_engine = EvaluationEngine(
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
        max_memory_entries=max_memory_entries)
    return _default_engine


def reset_default_engine() -> None:
    """Drop the default engine (a fresh one is created on next use)."""
    from repro.runtime.pmap import shutdown_pool

    global _default_engine
    shutdown_pool()
    _default_engine = None
