"""The evaluation engine: memoized, parallel, instrumented sweep execution.

Every design-space sweep in this repository is a map of a *pure* function
over a grid of ``(PDK, network, knobs)`` points.  The engine exploits that
purity three ways:

* **memoization** — results are cached under a content hash of the full
  call (function name + every argument field), in memory and optionally
  on disk, so re-runs and overlapping sweeps skip evaluation entirely;
* **parallelism** — cache-missing points evaluate on a deterministic
  process pool (:func:`repro.runtime.pmap.pmap_outcomes`) with ordered
  results, so ``jobs=N`` is observably identical to serial;
* **instrumentation** — per-stage wall time and hit/miss counters
  accumulate into a :class:`RunReport`, printable via
  :func:`repro.experiments.reporting.format_run_report`.

Sweep entry points accept an explicit engine or fall back to the
process-wide default (:func:`default_engine`), which the CLI configures
from ``--jobs`` / ``--cache-dir`` / ``--no-cache``.
"""

from __future__ import annotations

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
from repro.runtime.pmap import DEFAULT_RETRY_POLICY, RetryPolicy, pmap_outcomes


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

    def map(self, fn: Callable[..., Any], calls: Iterable[Any],
            stage: str | None = None, jobs: int | None = None,
            dedup: bool = True, on_error: str = "raise",
            batch_fn: "Callable[[list], list] | None" = None) -> list:
        """Evaluate ``fn`` over ``calls``, returning results in order.

        Each element of ``calls`` is a ``dict`` (keyword arguments), a
        ``tuple`` (positional arguments), or any other value (a single
        positional argument).  Cached results are returned without
        evaluation; with ``dedup`` (the default), content-identical calls
        within the batch evaluate once and share the result; the rest run
        through the process pool or serially, then enter the cache.

        ``jobs`` overrides the engine's worker count for this map only —
        sweeps thread their ``jobs`` argument through here rather than
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
        in its result slot (never cached, shared by dedup followers)
        while every other call still returns its value.  A ``batch_fn``
        that raises in this mode falls back to supervised per-call
        dispatch, which isolates the failing point(s) instead of losing
        the whole batch.
        """
        require(on_error in ("raise", "record"),
                f"on_error must be 'raise' or 'record', got {on_error!r}")
        specs = [self._normalize(item) for item in calls]
        tally = self._stage(stage if stage is not None else fn.__qualname__)
        start = time.perf_counter()
        tally.calls += len(specs)
        before = (tally.cache_hits, tally.dedup_hits, tally.evaluated,
                  tally.retries, tally.failures)
        with _span("engine.map", stage=tally.name,
                   calls=len(specs)) as map_span:
            results = self._map_body(fn, specs, tally, jobs, dedup,
                                     batch_fn, on_error)
            elapsed = time.perf_counter() - start
            tally.wall_time += elapsed
            if map_span:
                map_span.set(cache_hits=tally.cache_hits - before[0],
                             dedup_hits=tally.dedup_hits - before[1],
                             evaluated=tally.evaluated - before[2])
        if _obs_enabled():
            self._record_metrics(tally.name, len(specs), before,
                                 tally, elapsed)
        return results

    def _map_body(self, fn: Callable[..., Any],
                  specs: "list[tuple[tuple, dict]]", tally: "_MutableStage",
                  jobs: int | None, dedup: bool,
                  batch_fn: "Callable[[list], list] | None",
                  on_error: str) -> list:
        """The cache/dedup/evaluate core of :meth:`map`."""
        keys: list[str | None] = []
        for args, kwargs in specs:
            if self.cache is None and not dedup:
                keys.append(None)
                continue
            try:
                keys.append(call_key(fn, args, kwargs))
            except TypeError:
                keys.append(None)

        results: list[Any] = [MISSING] * len(specs)
        pending: list[int] = []
        first_seen: dict[str, int] = {}
        followers: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            if key is not None:
                if self.cache is not None:
                    cached = self.cache.get(key)
                    if cached is not MISSING:
                        results[index] = cached
                        tally.cache_hits += 1
                        continue
                if dedup:
                    owner = first_seen.get(key)
                    if owner is not None:
                        followers.setdefault(owner, []).append(index)
                        tally.dedup_hits += 1
                        continue
                    first_seen[key] = index
                if self.cache is not None:
                    tally.cache_misses += 1
            else:
                tally.uncacheable += 1
            pending.append(index)

        if pending:
            pending_specs = [specs[i] for i in pending]
            evaluated: "list | None" = None
            if batch_fn is not None:
                try:
                    evaluated = batch_fn(pending_specs)
                except Exception:
                    if on_error != "record":
                        raise
                    # The vectorized kernel died on the whole chunk;
                    # supervised scalar dispatch isolates the bad point.
                    evaluated = None
                if evaluated is not None:
                    require(len(evaluated) == len(pending),
                            "batch_fn must return one result per call")
            if evaluated is not None:
                # batch_fn returned a value per call: cache and
                # place them directly.
                tally.evaluated += len(pending)
                cache = self.cache
                for index, value in zip(pending, evaluated):
                    if cache is not None and keys[index] is not None:
                        cache.put(keys[index], value)
                    results[index] = value
                    for follower in followers.get(index, ()):
                        results[follower] = value
                return results
            report = pmap_outcomes(
                fn, pending_specs, jobs=self.jobs if jobs is None else jobs,
                policy=self.retry_policy)
            tally.retries += report.retries
            tally.pool_deaths += report.pool_deaths
            outcomes = report.outcomes
            if on_error == "raise":
                for outcome in outcomes:
                    if outcome.error is not None:
                        raise outcome.error
            tally.evaluated += len(pending)
            for index, outcome in zip(pending, outcomes):
                if outcome.ok:
                    value = outcome.value
                    if keys[index] is not None and self.cache is not None:
                        self.cache.put(keys[index], value)
                else:
                    # Failures are never cached: a retried run must
                    # re-evaluate, not replay the failure.
                    value = EvaluationFailure.from_exception(
                        outcome.error, retries=outcome.retries,
                        pool_deaths=outcome.pool_deaths)
                    tally.failures += 1
                results[index] = value
                for follower in followers.get(index, ()):
                    results[follower] = value

        return results

    @staticmethod
    def _record_metrics(stage: str, calls: int, before: tuple,
                        tally: "_MutableStage", elapsed: float) -> None:
        registry = _metrics_registry()
        registry.counter("repro_engine_calls_total", stage=stage).inc(calls)
        registry.counter("repro_engine_cache_hits_total", stage=stage) \
            .inc(tally.cache_hits - before[0])
        registry.counter("repro_engine_dedup_hits_total", stage=stage) \
            .inc(tally.dedup_hits - before[1])
        registry.counter("repro_engine_evaluated_total", stage=stage) \
            .inc(tally.evaluated - before[2])
        registry.counter("repro_retries_total", stage=stage) \
            .inc(tally.retries - before[3])
        registry.counter("repro_task_failures_total", stage=stage) \
            .inc(tally.failures - before[4])
        registry.histogram("repro_engine_stage_seconds", stage=stage) \
            .observe(elapsed)

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
