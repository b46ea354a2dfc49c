"""Parallel, memoized evaluation runtime for sweeps and experiments.

Public surface:

* :class:`~repro.runtime.engine.EvaluationEngine` — memoized parallel map
  with per-stage instrumentation; :func:`~repro.runtime.engine.default_engine`
  / :func:`~repro.runtime.engine.configure` manage the process-wide default.
* :func:`~repro.runtime.pmap.pmap` — deterministic process-pool map with
  ordered results and a serial fallback; the supervised dispatcher
  behind it (:func:`~repro.runtime.pmap.pmap_outcomes`) adds per-task
  timeouts, seeded-backoff retries under a :class:`~repro.runtime.pmap.
  RetryPolicy`, pool respawn on worker death, and poison-task
  quarantine.
* :class:`~repro.runtime.cache.ResultCache` — content-addressed LRU +
  optional on-disk JSON store.
* :func:`~repro.runtime.keys.stable_key` — cross-process content hash of
  PDKs, networks, and knobs.
* :func:`~repro.runtime.serialize.to_jsonable` /
  :func:`~repro.runtime.serialize.from_jsonable` — the generic dataclass
  codec behind the disk store and ``to_dict`` / ``from_dict`` helpers.
* :func:`~repro.runtime.memo.memo_table` — named, bounded fingerprint
  memo tables for the hot per-layer paths (simulator, mapper), with a
  global enable switch (:func:`~repro.runtime.memo.set_memoization`) and
  per-table hit/miss stats surfaced in ``RunReport``.
"""

from repro.runtime.cache import MISSING, CacheStats, ResultCache
from repro.runtime.engine import (
    EvaluationEngine,
    RunReport,
    StageStats,
    configure,
    default_engine,
    reset_default_engine,
)
from repro.runtime.keys import (
    call_key,
    clear_fingerprint_cache,
    stable_key,
)
from repro.runtime.memo import (
    CounterStats,
    MemoStats,
    MemoTable,
    add_counts,
    counter_stats,
    memo_stats,
    memo_table,
    memoization_disabled,
    memoization_enabled,
    reset_memoization,
    set_memoization,
)
from repro.runtime.pmap import (
    DEFAULT_RETRY_POLICY,
    DispatchReport,
    RetryPolicy,
    TaskOutcome,
    default_jobs,
    pmap,
    pmap_outcomes,
    shutdown_pool,
)
from repro.runtime.serialize import dumps, from_jsonable, loads, to_jsonable

__all__ = [
    "MISSING",
    "CacheStats",
    "ResultCache",
    "EvaluationEngine",
    "RunReport",
    "StageStats",
    "configure",
    "default_engine",
    "reset_default_engine",
    "call_key",
    "stable_key",
    "CounterStats",
    "MemoStats",
    "MemoTable",
    "add_counts",
    "counter_stats",
    "memo_stats",
    "memo_table",
    "memoization_disabled",
    "memoization_enabled",
    "reset_memoization",
    "set_memoization",
    "DEFAULT_RETRY_POLICY",
    "DispatchReport",
    "RetryPolicy",
    "TaskOutcome",
    "default_jobs",
    "pmap",
    "pmap_outcomes",
    "shutdown_pool",
    "clear_fingerprint_cache",
    "dumps",
    "from_jsonable",
    "loads",
    "to_jsonable",
]
