"""Property tests for the evaluation runtime (``repro.runtime``).

The contracts under test are the ones the sweeps rely on:

* ``pmap(fn, items, jobs=N)`` returns the same values in the same order
  as the serial map, for any ``N`` — parallelism is observably invisible;
* cache keys are pure functions of call *content*: stable across
  processes and equal-but-distinct objects, different whenever any PDK or
  knob field differs;
* a cache round-trip through disk returns an equal result object;
* a sweep at ``jobs>1`` equals the same sweep at ``jobs=1`` exactly, and
  a warm disk cache serves a repeat sweep with zero ``simulate`` calls;
* within one batch, calls with identical content evaluate once
  (``dedup_hits``), and memo tables / the fingerprint cache / the
  persistent worker pool are observationally invisible.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.dse import design_point_spec, joint_grid_sweep
from repro.runtime import (
    MISSING,
    EvaluationEngine,
    MemoTable,
    ResultCache,
    call_key,
    configure,
    default_engine,
    default_jobs,
    dumps,
    from_jsonable,
    loads,
    memoization_disabled,
    pmap,
    pmap_outcomes,
    reset_default_engine,
    reset_memoization,
    set_memoization,
    shutdown_pool,
    stable_key,
    to_jsonable,
)
from repro.errors import ConfigurationError, EvaluationFailure
from repro.experiments.reporting import format_run_report
from repro.spec import SpecEvaluation, WorkloadSpec, evaluate_spec
from repro.sweep import run_streaming_sweep
from repro.units import MEGABYTE
from repro.workloads import resnet18

#: A small but non-trivial joint-DSE grid (4 points) reused across tests.
SMALL_GRID = dict(capacities_bits=(32 * MEGABYTE,), deltas=(1.0, 1.6),
                  betas=(1.0,), tier_pairs=(1, 2))


def _small_sweep(pdk, engine):
    """The SMALL_GRID joint sweep's evaluations, in grid order."""
    return run_streaming_sweep(joint_grid_sweep(**SMALL_GRID), pdk=pdk,
                               engine=engine).evaluations


def _square(x):
    return x * x


def _add(a, b, offset=0):
    return a + b + offset


def _boom(x):
    raise ValueError(f"task failure for {x}")


def _type_name(value):
    return type(value).__name__


def _fragile_square(x):
    if x < 0:
        raise ValueError(f"negative input {x}")
    return x * x


def _batch_squares(seen: list):
    """A ``batch_fn`` for ``_square`` that records the calls it gets."""

    def batch(calls):
        seen.extend(calls)
        return [args[0] * args[0] for args, _ in calls]

    return batch


def _unreachable_batch(calls):
    raise AssertionError(f"batch_fn reached with {calls}")


def _raise_runtime_error(calls):
    raise RuntimeError("kernel died")


@pytest.fixture
def fresh_default_engine():
    """Isolate tests that touch the process-wide default engine."""
    reset_default_engine()
    yield
    reset_default_engine()


class TestPmap:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_matches_serial_map_in_order_and_values(self, jobs):
        items = list(range(12))
        assert pmap(_square, items, jobs=jobs) == [x * x for x in items]

    def test_jobs_zero_uses_all_cpus(self):
        assert default_jobs() >= 1
        assert pmap(_square, [1, 2, 3], jobs=0) == [1, 4, 9]

    def test_negative_jobs_rejected_only_below_auto(self):
        # jobs<=0 means "auto"; the guard inside pmap still holds.
        assert pmap(_square, [2], jobs=-1) == [4]

    def test_empty_input(self):
        assert pmap(_square, [], jobs=4) == []

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_task_exception_propagates(self, jobs):
        with pytest.raises(ValueError, match="task failure"):
            pmap(_boom, [1, 2, 3], jobs=jobs)

    def test_unpicklable_fn_falls_back_to_serial(self):
        offset = 10
        results = pmap(lambda x: x + offset, [1, 2, 3], jobs=4)
        assert results == [11, 12, 13]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_pmap_outcomes_mixed_args_kwargs(self, jobs):
        calls = [((1, 2), {}), ((3, 4), {"offset": 100}), ((0, 0), {})]
        report = pmap_outcomes(_add, calls, jobs=jobs)
        assert [outcome.value for outcome in report.outcomes] == [3, 107, 0]
        assert report.failures == 0


class TestStableKey:
    def test_is_a_sha256_hex_digest(self, pdk):
        key = stable_key(pdk, 64 * MEGABYTE, 1.6)
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_equal_objects_same_key(self, pdk):
        # A freshly reconstructed PDK/network must hash identically.
        assert stable_key(pdk, resnet18(), 1.0) == \
            stable_key(repro.foundry_m3d_pdk(), resnet18(), 1.0)

    def test_stable_across_processes(self, pdk):
        local = stable_key(pdk, resnet18(), 64 * MEGABYTE, 1.6)
        script = (
            "from repro.tech import foundry_m3d_pdk\n"
            "from repro.workloads import resnet18\n"
            "from repro.runtime import stable_key\n"
            "from repro.units import MEGABYTE\n"
            "print(stable_key(foundry_m3d_pdk(), resnet18(), "
            "64 * MEGABYTE, 1.6))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        remote = subprocess.run(
            [sys.executable, "-c", script], env=env, text=True,
            capture_output=True, check=True).stdout.strip()
        assert remote == local

    def test_any_pdk_field_change_changes_key(self, pdk):
        base = stable_key(pdk)
        assert stable_key(pdk.with_ilv_pitch_factor(1.3)) != base
        for field in dataclasses.fields(pdk):
            value = getattr(pdk, field.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            perturbed = dataclasses.replace(pdk, **{field.name: value * 2 + 1})
            assert stable_key(perturbed) != base, field.name

    def test_any_knob_change_changes_key(self, pdk):
        base = call_key(evaluate_spec, (design_point_spec(64 * MEGABYTE),
                                        pdk), {})
        variants = [
            design_point_spec(32 * MEGABYTE),
            design_point_spec(64 * MEGABYTE, delta=1.6),
            design_point_spec(64 * MEGABYTE, beta=1.3),
            design_point_spec(64 * MEGABYTE, tier_pairs=2),
            dataclasses.replace(design_point_spec(64 * MEGABYTE),
                                workload=WorkloadSpec(network="alexnet")),
        ]
        keys = [call_key(evaluate_spec, (spec, pdk), {})
                for spec in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys)

    def test_key_distinguishes_functions(self, pdk):
        assert call_key(_square, (pdk,), {}) != call_key(_type_name, (pdk,), {})


class TestSerialization:
    def test_design_candidate_round_trip(self, pdk):
        candidate = evaluate_spec(
            design_point_spec(32 * MEGABYTE, delta=1.6, tier_pairs=2), pdk)
        data = candidate.to_dict()
        assert candidate == SpecEvaluation.from_dict(
            json.loads(json.dumps(data)))

    def test_from_dict_rejects_other_types(self, resnet18_benefit):
        with pytest.raises(ConfigurationError):
            SpecEvaluation.from_dict(to_jsonable(resnet18_benefit))

    def test_benefit_report_round_trip(self, resnet18_benefit):
        assert loads(dumps(resnet18_benefit)) == resnet18_benefit

    def test_containers_round_trip(self):
        value = {"pair": (1, 2.5), "tags": frozenset({"a", "b"}),
                 "levels": {"x", "y"}, "rows": [(1,), (2,)], "none": None}
        assert from_jsonable(to_jsonable(value)) == value

    def test_canonical_text_is_deterministic(self, pdk):
        assert dumps(pdk) == dumps(repro.foundry_m3d_pdk())

    def test_untrusted_module_rejected(self):
        payload = {"__dataclass__": "os.path:join", "fields": {}}
        with pytest.raises((ValueError, TypeError, ConfigurationError)):
            from_jsonable(payload)

    def test_unserializable_value_raises_type_error(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestResultCache:
    def test_memory_round_trip_and_missing_sentinel(self):
        cache = ResultCache()
        assert cache.get("k") is MISSING
        cache.put("k", None)  # a cached None is not a miss
        assert cache.get("k") is None
        assert "k" in cache
        assert len(cache) == 1

    def test_lru_eviction(self):
        cache = ResultCache(max_memory_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is MISSING
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_disk_round_trip_returns_equal_candidate(self, pdk, tmp_path):
        candidate = evaluate_spec(design_point_spec(32 * MEGABYTE), pdk)
        writer = ResultCache(directory=tmp_path)
        key = stable_key(pdk, 32 * MEGABYTE)
        writer.put(key, candidate)
        reader = ResultCache(directory=tmp_path)  # fresh memory tier
        restored = reader.get(key)
        assert restored == candidate
        assert isinstance(restored, SpecEvaluation)
        assert reader.stats.disk_hits == 1
        assert reader.get(key) == candidate  # now from memory
        assert reader.stats.memory_hits == 1

    def test_tampered_disk_file_degrades_to_miss(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("key", 42)
        (tmp_path / "key.json").write_text("{not json", encoding="utf-8")
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("key") is MISSING

    def test_stats_counters(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.get("absent")
        cache.put("k", 7)
        cache.get("k")
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1


class TestEvaluationEngine:
    def test_explore_parallel_identical_to_serial(self, pdk):
        serial = _small_sweep(pdk, EvaluationEngine(jobs=1, use_cache=False))
        parallel = _small_sweep(pdk, EvaluationEngine(jobs=4,
                                                      use_cache=False))
        assert parallel == serial  # dataclass equality: exact floats
        assert [dumps(p) for p in parallel] == [dumps(s) for s in serial]

    def test_memory_cache_hits_within_one_engine(self, pdk):
        engine = EvaluationEngine()
        # An explicit point repeating the first grid point: two calls
        # with the same content inside one chunk.
        sweep = dataclasses.replace(
            joint_grid_sweep(**SMALL_GRID),
            points=(design_point_spec(32 * MEGABYTE),))
        first = run_streaming_sweep(sweep, pdk=pdk, engine=engine).evaluations
        second = run_streaming_sweep(sweep, pdk=pdk,
                                     engine=engine).evaluations
        assert second == first
        stage = engine.report().stage("sweep.evaluate")
        # One evaluate call per grid point; within the first batch,
        # repeated specs dedup to one evaluation each, and the repeat
        # sweep is served entirely from cache.
        assert stage.calls == 2 * len(first)
        assert stage.evaluated == stage.cache_misses
        assert stage.evaluated + stage.dedup_hits == len(first)
        assert stage.dedup_hits > 0
        assert stage.cache_hits == len(first)

    def test_warm_disk_cache_runs_zero_evaluations(self, pdk, tmp_path,
                                                   monkeypatch):
        from repro.perf.simulator import simulate

        cold = EvaluationEngine(jobs=2, cache_dir=tmp_path)
        expected = _small_sweep(pdk, cold)
        cold_stage = cold.report().stage("sweep.evaluate")
        assert cold_stage.evaluated == cold_stage.cache_misses > 0

        # The acceptance bar: a *fresh* engine over the warm directory must
        # answer entirely from disk — the simulator never runs.
        @functools.wraps(simulate)
        def forbidden(*args, **kwargs):
            raise AssertionError("simulate called on warm cache")

        monkeypatch.setattr("repro.spec.evaluate.simulate", forbidden)
        warm = EvaluationEngine(jobs=1, cache_dir=tmp_path)
        repeat = _small_sweep(pdk, warm)
        assert repeat == expected
        stage = warm.report().stage("sweep.evaluate")
        assert stage.cache_hits == len(expected)
        assert stage.cache_misses == 0
        assert stage.evaluated == 0

    def test_call_spec_normalization(self):
        engine = EvaluationEngine(use_cache=False)
        results = engine.map(_add, [
            {"a": 1, "b": 2},           # kwargs dict
            (3, 4),                     # positional tuple
            ((5, 6), {"offset": 10}),   # explicit (args, kwargs) pair
        ])
        assert results == [3, 7, 21]
        assert engine.map(_square, [5]) == [25]  # bare scalar argument

    def test_uncacheable_arguments_still_evaluate(self):
        engine = EvaluationEngine()
        assert engine.map(_type_name, [object()], stage="s") == ["object"]
        stage = engine.report().stage("s")
        assert stage.uncacheable == 1
        assert stage.evaluated == 1
        assert stage.cache_hits == stage.cache_misses == 0

    def test_single_call_api_memoizes(self):
        engine = EvaluationEngine(jobs=4)
        call = ((1, 2), {"offset": 3})
        assert engine.map(_add, [call], jobs=1) == [6]
        assert engine.map(_add, [call], jobs=1) == [6]
        report = engine.report()
        assert report.cache_hits == 1
        assert report.evaluated == 1
        assert engine.jobs == 4  # the jobs override is per map

    def test_report_aggregates_and_stage_lookup(self):
        engine = EvaluationEngine()
        engine.map(_square, [1, 2], stage="a")
        engine.map(_square, [1], stage="b")  # hit: same key as in "a"
        report = engine.report()
        assert report.calls == 3
        assert report.cache_hits == 1
        assert report.stage("a").calls == 2
        with pytest.raises(KeyError):
            report.stage("missing")
        engine.reset_stats()
        assert engine.report().stages == ()

    def test_format_run_report_greppable_total(self):
        engine = EvaluationEngine()
        engine.map(_square, [1, 2, 3], stage="demo")
        text = format_run_report(engine.report())
        assert "demo" in text
        assert "total: 3 calls, 0 hits, 3 misses, 3 evaluated" in text

    def test_rejects_negative_jobs(self):
        with pytest.raises(ConfigurationError):
            EvaluationEngine(jobs=-1)


class TestBatchFn:
    def test_batch_fn_sees_only_the_misses_in_order(self):
        engine = EvaluationEngine()
        engine.map(_square, [2], stage="warm")
        seen: list = []
        results = engine.map(_square, [3, 2, 5, 3, 4], stage="s",
                             batch_fn=_batch_squares(seen))
        assert results == [9, 4, 25, 9, 16]
        # 2 is a cache hit and the second 3 a dedup follower.
        assert seen == [((3,), {}), ((5,), {}), ((4,), {})]
        stage = engine.report().stage("s")
        assert (stage.calls, stage.cache_hits, stage.dedup_hits,
                stage.cache_misses, stage.evaluated) == (5, 1, 1, 3, 3)

    def test_batch_results_enter_the_cache(self):
        engine = EvaluationEngine()
        engine.map(_square, [3, 5], batch_fn=_batch_squares([]))
        assert engine.map(_square, [5, 3],
                          batch_fn=_unreachable_batch) == [25, 9]
        assert engine.map(_square, [3]) == [9]
        assert engine.report().cache_hits == 3

    def test_dedup_followers_never_reach_batch_fn_without_a_cache(self):
        engine = EvaluationEngine(use_cache=False)
        seen: list = []
        assert engine.map(_square, [4, 4, 4],
                          batch_fn=_batch_squares(seen)) == [16, 16, 16]
        assert seen == [((4,), {})]

    @pytest.mark.parametrize("on_error", ["raise", "record"])
    def test_a_wrong_length_return_raises(self, on_error):
        engine = EvaluationEngine()
        with pytest.raises(ConfigurationError, match="one result per call"):
            engine.map(_square, [1, 2], on_error=on_error,
                       batch_fn=lambda calls: calls[:1])

    def test_a_raising_batch_fn_propagates_by_default(self):
        engine = EvaluationEngine()
        with pytest.raises(RuntimeError, match="kernel died"):
            engine.map(_fragile_square, [1, -1],
                       batch_fn=_raise_runtime_error)

    def test_record_mode_falls_back_to_supervised_dispatch(self):
        engine = EvaluationEngine(jobs=1)
        results = engine.map(_fragile_square, [1, -1, 2, -1], stage="s",
                             on_error="record",
                             batch_fn=_raise_runtime_error)
        assert results[0] == 1 and results[2] == 4
        failure = results[1]
        assert isinstance(failure, EvaluationFailure)
        assert "negative input -1" in failure.message
        assert results[3] is failure  # a dedup follower shares it
        stage = engine.report().stage("s")
        assert stage.failures == 1
        assert stage.evaluated == 3
        # Failures are never cached; the good points are.
        assert engine.map(_fragile_square, [1, 2],
                          batch_fn=_unreachable_batch) == [1, 4]


class TestMemoTables:
    @pytest.fixture(autouse=True)
    def clean_tables(self):
        reset_memoization()
        previous = set_memoization(True)
        yield
        set_memoization(previous)
        reset_memoization()

    def test_hit_and_miss_counting(self):
        table = MemoTable("unit.counting")
        assert table.get("k") is MISSING
        table.put("k", 41)
        assert table.get("k") == 41
        stats = table.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_disabled_tables_bypass_storage(self):
        table = MemoTable("unit.disabled")
        with memoization_disabled():
            table.put("k", 1)
            assert table.get("k") is MISSING
        assert len(table) == 0
        # Disabled lookups are not counted: toggling is observationally
        # invisible apart from recomputation.
        assert table.stats().lookups == 0

    def test_fifo_eviction_beyond_bound(self):
        table = MemoTable("unit.bounded", max_entries=2)
        table.put("a", 1)
        table.put("b", 2)
        table.put("c", 3)
        assert table.get("a") is MISSING
        assert table.get("b") == 2
        assert table.get("c") == 3

    def test_simulator_layer_memo_is_bit_identical(self, pdk):
        from repro.arch.accelerator import m3d_design
        from repro.perf.simulator import simulate
        from repro.units import MEGABYTE as MB

        design = m3d_design(pdk, 64 * MB)
        network = resnet18()
        memoized = simulate(design, network, pdk)
        warm = simulate(design, network, pdk)  # repeated shapes hit
        with memoization_disabled():
            reference = simulate(design, network, pdk)
        for run in (memoized, warm):
            assert run.edp == reference.edp
            for got, want in zip(run.layers, reference.layers):
                assert got == want  # exact float equality, field by field

    def test_memo_stats_surface_in_run_report(self, pdk):
        from repro.arch.accelerator import baseline_2d_design
        from repro.perf.simulator import simulate
        from repro.units import MEGABYTE as MB

        engine = EvaluationEngine()
        design = baseline_2d_design(pdk, 32 * MB)
        engine.map(simulate, [{"design": design, "network": resnet18(),
                               "pdk": pdk}], stage="memo-demo")
        report = engine.report()
        by_name = {memo.name: memo for memo in report.memos}
        assert by_name["simulator.layer"].misses > 0
        assert by_name["simulator.layer"].hits > 0  # repeated shapes


_EVALUATIONS = []


def _tracked_square(x):
    _EVALUATIONS.append(x)
    return x * x


class TestDedupAndPool:
    def test_within_batch_dedup_evaluates_once(self):
        _EVALUATIONS.clear()
        engine = EvaluationEngine()
        results = engine.map(_tracked_square, [7, 7, 7, 3], stage="dd")
        assert results == [49, 49, 49, 9]
        assert _EVALUATIONS == [7, 3]
        stage = engine.report().stage("dd")
        assert stage.calls == 4
        assert stage.evaluated == stage.cache_misses == 2
        assert stage.dedup_hits == 2
        assert stage.cache_hits == 0

    def test_dedup_works_without_cache(self):
        _EVALUATIONS.clear()
        engine = EvaluationEngine(use_cache=False)
        assert engine.map(_tracked_square, [5, 5], stage="dd") == [25, 25]
        assert _EVALUATIONS == [5]
        stage = engine.report().stage("dd")
        assert stage.dedup_hits == 1
        assert stage.cache_misses == 0  # no cache to miss

    def test_dedup_disabled_evaluates_every_call(self):
        _EVALUATIONS.clear()
        engine = EvaluationEngine(use_cache=False)
        assert engine.map(_tracked_square, [5, 5], stage="dd",
                          dedup=False) == [25, 25]
        assert _EVALUATIONS == [5, 5]
        assert engine.report().stage("dd").dedup_hits == 0

    def test_engine_parallel_map_with_shared_objects(self, pdk):
        # Calls sharing objects by identity (here network= and pdk=)
        # cross into the pool per task; results must be indistinguishable
        # from the serial path.
        from repro.perf.simulator import simulate
        from repro.spec.resolve import resolve

        net = resnet18()
        points = [resolve(design_point_spec(capacity), pdk)
                  for capacity in (32 * MEGABYTE, 64 * MEGABYTE)]
        calls = [{"design": design, "network": net, "pdk": pdk}
                 for point in points for design in (point.baseline, point.m3d)]
        serial = EvaluationEngine(jobs=1, use_cache=False).map(
            simulate, calls, stage="shared")
        pooled = EvaluationEngine(jobs=2, use_cache=False).map(
            simulate, calls, stage="shared")
        assert pooled == serial

    def test_shutdown_pool_is_idempotent(self):
        assert pmap(_square, [1, 2, 3], jobs=2) == [1, 4, 9]
        shutdown_pool()
        shutdown_pool()
        assert pmap(_square, [4], jobs=2) == [16]

    def test_pool_persists_across_batches(self):
        # sys.modules lookup: the package re-exports a `pmap` *function*,
        # which shadows the submodule on attribute-style imports.
        import repro.runtime.pmap
        pmap_module = sys.modules["repro.runtime.pmap"]

        shutdown_pool()
        pmap(_square, [1, 2, 3, 4], jobs=2)
        first = pmap_module._pool
        pmap(_square, [5, 6, 7, 8], jobs=2)
        assert pmap_module._pool is first  # same workers, args re-shipped
        shutdown_pool()
        assert pmap_module._pool is None


def _pid_after_a_pause(_):
    import time

    time.sleep(0.2)
    return os.getpid()


def _failing_init(*_args):
    raise RuntimeError("this worker cannot start")


class _NoSemaphores:
    """A multiprocessing context that cannot build a barrier."""

    def Barrier(self, parties):
        raise OSError("no semaphores in this sandbox")


class TestReadyPool:
    """A pool handed out by the dispatcher has every worker started."""

    def test_a_fresh_pool_has_every_worker_started(self):
        pmap_module = sys.modules["repro.runtime.pmap"]
        shutdown_pool()
        pool = pmap_module._acquire_pool(2, None)
        workers = dict(pool._processes)
        assert len(workers) == 2
        assert all(process.is_alive() for process in workers.values())
        pids = pmap(_pid_after_a_pause, range(2), jobs=2)
        assert len(set(pids)) == 2
        assert set(pids) == set(workers)
        shutdown_pool()

    def test_a_deadline_pool_never_times_out_on_cold_start(self):
        import operator

        from repro.runtime.pmap import RetryPolicy

        shutdown_pool()
        report = pmap_outcomes(
            operator.neg, [((x,), {}) for x in range(6)], jobs=2,
            policy=RetryPolicy(task_timeout=0.5, max_retries=0))
        assert report.timeouts == 0
        assert [o.value for o in report.outcomes] == [-x for x in range(6)]
        shutdown_pool()

    def test_no_barrier_falls_back_to_the_serial_path(self, monkeypatch):
        pmap_module = sys.modules["repro.runtime.pmap"]
        shutdown_pool()
        monkeypatch.setattr(pmap_module, "_pool_context", _NoSemaphores)
        report = pmap_outcomes(_square, [((x,), {}) for x in range(4)],
                               jobs=2)
        assert [o.value for o in report.outcomes] == [0, 1, 4, 9]
        assert pmap_module._pool is None

    def test_workers_that_cannot_start_run_the_batch_serially(
            self, monkeypatch):
        pmap_module = sys.modules["repro.runtime.pmap"]
        shutdown_pool()
        # Workers resolve the initializer by name, so they run this one.
        monkeypatch.setattr(pmap_module, "_init_worker", _failing_init)
        with pytest.raises(OSError, match="could not start 2 of its 2"):
            pmap_module._acquire_pool(2, None)
        assert pmap_module._pool is None
        report = pmap_outcomes(_square, [((x,), {}) for x in range(4)],
                               jobs=2)
        assert [o.value for o in report.outcomes] == [0, 1, 4, 9]
        assert (report.pool_deaths, report.retries) == (0, 0)
        assert pmap_module._pool is None

    def test_a_small_batch_starts_only_its_workers(self):
        from repro.runtime.pmap import RetryPolicy

        pmap_module = sys.modules["repro.runtime.pmap"]
        shutdown_pool()
        assert pmap_outcomes(_square, [((3,), {}), ((4,), {})],
                             jobs=4).outcomes[1].value == 16
        small = pmap_module._pool
        assert small._repro_ready == 2
        # A pool's first rendezvous spawns one worker per party.
        shutdown_pool()
        small = pmap_module._acquire_pool(4, None, 2)
        assert len(small._processes) == 2
        # A batch without deadlines takes the live pool as it is.
        assert pmap_module._acquire_pool(4, None, 4) is small
        # A deadline batch needs every worker started: it replaces the
        # pool, and the full pool serves smaller batches too.
        report = pmap_outcomes(
            _square, [((x,), {}) for x in range(2)], jobs=4,
            policy=RetryPolicy(task_timeout=5.0, max_retries=0))
        assert [o.value for o in report.outcomes] == [0, 1]
        full = pmap_module._pool
        assert full is not small and full._repro_ready == 4
        assert len(full._processes) == 4
        assert pmap_module._acquire_pool(4, None, 2) is full
        shutdown_pool()


class TestSubmit:
    """``EvaluationEngine.submit``: ``map`` is ``submit(...).result()``,
    and a call an unfinished submission evaluates is shared."""

    def test_map_is_submit_then_result(self):
        mapped, submitted = EvaluationEngine(), EvaluationEngine()
        calls = [3, 1, 3, (2,), {"x": 4}]
        assert mapped.map(_square, calls, stage="s") \
            == submitted.submit(_square, calls, stage="s").result() \
            == [9, 1, 9, 4, 16]
        first, second = (engine.report().stage("s")
                         for engine in (mapped, submitted))
        assert dataclasses.replace(first, wall_time=0.0) \
            == dataclasses.replace(second, wall_time=0.0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_inflight_call_is_shared_as_a_cache_hit(self, jobs):
        _EVALUATIONS.clear()
        engine = EvaluationEngine(jobs=jobs)
        early = engine.submit(_tracked_square, [2, 3], stage="s")
        late = engine.submit(_tracked_square, [3, 4, 3], stage="s")
        assert late.tasks == 1 and late.cache_hits == 2
        # The later submission finishes the earlier one it shares.
        assert late.result() == [9, 16, 9]
        assert early.result() == [4, 9]
        stage = engine.report().stage("s")
        assert (stage.calls, stage.cache_hits, stage.cache_misses,
                stage.evaluated) == (5, 2, 3, 3)
        if jobs == 1:
            assert sorted(_EVALUATIONS) == [2, 3, 4]
        assert engine._unfinished == []

    def test_nothing_is_shared_without_a_cache(self):
        _EVALUATIONS.clear()
        engine = EvaluationEngine(use_cache=False)
        early = engine.submit(_tracked_square, [5], stage="s")
        late = engine.submit(_tracked_square, [5], stage="s")
        assert late.result() == early.result() == [25]
        assert _EVALUATIONS == [5, 5]

    def test_a_shared_failure_is_recorded_once(self):
        engine = EvaluationEngine()
        early = engine.submit(_fragile_square, [-1, 2], stage="s",
                              on_error="record")
        late = engine.submit(_fragile_square, [-1], stage="s",
                             on_error="record")
        shared, = late.result()
        failed, fine = early.result()
        assert isinstance(shared, EvaluationFailure) and shared == failed
        assert fine == 4
        stage = engine.report().stage("s")
        assert (stage.failures, stage.evaluated, stage.cache_hits) \
            == (1, 2, 1)
        with pytest.raises(ValueError, match="negative input -1"):
            engine.submit(_fragile_square, [-1], stage="t").result()

    def test_cancel_removes_the_submission(self):
        engine = EvaluationEngine(jobs=2)
        handle = engine.submit(_square, [6, 7, 8], stage="s")
        handle.cancel()
        assert engine._unfinished == []
        stage = engine.report().stage("s")
        assert (stage.calls, stage.cache_misses, stage.evaluated) \
            == (0, 0, 0)
        with pytest.raises(ConfigurationError, match="cancelled"):
            handle.result()
        assert engine.map(_square, [6, 7], stage="s") == [36, 49]


class TestFingerprintCache:
    def test_dumps_matches_uncached_reference(self, pdk):
        from repro.runtime import clear_fingerprint_cache

        value = [pdk, resnet18(), {"k": (1, 2.5)}]
        reference = json.dumps(to_jsonable(value), sort_keys=True,
                               separators=(",", ":"))
        clear_fingerprint_cache()
        cold = dumps(value)
        warm = dumps(value)
        assert cold == reference
        assert warm == reference


class TestDefaultEngine:
    def test_configure_replaces_default(self, fresh_default_engine):
        engine = configure(jobs=3, use_cache=False)
        assert default_engine() is engine
        assert engine.jobs == 3
        assert engine.cache is None

    def test_reset_creates_fresh_serial_engine(self, fresh_default_engine):
        configure(jobs=5)
        reset_default_engine()
        engine = default_engine()
        assert engine.jobs == 1
        assert engine.cache is not None


class TestSupervisedDispatch:
    """The fault-tolerant dispatcher behind pmap: retries, timeouts,
    pool respawn, and poison quarantine — all deterministic under a
    seeded fault plan."""

    @staticmethod
    def _token(fn, *args):
        from repro.runtime.keys import call_key

        return call_key(fn, args, {})

    def test_transient_retry_is_counted_and_succeeds(self):
        from repro.faults import FaultPlan, FaultRule, injected_faults
        from repro.runtime.pmap import RetryPolicy, pmap_outcomes

        plan = FaultPlan(rules=(FaultRule(
            site="task.transient", match=self._token(_square, 2),
            times=1),))
        policy = RetryPolicy(max_retries=2, backoff_base=0.0)
        with injected_faults(plan):
            report = pmap_outcomes(_square, [((2,), {}), ((3,), {})],
                                   jobs=1, policy=policy)
        assert [o.value for o in report.outcomes] == [4, 9]
        assert [o.retries for o in report.outcomes] == [1, 0]
        assert report.retries == 1
        assert report.failures == 0

    def test_exhausted_retries_record_the_transient_error(self):
        from repro.errors import TransientError
        from repro.faults import FaultPlan, FaultRule, injected_faults
        from repro.runtime.pmap import RetryPolicy, pmap_outcomes

        plan = FaultPlan(rules=(FaultRule(
            site="task.transient", match=self._token(_square, 2),
            times=0),))
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        with injected_faults(plan):
            report = pmap_outcomes(_square, [((2,), {}), ((3,), {})],
                                   jobs=1, policy=policy)
        failed, fine = report.outcomes
        assert not failed.ok and isinstance(failed.error, TransientError)
        assert failed.retries == 1
        assert fine.ok and fine.value == 9

    def test_transient_counts_match_between_serial_and_parallel(
            self, tmp_path):
        from dataclasses import replace
        from repro.faults import FaultPlan, FaultRule, injected_faults
        from repro.runtime.pmap import RetryPolicy, pmap_outcomes

        calls = [((x,), {}) for x in range(20)]
        # `times` budgets need the shared file ledger to span workers:
        # one fresh ledger per run keeps the two runs independent.
        plan = FaultPlan(seed=5, state_dir=str(tmp_path / "serial"),
                         rules=(FaultRule(
                             site="task.transient", rate=0.3, times=1),))
        policy = RetryPolicy(max_retries=2, backoff_base=0.0)
        with injected_faults(plan):
            serial = pmap_outcomes(_square, calls, jobs=1, policy=policy)
        with injected_faults(replace(plan,
                                     state_dir=str(tmp_path / "par"))):
            parallel = pmap_outcomes(_square, calls, jobs=2, policy=policy)
        assert serial.retries == parallel.retries > 0
        assert [o.value for o in serial.outcomes] \
            == [o.value for o in parallel.outcomes]

    def test_poison_task_is_quarantined_not_retried_forever(self, tmp_path):
        from repro.errors import PoisonTaskError
        from repro.faults import FaultPlan, FaultRule, injected_faults
        from repro.runtime.pmap import RetryPolicy, pmap_outcomes

        calls = [((x,), {}) for x in range(8)]
        plan = FaultPlan(state_dir=str(tmp_path), rules=(FaultRule(
            site="task.crash", match=self._token(_square, 3), times=0),))
        policy = RetryPolicy(max_retries=1, backoff_base=0.0,
                             max_pool_deaths=2)
        with injected_faults(plan):
            report = pmap_outcomes(_square, calls, jobs=2, policy=policy)
        outcomes = report.outcomes
        assert not outcomes[3].ok
        assert isinstance(outcomes[3].error, PoisonTaskError)
        assert outcomes[3].pool_deaths == 2
        for index, outcome in enumerate(outcomes):
            if index != 3:
                assert outcome.ok and outcome.value == index * index
        assert report.pool_deaths == 2

    def test_hung_task_times_out_and_retries(self, tmp_path):
        from repro.faults import FaultPlan, FaultRule, injected_faults
        from repro.runtime.pmap import RetryPolicy, pmap_outcomes

        calls = [((x,), {}) for x in range(6)]
        plan = FaultPlan(state_dir=str(tmp_path), rules=(FaultRule(
            site="task.hang", match=self._token(_square, 2), times=1,
            hang_seconds=30.0),))
        policy = RetryPolicy(max_retries=2, backoff_base=0.0,
                             task_timeout=0.8)
        with injected_faults(plan):
            report = pmap_outcomes(_square, calls, jobs=2, policy=policy)
        assert [o.value for o in report.outcomes] \
            == [x * x for x in range(6)]
        assert report.timeouts == 1
        assert report.outcomes[2].retries >= 1

    def test_pmap_raises_the_original_error_type(self):
        with pytest.raises(ValueError, match="task failure for 1"):
            pmap(_boom, [1], jobs=2)
