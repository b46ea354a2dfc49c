"""Pipelined physical sweeps: flows submitted ahead of the chunk being
joined, and the analytic stage run once per (tech, arch, workload).

A physical sweep without pruning submits the ``sweep.physical`` flows of
later chunks while it evaluates and joins the current one.  That must be
invisible in everything a chunk reports and in the stage counters, must
leave nothing running when the consumer stops early, and must resume
from a checkpoint without evaluating anything.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

import repro.spec.evaluate as evaluate_mod
import repro.sweep.stream as stream_mod
from repro.errors import ConfigurationError
from repro.runtime import memoization_disabled, memo_stats, reset_memoization
from repro.runtime.engine import EvaluationEngine
from repro.spec import SweepSpec
from repro.spec.evaluate import evaluate_spec
from repro.sweep import ParetoFrontier, run_streaming_sweep, stream_sweep
from repro.units import MEGABYTE


def _chips_sweep():
    """8 points on 4 chips: each chip carries both networks."""
    return SweepSpec(grid={"arch.capacity_mb": [32, 64],
                           "workload.network": ["resnet18", "mobilenet_v1"],
                           "flow.frequency_mhz": [20.0, 2000.0]})


def _counts(engine, name):
    return dataclasses.replace(engine.report().stage(name), wall_time=0.0)


def _chunk_view(chunk):
    return (chunk.index, [repr(e) for e in chunk.evaluations],
            chunk.infeasible, chunk.failed, chunk.pruned, chunk.resumed)


@pytest.fixture
def ahead_submissions(monkeypatch):
    """The flow submissions the stream makes ahead of their chunk."""
    submitted = []
    original = stream_mod.submit_flows

    def recording(engine, specs, *args, **kwargs):
        handle = original(engine, specs, *args, **kwargs)
        submitted.append(handle)
        return handle

    monkeypatch.setattr(stream_mod, "submit_flows", recording)
    return submitted


def test_lookahead_matches_the_serial_sweep(pdk, ahead_submissions):
    runs = {}
    for jobs in (1, 2):
        engine = EvaluationEngine(jobs=jobs)
        frontier = ParetoFrontier()
        chunks = [_chunk_view(chunk) for chunk in stream_sweep(
            _chips_sweep(), pdk, engine=engine, jobs=jobs, chunk_size=2,
            physical=True, frontier=frontier)]
        runs[jobs] = (chunks, frontier.steps(),
                      _counts(engine, "sweep.evaluate"),
                      _counts(engine, "sweep.physical"))
    assert runs[1] == runs[2]
    chunks, _, analytic, flows = runs[2]
    assert len(chunks) == 4
    assert (flows.calls, flows.cache_hits, flows.cache_misses,
            flows.evaluated) == (8, 4, 4, 4)
    assert (analytic.calls, analytic.evaluated) == (8, 8)
    # Later chunks' flows really were submitted ahead (at both widths).
    assert ahead_submissions


def test_closing_early_leaves_nothing_running(pdk, ahead_submissions):
    engine = EvaluationEngine(jobs=2)
    generator = stream_sweep(_chips_sweep(), pdk, engine=engine, jobs=2,
                             chunk_size=2, physical=True)
    first = next(generator)
    assert first.index == 0 and ahead_submissions
    futures = [future for handle in ahead_submissions
               if handle.dispatch is not None
               for future in handle.dispatch.inflight]
    generator.close()
    assert all(future.done() for future in futures)
    assert engine._unfinished == []
    flows = engine.report().stage("sweep.physical")
    # Only the yielded chunk's flows are counted; the abandoned ones
    # left the stage with their submissions.
    assert (flows.calls, flows.evaluated) == (2, 2)
    pmap_module = sys.modules["repro.runtime.pmap"]
    pool = pmap_module._pool
    assert pool is None or not pool._pending_work_items


def test_a_checkpoint_resumes_without_evaluating(pdk, tmp_path,
                                                 ahead_submissions):
    serial = run_streaming_sweep(_chips_sweep(), pdk, chunk_size=2,
                                 physical=True, checkpoint=tmp_path,
                                 engine=EvaluationEngine(jobs=1), jobs=1)
    ahead_submissions.clear()
    engine = EvaluationEngine(jobs=2)
    resumed = run_streaming_sweep(_chips_sweep(), pdk, chunk_size=2,
                                  physical=True, checkpoint=tmp_path,
                                  engine=engine, jobs=2)
    assert resumed.resumed_chunks == resumed.chunks == 4
    assert resumed.evaluations == serial.evaluations
    assert engine.report().evaluated == 0
    assert ahead_submissions == []


def test_an_early_close_resumes_after_its_last_chunk(pdk, tmp_path):
    generator = stream_sweep(_chips_sweep(), pdk,
                             engine=EvaluationEngine(jobs=2), jobs=2,
                             chunk_size=2, physical=True,
                             checkpoint=tmp_path)
    next(generator)
    next(generator)
    generator.close()
    engine = EvaluationEngine(jobs=2)
    resumed = run_streaming_sweep(_chips_sweep(), pdk, chunk_size=2,
                                  physical=True, checkpoint=tmp_path,
                                  engine=engine, jobs=2)
    assert resumed.resumed_chunks == 2
    assert engine.report().stage("sweep.evaluate").evaluated == 4
    assert resumed.evaluations == tuple(
        evaluate_spec(spec, pdk, physical=True)
        for spec in _chips_sweep().expand())


def test_a_failed_analytic_stage_still_counts_its_chips_flow(
        monkeypatch, pdk):
    analytic = evaluate_mod.evaluate_spec

    def failing_at_64mb(spec, pdk=None, physical=False):
        if spec.arch.capacity_bits == 64 * MEGABYTE:
            raise ConfigurationError("no analytic model at 64 MB")
        return analytic(spec, pdk, physical)

    monkeypatch.setattr(evaluate_mod, "evaluate_spec", failing_at_64mb)
    engine = EvaluationEngine(jobs=1)
    result = run_streaming_sweep(_chips_sweep(), pdk, engine=engine,
                                 chunk_size=2, physical=True,
                                 max_failures=-1)
    assert result.failed == 4
    assert {failure.error_type for failure in result.failures} \
        == {"configuration_error"}
    assert {failure.spec.arch.capacity_bits for failure in result.failures} \
        == {64 * MEGABYTE}
    report = engine.report()
    assert report.stage("sweep.evaluate").failures == 4
    # The flows were submitted before the analytic stage failed: both
    # 64 MB chips ran and count as evaluated, so runtime.evaluated is
    # 8 analytic + 4 flow evaluations.
    assert report.stage("sweep.physical").evaluated == 4
    assert report.evaluated == 12


def test_a_raising_analytic_stage_leaves_nothing_submitted(
        monkeypatch, pdk, ahead_submissions):
    analytic = evaluate_mod.evaluate_spec

    def failing_at_64mb(spec, pdk=None, physical=False):
        if spec.arch.capacity_bits == 64 * MEGABYTE:
            raise ConfigurationError("no analytic model at 64 MB")
        return analytic(spec, pdk, physical)

    monkeypatch.setattr(evaluate_mod, "evaluate_spec", failing_at_64mb)
    engine = EvaluationEngine(jobs=2)
    with pytest.raises(ConfigurationError, match="64 MB"):
        run_streaming_sweep(_chips_sweep(), pdk, engine=engine, jobs=2,
                            chunk_size=2, physical=True)
    # The raising chunk's flows and those read ahead were cancelled.
    assert len(ahead_submissions) > 1
    assert engine._unfinished == []
    pool = sys.modules["repro.runtime.pmap"]._pool
    assert pool is None or not pool._pending_work_items


def _flow_knob_grid():
    return SweepSpec(grid={"arch.capacity_mb": [24, 48],
                           "workload.network": ["resnet18", "mobilenet_v1"],
                           "flow.aspect_ratio": [0.85, 1.0, 1.21],
                           "flow.frequency_mhz": [100.0, 228.0]})


def test_analytic_memo_equals_recomputation(pdk):
    specs = list(_flow_knob_grid().expand())
    reset_memoization()
    memoized = [evaluate_spec(spec, pdk) for spec in specs]
    table = {stats.name: stats for stats in memo_stats()}["spec.analytic"]
    assert (table.misses, table.hits) == (4, len(specs) - 4)
    with memoization_disabled():
        plain = [evaluate_spec(spec, pdk) for spec in specs]
    for left, right in zip(memoized, plain):
        for field in dataclasses.fields(left):
            assert repr(getattr(left, field.name)) \
                == repr(getattr(right, field.name))
