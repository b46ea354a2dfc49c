"""The streaming sweep executor: exactness, pruning, crash-resume.

Three families of guarantees (DESIGN.md Sec. 10):

* **Exactness** — streaming evaluations equal scalar ``evaluate_specs``
  over the expanded grid with exact ``==`` (same resolver, same
  simulator, same engine call shapes), and with pruning enabled the
  surviving frontier equals the exhaustive one.  Golden Fig. 9/10 and
  Table I endpoints stay bit-identical through the streaming path.
* **Bounds** — ``spec_bounds`` is admissible on the whole joint grid:
  exact footprint, EDP-benefit upper bound never below the truth.
* **Durability** — a sweep SIGKILLed mid-flight resumes from its
  checkpoint: completed chunks replay (zero re-evaluations, pinned via
  RunReport stage counters) and the union equals an uninterrupted run.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core.dse import joint_grid_sweep
from repro.runtime.engine import EvaluationEngine
from repro.spec import ArchSpec, DesignSpec, SweepSpec, evaluate_specs
from repro.sweep import (
    ChunkRecord,
    SweepCheckpoint,
    checkpoint_key,
    chunk_hash,
    exhaustive_frontier,
    run_streaming_sweep,
    spec_bounds,
    stream_sweep,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def joint_sweep():
    """The 36-point joint (capacity, delta, beta, Y) grid."""
    return joint_grid_sweep()


@pytest.fixture(scope="module")
def eager(joint_sweep, pdk):
    """Scalar reference evaluations of the joint grid."""
    return evaluate_specs(joint_sweep.expand(), pdk=pdk)


def _stage(report, name):
    return next((s for s in report.stages if s.name == name), None)


# --- exactness vs the eager path -------------------------------------------------


def test_streaming_equals_eager_exactly(joint_sweep, pdk, eager):
    result = run_streaming_sweep(joint_sweep, pdk=pdk, chunk_size=7)
    assert result.points == len(joint_sweep) == 36
    assert result.chunks == 6 and result.pruned == 0
    assert result.evaluations == eager


def test_chunk_size_does_not_change_results(joint_sweep, pdk, eager):
    for chunk_size in (1, 36, 100):
        result = run_streaming_sweep(joint_sweep, pdk=pdk,
                                     chunk_size=chunk_size)
        assert result.evaluations == eager


def test_collect_false_drops_per_point_results(joint_sweep, pdk, eager):
    result = run_streaming_sweep(joint_sweep, pdk=pdk, chunk_size=9,
                                 collect=False)
    assert result.evaluations is None
    assert result.points == 36 and result.evaluated == 36
    expected = exhaustive_frontier(
        (e.footprint, e.edp_benefit, e) for e in eager)
    assert result.frontier.steps() == tuple(
        dict.fromkeys((x, y) for x, y, _ in expected))


def test_pruned_streaming_frontier_is_exact(joint_sweep, pdk, eager):
    result = run_streaming_sweep(joint_sweep, pdk=pdk, chunk_size=5,
                                 prune=True)
    assert result.evaluated + result.pruned == 36
    expected = exhaustive_frontier(
        (e.footprint, e.edp_benefit, e) for e in eager)
    assert result.frontier.steps() == tuple(
        dict.fromkeys((x, y) for x, y, _ in expected))
    assert result.frontier_evaluations() == tuple(
        e for _, _, e in expected)


def test_bounds_admissible_on_the_joint_grid(joint_sweep, pdk, eager):
    for spec, evaluation in zip(joint_sweep.expand(), eager):
        bound = spec_bounds(spec, pdk)
        assert bound.footprint == evaluation.footprint
        assert bound.speedup_ub >= evaluation.speedup
        assert bound.energy_benefit_ub >= evaluation.energy_benefit
        assert bound.edp_benefit_ub >= evaluation.edp_benefit


# --- golden endpoints through the streaming path ---------------------------------


def test_fig9_endpoints_bit_identical(pdk):
    sweep = SweepSpec(base=DesignSpec(),
                      grid={"arch.capacity_mb": [12, 128]})
    result = run_streaming_sweep(sweep, pdk=pdk)
    low, high = result.evaluations
    assert low.spec.arch.capacity_bits == 100663296
    assert low.speedup == 1.0 and low.edp_benefit == 1.0
    assert high.spec.arch.capacity_bits == 1073741824
    assert high.speedup == 6.849705735189993
    assert high.edp_benefit == 6.852184823596777


def test_fig10c_endpoints_bit_identical(pdk):
    sweep = SweepSpec(base=DesignSpec(arch=ArchSpec(baseline="reoptimized")),
                      grid={"tech.delta": [1.0, 3.0]})
    result = run_streaming_sweep(sweep, pdk=pdk, prune=True)
    first, last = result.evaluations
    assert first.speedup == 5.630007688198693
    assert first.edp_benefit == 5.685221320948279
    assert last.edp_benefit == 1.1859212568861623


def test_table1_headline_bit_identical(pdk, resnet18_benefit):
    result = run_streaming_sweep(SweepSpec(base=DesignSpec()), pdk=pdk)
    (evaluation,) = result.evaluations
    assert evaluation.speedup == resnet18_benefit.speedup
    assert evaluation.edp_benefit == resnet18_benefit.edp_benefit


# --- laziness / bounded memory ---------------------------------------------------


def test_stream_never_expands_a_huge_grid():
    deltas = tuple(1.0 + i / 1000.0 for i in range(1000))
    betas = tuple(1.0 + i / 1000.0 for i in range(1000))
    sweep = SweepSpec(base=DesignSpec(),
                      grid={"tech.delta": deltas, "tech.beta": betas})
    assert len(sweep) == 1_000_000
    chunks = list(itertools.islice(
        stream_sweep(sweep, chunk_size=3,
                     engine=EvaluationEngine(jobs=1)), 2))
    assert [c.size for c in chunks] == [3, 3]
    assert all(len(c.evaluations) == 3 for c in chunks)


# --- checkpoint / resume ---------------------------------------------------------


def _capacity_sweep(megabytes=(12, 16, 24, 32, 48, 64)):
    return SweepSpec(base=DesignSpec(),
                     grid={"arch.capacity_mb": list(megabytes)})


def test_resume_replays_every_chunk(tmp_path, pdk):
    sweep = _capacity_sweep()
    cold = run_streaming_sweep(sweep, pdk=pdk, chunk_size=2,
                               checkpoint=tmp_path,
                               engine=EvaluationEngine(jobs=1))
    assert cold.resumed_chunks == 0 and cold.chunks == 3
    warm_engine = EvaluationEngine(jobs=1)
    warm = run_streaming_sweep(sweep, pdk=pdk, chunk_size=2,
                               checkpoint=tmp_path, engine=warm_engine)
    assert warm.resumed_chunks == warm.chunks == 3
    assert warm.evaluations == cold.evaluations
    assert warm.frontier.steps() == cold.frontier.steps()
    # Replay touches the engine's evaluate stage not even once.
    assert _stage(warm_engine.report(), "sweep.evaluate") is None


def test_resume_prunes_identically(tmp_path, pdk):
    sweep = joint_grid_sweep()
    cold = run_streaming_sweep(sweep, pdk=pdk, chunk_size=4, prune=True,
                               checkpoint=tmp_path,
                               engine=EvaluationEngine(jobs=1))
    warm = run_streaming_sweep(sweep, pdk=pdk, chunk_size=4, prune=True,
                               checkpoint=tmp_path,
                               engine=EvaluationEngine(jobs=1))
    assert warm.resumed_chunks == warm.chunks == cold.chunks
    assert warm.pruned == cold.pruned
    assert warm.evaluations == cold.evaluations


def test_checkpoint_keys_isolate_runs(tmp_path, pdk):
    sweep = _capacity_sweep((12, 16))
    run_streaming_sweep(sweep, pdk=pdk, chunk_size=2, checkpoint=tmp_path,
                        engine=EvaluationEngine(jobs=1))
    other_size = run_streaming_sweep(sweep, pdk=pdk, chunk_size=1,
                                     checkpoint=tmp_path,
                                     engine=EvaluationEngine(jobs=1))
    assert other_size.resumed_chunks == 0
    assert checkpoint_key(sweep, pdk=pdk, chunk_size=2) \
        != checkpoint_key(sweep, pdk=pdk, chunk_size=1)
    assert checkpoint_key(sweep, pdk=pdk, chunk_size=2, prune=True) \
        != checkpoint_key(sweep, pdk=pdk, chunk_size=2)


def test_corrupt_record_degrades_to_reevaluation(tmp_path, pdk):
    sweep = _capacity_sweep((12, 16, 24, 32))
    cold = run_streaming_sweep(sweep, pdk=pdk, chunk_size=2,
                               checkpoint=tmp_path,
                               engine=EvaluationEngine(jobs=1))
    store = SweepCheckpoint.for_sweep(tmp_path, sweep, pdk=pdk,
                                      chunk_size=2)
    assert len(store) == 2
    (store.directory / "chunk-00000000.json").write_text("{ torn")
    warm = run_streaming_sweep(sweep, pdk=pdk, chunk_size=2,
                               checkpoint=tmp_path,
                               engine=EvaluationEngine(jobs=1))
    assert warm.resumed_chunks == 1  # the intact record still replays
    assert warm.evaluations == cold.evaluations


def test_record_with_stale_hash_is_refused(tmp_path):
    store = SweepCheckpoint(tmp_path, "0123456789abcdef")
    record = ChunkRecord(index=0, specs_hash=chunk_hash([DesignSpec()]),
                         pruned=0, evaluations=())
    assert store.store(record)
    assert store.get(0, record.specs_hash) == record
    assert store.get(0, "someotherhash") is None
    assert store.get(1, record.specs_hash) is None


def test_sigkill_mid_sweep_resumes_with_zero_reevaluations(tmp_path, pdk):
    """Kill -9 after the second chunk; the restart replays chunks 0-1
    from disk, evaluates only chunk 2, and the union matches an
    uninterrupted run."""
    sweep = _capacity_sweep()
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(sweep.to_json())
    ckpt_dir = tmp_path / "ckpt"
    child = textwrap.dedent("""
        import os, signal, sys
        from repro.runtime.engine import EvaluationEngine
        from repro.spec import load_sweep_spec
        from repro.sweep import stream_sweep
        sweep = load_sweep_spec(sys.argv[1])
        completed = 0
        for chunk in stream_sweep(sweep, chunk_size=2,
                                  checkpoint=sys.argv[2],
                                  engine=EvaluationEngine(jobs=1)):
            completed += 1
            if completed == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        """)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", child, str(spec_path), str(ckpt_dir)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr

    store = SweepCheckpoint.for_sweep(ckpt_dir, sweep, chunk_size=2)
    assert len(store) == 2  # chunks 0 and 1 flushed before the kill

    engine = EvaluationEngine(jobs=1)
    resumed = run_streaming_sweep(sweep, chunk_size=2, checkpoint=ckpt_dir,
                                  engine=engine)
    assert resumed.chunks == 3 and resumed.resumed_chunks == 2
    reference = run_streaming_sweep(
        sweep, chunk_size=2, engine=EvaluationEngine(jobs=1)).evaluations
    assert resumed.evaluations == reference
    # RunReport counters: exactly one chunk (2 points) hit the engine.
    stats = _stage(engine.report(), "sweep.evaluate")
    assert stats is not None
    assert stats.calls == stats.evaluated == 2
