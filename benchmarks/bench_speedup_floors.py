"""Cold-run speedup floors of the accelerated paths over the legacy arm.

The **legacy arm** is the unaccelerated evaluation strategy: one
independent ``evaluate_spec`` call per point with layer memoization, the
fingerprint cache and within-batch dedup all disabled.  Both floors time
it on the same machine as the arm they guard, so each ratio is
machine-independent:

* the cold streaming sweep over the paper's 36-point DSE joint grid
  (``repro dse``) is at least 2x faster (best of 3 per arm);
* the cold vectorized batch kernel over a 1,008-point scaled joint grid
  is at least 50x faster (best of 2 per arm).

Both are wall-time ratios, so they run with the benchmarks rather than
in the deterministic tier-1 suite; batch parity, fallbacks and warm
re-evaluation on the same 1,008-point grid are tier-1 assertions
(``tests/test_batch_kernel.py::test_dse_grid_parity``).

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_speedup_floors.py``
"""

from __future__ import annotations

import contextlib
import time

from _reporting import report_table

# numpy and the batch kernel are imported up front so that the cold arms
# time cold caches, not a first import.  The kernel imports numpy only
# for a call whose new rows pay for it; with numpy loaded, both cold arms
# run its numpy path.
import numpy  # noqa: F401
import repro.batch.kernel  # noqa: F401
from repro.core.dse import joint_grid_sweep
from repro.experiments.reporting import format_table, times
from repro.runtime.engine import EvaluationEngine
import repro.runtime.keys as keys
from repro.runtime.keys import clear_fingerprint_cache
from repro.runtime.memo import reset_memoization, set_memoization
from repro.spec import ArchSpec, DesignSpec, TechSpec, evaluate_specs
from repro.spec.evaluate import evaluate_spec, spec_calls
from repro.sweep import run_streaming_sweep
from repro.tech import foundry_m3d_pdk
from repro.units import MEGABYTE

SWEEP_FLOOR = 2.0
BATCH_FLOOR = 50.0


def scaled_grid() -> list[DesignSpec]:
    """The DSE joint grid at 1,008 points (28 capacities x 3 deltas x
    3 betas x 4 tier pairs)."""
    return [
        DesignSpec(tech=TechSpec(delta=delta, beta=beta),
                   arch=ArchSpec(capacity_bits=int((12 + 4.0 * i) * MEGABYTE),
                                 tier_pairs=pairs))
        for i in range(28)
        for delta in (1.0, 1.6, 2.0)
        for beta in (1.0, 1.15, 1.3)
        for pairs in (1, 2, 3, 4)
    ]


def _cold_state() -> None:
    """Empty every process-wide cache the accelerated paths use."""
    reset_memoization()
    clear_fingerprint_cache()


class _StoresNothing(dict):
    """An identity cache that never keeps an entry."""

    def __setitem__(self, key, value) -> None:
        pass


@contextlib.contextmanager
def _fingerprint_cache_off():
    """Run with the key encoder's identity cache storing nothing, so
    every encoding is a fresh build (the text is identical either way)."""
    saved = keys._by_identity
    keys._by_identity = _StoresNothing()
    try:
        yield
    finally:
        keys._by_identity = saved


def _best_of(repeats: int, run) -> float:
    """Minimum wall time of ``repeats`` runs: on a shared machine the
    least noisy estimator of the code's own cost."""
    times_s = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times_s.append(time.perf_counter() - start)
    return min(times_s)


def legacy_seconds(calls: list, repeats: int) -> float:
    """Best-of-``repeats`` wall time of the legacy arm over ``calls``."""

    def run() -> None:
        _cold_state()
        set_memoization(False)
        try:
            with _fingerprint_cache_off():
                EvaluationEngine(jobs=1).map(
                    evaluate_spec, calls, stage="legacy.evaluate",
                    dedup=False)
        finally:
            set_memoization(True)
            _cold_state()

    return _best_of(repeats, run)


def _report(arm: str, points: int, legacy_s: float, cold_s: float,
            floor: float) -> float:
    """Register the measured ratio for the end-of-run summary."""
    speedup = legacy_s / cold_s
    report_table(f"speedup_floor {arm}", format_table(
        f"Cold {arm} vs the legacy arm (this machine)",
        ["points", "legacy ms", "cold ms", "speedup", "floor"],
        [[points, f"{legacy_s * 1e3:.1f}", f"{cold_s * 1e3:.1f}",
          times(speedup), times(floor, 0)]]))
    return speedup


def test_cold_sweep_is_2x_the_legacy_arm():
    pdk = foundry_m3d_pdk()
    sweep = joint_grid_sweep()
    legacy_s = legacy_seconds(spec_calls(sweep.expand(), pdk), repeats=3)

    def run_cold() -> None:
        _cold_state()
        run_streaming_sweep(sweep, pdk=pdk, engine=EvaluationEngine(jobs=1),
                            jobs=1)

    cold_s = _best_of(3, run_cold)
    speedup = _report("sweep", len(sweep), legacy_s, cold_s, SWEEP_FLOOR)
    assert speedup >= SWEEP_FLOOR, (
        f"cold sweep {speedup:.2f}x the legacy arm, below the "
        f"{SWEEP_FLOOR:.0f}x floor")


def test_cold_batch_is_50x_the_legacy_arm():
    specs = scaled_grid()
    legacy_s = legacy_seconds([(spec,) for spec in specs], repeats=2)

    def run_cold() -> None:
        _cold_state()
        evaluate_specs(specs, engine=EvaluationEngine(jobs=1), batch=True)

    cold_s = _best_of(2, run_cold)
    speedup = _report("batch kernel", len(specs), legacy_s, cold_s,
                      BATCH_FLOOR)
    assert speedup >= BATCH_FLOOR, (
        f"cold batch {speedup:.1f}x the legacy arm, below the "
        f"{BATCH_FLOOR:.0f}x floor")
