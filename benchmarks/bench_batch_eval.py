"""Vectorized batch kernel benchmark (PR 7) — ``BENCH_PR7.json``.

Compares three strategies over a scaled-up DSE joint grid (the
``core.dse`` axes: capacity x delta x beta x tier pairs, ResNet-18):

* **legacy** — the pre-acceleration strategy: one independent scalar
  ``evaluate_spec`` per point with memoization, fingerprint caching and
  dedup disabled (the PR 2 baseline arm, on spec calls);
* **scalar cold** — the accelerated scalar path: ``evaluate_specs`` with
  memo tables and content-hash dedup, numpy unused;
* **batch cold** — the vectorized kernel: ``evaluate_specs(batch=True)``
  packs the grid into parameter matrices and evaluates the per-layer
  cost model as array operations with delta-evaluation between
  neighboring points.

A warm re-run of the batch arm on the same engine must be served
entirely from the result cache (the batch path writes the same cache
keys the scalar path reads).  The run also records:

* elementwise parity between the scalar and batch arms (the 1e-9
  acceptance bound);
* the ``batch.points`` / ``batch.delta_hits`` / ``batch.fallback_scalar``
  counters of the batch arm;
* the 36-point paper joint grid, all arms, for comparability with
  ``BENCH_PR2.json``.

``--quick`` shrinks the grid ~4x for CI smoke runs; ``--check`` exits
non-zero when the cold speedup falls below ``--min-speedup`` (default
50x), parity exceeds 1e-9, any point fell back to scalar evaluation, or
the warm run re-evaluated anything.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

# The batch kernel (and numpy) is imported up front so that the cold
# arms time cold caches, not a first import.
import repro.batch.kernel  # noqa: E402,F401
from repro.runtime.engine import EvaluationEngine  # noqa: E402
from repro.runtime.keys import (  # noqa: E402
    clear_fingerprint_cache,
    set_fingerprint_cache,
)
from repro.runtime.memo import (  # noqa: E402
    counter_stats,
    reset_memoization,
    set_memoization,
)
from repro.spec import (  # noqa: E402
    ArchSpec,
    DesignSpec,
    TechSpec,
    evaluate_spec,
    evaluate_specs,
)
from repro.units import MEGABYTE  # noqa: E402

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR7.json"

PARITY_BOUND = 1e-9


def build_specs(quick: bool = False) -> "list[DesignSpec]":
    """The DSE joint grid, scaled up (full: 3840 points, quick: 1008)."""
    if quick:
        capacities = [int((12 + 4.0 * i) * MEGABYTE) for i in range(28)]
        deltas = (1.0, 1.6, 2.0)
        betas = (1.0, 1.15, 1.3)
        pairs = (1, 2, 3, 4)
    else:
        capacities = [int((12 + 2.5 * i) * MEGABYTE) for i in range(48)]
        deltas = (1.0, 1.4, 1.6, 2.0, 3.0)
        betas = (1.0, 1.1, 1.2, 1.3)
        pairs = (1, 2, 3, 4)
    return [
        DesignSpec(tech=TechSpec(delta=delta, beta=beta),
                   arch=ArchSpec(capacity_bits=capacity, tier_pairs=tp))
        for capacity in capacities
        for delta in deltas
        for beta in betas
        for tp in pairs
    ]


def paper_grid() -> "list[DesignSpec]":
    """The paper's 36-point joint grid (BENCH_PR2's subject)."""
    return [
        DesignSpec(tech=TechSpec(delta=delta, beta=beta),
                   arch=ArchSpec(capacity_bits=capacity, tier_pairs=tp))
        for capacity in (32 * MEGABYTE, 64 * MEGABYTE, 128 * MEGABYTE)
        for delta in (1.0, 1.6, 2.0)
        for beta in (1.0, 1.3)
        for tp in (1, 2)
    ]


def _cold_state() -> None:
    """Empty every process-wide cache either accelerated arm uses."""
    reset_memoization()
    clear_fingerprint_cache()


def _best_of(repeats, run):
    """Best (minimum) wall time — least noisy on a shared machine."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return min(times), times, result


def _batch_counters() -> dict:
    stats = next((c for c in counter_stats() if c.name == "batch"), None)
    return dict(stats.values) if stats is not None else {}


def _max_rel_diff(reference, candidate) -> float:
    worst = 0.0
    for ref, cand in zip(reference, candidate):
        for attr in ("speedup", "energy_benefit", "edp_benefit"):
            expected = getattr(ref, attr)
            got = getattr(cand, attr)
            diff = abs(got - expected) / abs(expected) if expected \
                else abs(got)
            worst = max(worst, diff)
    return worst


def measure(quick: bool = False, repeats: int = 2) -> dict:
    specs = build_specs(quick=quick)
    calls = [(spec,) for spec in specs]

    # Legacy arm: pointwise scalar with every acceleration disabled.
    def run_legacy():
        _cold_state()
        set_memoization(False)
        set_fingerprint_cache(False)
        try:
            EvaluationEngine(jobs=1).map(evaluate_spec, calls,
                                         stage="bench.legacy", dedup=False)
        finally:
            set_memoization(True)
            set_fingerprint_cache(True)
            _cold_state()

    legacy_s, legacy_all, _ = _best_of(repeats, run_legacy)

    # Accelerated scalar arm, cold.
    def run_scalar():
        _cold_state()
        return evaluate_specs(specs, engine=EvaluationEngine(jobs=1))

    scalar_s, scalar_all, scalar_results = _best_of(repeats, run_scalar)

    # Batch arm, cold.
    def run_batch():
        _cold_state()
        return evaluate_specs(specs, engine=EvaluationEngine(jobs=1),
                              batch=True)

    batch_s, batch_all, batch_results = _best_of(repeats, run_batch)
    # _cold_state resets the counter registry at the top of every run,
    # so the registry now holds exactly the last cold run's counts.
    counters = _batch_counters()
    per_run = {key: counters.get(key, 0)
               for key in ("points", "delta_hits", "fallback_scalar")}

    parity = _max_rel_diff(scalar_results, batch_results)

    # Warm arm: batch again on a warmed engine — pure cache hits.
    _cold_state()
    engine = EvaluationEngine(jobs=1)
    evaluate_specs(specs, engine=engine, batch=True)
    warm_s, warm_all, _ = _best_of(repeats, lambda: evaluate_specs(
        specs, engine=engine, batch=True))
    warm_stage = next(s for s in engine.report().stages
                      if s.name == "spec.evaluate")
    warm_reevaluated = warm_stage.evaluated - len(specs)

    # The paper's 36-point grid, for BENCH_PR2 comparability.
    small = paper_grid()
    small_legacy_s, _, _ = _best_of(repeats, lambda: _run_legacy_small(small))
    _cold_state()
    small_scalar_s, _, _ = _best_of(repeats, lambda: (
        _cold_state(),
        evaluate_specs(small, engine=EvaluationEngine(jobs=1))))
    small_batch_s, _, _ = _best_of(repeats, lambda: (
        _cold_state(),
        evaluate_specs(small, engine=EvaluationEngine(jobs=1), batch=True)))

    return {
        "benchmark": "vectorized batch kernel, scaled DSE joint grid "
                     "(capacity x delta x beta x tier pairs), ResNet-18",
        "grid_points": len(specs),
        "quick": quick,
        "repeats": repeats,
        "legacy_cold_s": round(legacy_s, 6),
        "scalar_cold_s": round(scalar_s, 6),
        "batch_cold_s": round(batch_s, 6),
        "batch_warm_s": round(warm_s, 6),
        "speedup_cold": round(legacy_s / batch_s, 2),
        "speedup_vs_scalar": round(scalar_s / batch_s, 2),
        "speedup_warm": round(legacy_s / warm_s, 2),
        "legacy_us_per_point": round(legacy_s / len(specs) * 1e6, 1),
        "batch_us_per_point": round(batch_s / len(specs) * 1e6, 1),
        "max_rel_diff_vs_scalar": parity,
        "batch_counters_per_cold_run": per_run,
        "warm_reevaluated_points": warm_reevaluated,
        "samples": {
            "legacy_cold_s": [round(t, 6) for t in legacy_all],
            "scalar_cold_s": [round(t, 6) for t in scalar_all],
            "batch_cold_s": [round(t, 6) for t in batch_all],
            "batch_warm_s": [round(t, 6) for t in warm_all],
        },
        "paper_grid_36": {
            "legacy_cold_s": round(small_legacy_s, 6),
            "scalar_cold_s": round(small_scalar_s, 6),
            "batch_cold_s": round(small_batch_s, 6),
        },
    }


def _run_legacy_small(specs) -> None:
    _cold_state()
    set_memoization(False)
    set_fingerprint_cache(False)
    try:
        EvaluationEngine(jobs=1).map(
            evaluate_spec, [(spec,) for spec in specs],
            stage="bench.legacy", dedup=False)
    finally:
        set_memoization(True)
        set_fingerprint_cache(True)
        _cold_state()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="~1k-point grid for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=2,
                        help="runs per arm; best time is reported")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when an acceptance invariant "
                             "fails")
    parser.add_argument("--min-speedup", type=float, default=50.0,
                        help="cold legacy/batch speedup floor enforced by "
                             "--check (default 50)")
    args = parser.parse_args(argv)

    result = measure(quick=args.quick, repeats=args.repeats)
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(f"legacy cold : {result['legacy_cold_s'] * 1e3:9.1f} ms  "
          f"({result['legacy_us_per_point']:.0f} us/pt)")
    print(f"scalar cold : {result['scalar_cold_s'] * 1e3:9.1f} ms")
    print(f"batch cold  : {result['batch_cold_s'] * 1e3:9.1f} ms  "
          f"({result['batch_us_per_point']:.1f} us/pt, "
          f"{result['speedup_cold']:.1f}x legacy, "
          f"{result['speedup_vs_scalar']:.1f}x scalar)")
    print(f"batch warm  : {result['batch_warm_s'] * 1e3:9.1f} ms  "
          f"({result['speedup_warm']:.1f}x legacy)")
    print(f"parity      : {result['max_rel_diff_vs_scalar']:.3e} "
          f"max rel diff; counters {result['batch_counters_per_cold_run']}")

    failures = []
    if result["speedup_cold"] < args.min_speedup:
        failures.append(
            f"cold speedup {result['speedup_cold']:.1f}x is below the "
            f"{args.min_speedup:.0f}x floor")
    if result["max_rel_diff_vs_scalar"] > PARITY_BOUND:
        failures.append(
            f"batch/scalar divergence {result['max_rel_diff_vs_scalar']:.3e} "
            f"exceeds {PARITY_BOUND:.0e}")
    if result["batch_counters_per_cold_run"].get("fallback_scalar"):
        failures.append("batch arm fell back to scalar evaluation")
    if result["warm_reevaluated_points"] > 0:
        failures.append("warm batch run re-evaluated cached points")
    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
