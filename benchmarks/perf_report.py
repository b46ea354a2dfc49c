"""End-to-end speedup report for the hot-path acceleration PR.

Measures the joint DSE grid (``repro dse``) three ways on this machine:

* **legacy** — the unaccelerated evaluation strategy: one independent
  ``evaluate_spec`` call per grid point, no layer memoization, no
  fingerprint cache, no within-batch deduplication;
* **cold** — the accelerated path (``run_streaming_sweep`` over
  ``joint_grid_sweep()``) from empty caches: chunked dispatch, batch
  dedup, layer/slice memoization, cached fingerprints;
* **warm** — the accelerated path again on the same engine, where the
  result cache answers every call.

All three arms run at the same ``--jobs`` (default 1) so the comparison
isolates the algorithmic changes from parallelism.  Results land in
``BENCH_PR2.json`` together with the memo/dedup hit-rate statistics of
the cold run and a cold timing of the capacity sweep (Fig. 9).

``--check`` re-measures and exits non-zero if the cold accelerated run
is not at least ``--min-speedup`` (default 2.0) times faster than the
legacy arm — a machine-independent guard against a >2x regression of
the cold-run wall time relative to what this PR recorded.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.dse import joint_grid_sweep  # noqa: E402
from repro.core.insights import sweep_rram_capacity  # noqa: E402
from repro.runtime.engine import EvaluationEngine  # noqa: E402
from repro.runtime.memo import reset_memoization, set_memoization  # noqa: E402
from repro.runtime.keys import (  # noqa: E402
    clear_fingerprint_cache,
    set_fingerprint_cache,
)
from repro.spec.evaluate import evaluate_spec, spec_calls  # noqa: E402
from repro.sweep import run_streaming_sweep  # noqa: E402
from repro.tech import foundry_m3d_pdk  # noqa: E402
from repro.units import MEGABYTE  # noqa: E402

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR2.json"

GRID = dict(
    capacities_bits=(32 * MEGABYTE, 64 * MEGABYTE, 128 * MEGABYTE),
    deltas=(1.0, 1.6, 2.0),
    betas=(1.0, 1.3),
    tier_pairs=(1, 2),
)


def _cold_state():
    """Empty every process-wide cache the accelerated path uses."""
    reset_memoization()
    clear_fingerprint_cache()


def _best_of(repeats, run):
    """Best (minimum) wall time of ``repeats`` runs of ``run()``.

    Minimum, not mean: on a shared machine the minimum is the least
    noisy estimator of the code's intrinsic cost.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times), times


def measure(jobs: int = 1, repeats: int = 3) -> dict:
    pdk = foundry_m3d_pdk()
    sweep = joint_grid_sweep(**GRID)
    calls = spec_calls(sweep.expand(), pdk)

    # Legacy arm: pointwise evaluation with every acceleration disabled.
    def run_legacy():
        _cold_state()
        set_memoization(False)
        set_fingerprint_cache(False)
        try:
            engine = EvaluationEngine(jobs=jobs)
            engine.map(evaluate_spec, calls, stage="legacy.evaluate",
                       dedup=False)
        finally:
            set_memoization(True)
            set_fingerprint_cache(True)
            _cold_state()

    legacy_s, legacy_all = _best_of(repeats, run_legacy)

    # Accelerated arm, cold: fresh engine and empty memo tables each run.
    def run_sweep(engine):
        return run_streaming_sweep(sweep, pdk=pdk, engine=engine, jobs=jobs)

    def run_cold():
        _cold_state()
        run_sweep(EvaluationEngine(jobs=jobs))

    cold_s, cold_all = _best_of(repeats, run_cold)

    # One instrumented cold run to report hit-rate statistics.
    _cold_state()
    engine = EvaluationEngine(jobs=jobs)
    result = run_sweep(engine)
    report = engine.report()
    stage = report.stage("sweep.evaluate")

    # Warm arm: same engine again — the result cache answers everything.
    warm_s, warm_all = _best_of(repeats, lambda: run_sweep(engine))

    # Fig. 9 capacity sweep, accelerated and cold, for the record.
    _cold_state()
    fig9_start = time.perf_counter()
    sweep_rram_capacity(pdk=pdk, engine=EvaluationEngine(jobs=jobs),
                        jobs=jobs)
    fig9_s = time.perf_counter() - fig9_start

    return {
        "benchmark": "joint DSE grid (repro dse), ResNet-18, full factorial",
        "grid_points": result.points,
        "jobs": jobs,
        "repeats": repeats,
        "legacy_cold_s": round(legacy_s, 6),
        "accelerated_cold_s": round(cold_s, 6),
        "accelerated_warm_s": round(warm_s, 6),
        "speedup_cold": round(legacy_s / cold_s, 2),
        "speedup_warm": round(legacy_s / warm_s, 2),
        "fig9_capacity_sweep_cold_s": round(fig9_s, 6),
        "samples": {
            "legacy_cold_s": [round(t, 6) for t in legacy_all],
            "accelerated_cold_s": [round(t, 6) for t in cold_all],
            "accelerated_warm_s": [round(t, 6) for t in warm_all],
            "median_legacy_cold_s": round(statistics.median(legacy_all), 6),
            "median_accelerated_cold_s": round(statistics.median(cold_all), 6),
        },
        "cold_run_stats": {
            "evaluate_calls": stage.calls,
            "evaluated": stage.evaluated,
            "dedup_hits": stage.dedup_hits,
            "dedup_hit_rate": round(stage.dedup_hits / stage.calls, 3),
            "memo_tables": {
                memo.name: {
                    "hits": memo.hits,
                    "misses": memo.misses,
                    "hit_rate": round(memo.hits / memo.lookups, 3),
                }
                for memo in report.memos if memo.lookups
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker count for every arm (default 1)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per arm; best time is reported")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if cold speedup < --min-speedup")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="cold speedup floor enforced by --check")
    args = parser.parse_args(argv)

    result = measure(jobs=args.jobs, repeats=args.repeats)
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(f"legacy cold       : {result['legacy_cold_s'] * 1e3:8.1f} ms")
    print(f"accelerated cold  : {result['accelerated_cold_s'] * 1e3:8.1f} ms"
          f"  ({result['speedup_cold']:.2f}x)")
    print(f"accelerated warm  : {result['accelerated_warm_s'] * 1e3:8.1f} ms"
          f"  ({result['speedup_warm']:.2f}x)")

    if args.check and result["speedup_cold"] < args.min_speedup:
        print(f"FAIL: cold speedup {result['speedup_cold']:.2f}x is below "
              f"the {args.min_speedup:.1f}x floor — the accelerated path "
              f"has regressed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
