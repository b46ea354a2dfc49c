"""Capacity benchmark for the streaming sweep executor (PR 6).

Drives a 100,000-point (capacity x tiers x precision x network) sweep —
~2800x the paper's 36-point joint grid — through
:func:`repro.sweep.stream.run_streaming_sweep` in bounded-memory mode
(``collect=False``: resident state is one in-flight chunk plus the
Pareto frontier) with certified pruning and per-chunk checkpointing, and
records in ``BENCH_PR6.json``:

* cold wall time and points/second;
* points pruned by certified frontier domination vs points evaluated;
* peak RSS before and after the sweep (``resource.getrusage``) — the
  bounded-memory claim, measured;
* a warm re-run against the same checkpoint directory: every chunk must
  replay from disk (zero re-evaluations);
* an exactness spot check — the pruned streaming frontier over the
  36-point joint grid equals the brute-force frontier of scalar
  ``evaluate_specs`` over the expanded grid.

``--quick`` shrinks the grid to ~1k points for CI smoke runs; the
measurements and invariants are identical.  ``--check`` exits non-zero
when an invariant fails (resume re-evaluated a chunk, or the exactness
spot check mismatched).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.dse import joint_grid_sweep  # noqa: E402
from repro.runtime.engine import EvaluationEngine  # noqa: E402
from repro.spec import DesignSpec, SweepSpec, evaluate_specs  # noqa: E402
from repro.sweep import (  # noqa: E402
    exhaustive_frontier,
    run_streaming_sweep,
)

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR6.json"


def build_sweep(quick: bool = False) -> SweepSpec:
    """The benchmark grid: capacity x tiers x precision x network.

    Full: 6250 capacities (12-137 MB) x 4 tier counts x 2 precisions x
    2 networks = 100,000 points.  Quick: 63 capacities -> 1008 points.
    """
    if quick:
        capacities = [12 + 2.0 * i for i in range(63)]
    else:
        capacities = [12 + 0.02 * i for i in range(6250)]
    return SweepSpec(base=DesignSpec(), grid={
        "arch.capacity_mb": capacities,
        "arch.tier_pairs": [1, 2, 4, 8],
        "arch.precision_bits": [4, 8],
        "workload.network": ["resnet18", "mobilenet_v1"],
    })


def _rss_mb() -> float:
    """Peak RSS of this process so far, in MB (Linux: ru_maxrss is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def exactness_spot_check() -> bool:
    """Pruned streaming frontier == brute-force frontier, 36-point grid."""
    sweep = joint_grid_sweep()
    reference = evaluate_specs(sweep.expand(),
                               engine=EvaluationEngine(jobs=1))
    expected = exhaustive_frontier(
        (e.footprint, e.edp_benefit, e) for e in reference)
    result = run_streaming_sweep(sweep, chunk_size=5, prune=True,
                                 engine=EvaluationEngine(jobs=1))
    return result.frontier.steps() == tuple(
        dict.fromkeys((x, y) for x, y, _ in expected))


def measure(quick: bool = False, chunk_size: int = 512) -> dict:
    sweep = build_sweep(quick=quick)
    rss_before = _rss_mb()

    with tempfile.TemporaryDirectory(prefix="bench-sweep-ckpt-") as ckpt:
        cold_start = time.perf_counter()
        cold = run_streaming_sweep(
            sweep, engine=EvaluationEngine(jobs=1), chunk_size=chunk_size,
            prune=True, checkpoint=ckpt, collect=False)
        cold_s = time.perf_counter() - cold_start
        rss_after = _rss_mb()

        warm_engine = EvaluationEngine(jobs=1)
        warm_start = time.perf_counter()
        warm = run_streaming_sweep(
            sweep, engine=warm_engine, chunk_size=chunk_size, prune=True,
            checkpoint=ckpt, collect=False)
        warm_s = time.perf_counter() - warm_start
        warm_stage = next((s for s in warm_engine.report().stages
                           if s.name == "sweep.evaluate"), None)

    exact = exactness_spot_check()
    return {
        "benchmark": "streaming sweep, capacity x tiers x precision x "
                     "network, pruned + checkpointed, collect=False",
        "grid_points": len(sweep),
        "chunk_size": chunk_size,
        "quick": quick,
        "cold_s": round(cold_s, 3),
        "cold_points_per_s": round(cold.points / cold_s, 1),
        "chunks": cold.chunks,
        "evaluated": cold.evaluated,
        "pruned": cold.pruned,
        "pruned_fraction": round(cold.pruned / cold.points, 4),
        "frontier_size": len(cold.frontier),
        "rss_before_mb": round(rss_before, 1),
        "rss_peak_mb": round(rss_after, 1),
        "rss_growth_mb": round(rss_after - rss_before, 1),
        "resume": {
            "warm_s": round(warm_s, 3),
            "warm_points_per_s": round(warm.points / warm_s, 1),
            "resumed_chunks": warm.resumed_chunks,
            "chunks": warm.chunks,
            "reevaluated_points": 0 if warm_stage is None
            else warm_stage.evaluated,
            "speedup_vs_cold": round(cold_s / warm_s, 1),
        },
        "exactness_spot_check_36_point_grid": exact,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="~1k-point grid for CI smoke runs")
    parser.add_argument("--chunk-size", type=int, default=512,
                        help="points per streamed chunk (default 512)")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if resume re-evaluated any "
                             "chunk or the exactness spot check failed")
    args = parser.parse_args(argv)

    result = measure(quick=args.quick, chunk_size=args.chunk_size)
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(f"cold   : {result['cold_s']:8.1f} s  "
          f"({result['cold_points_per_s']:.0f} pts/s, "
          f"{result['pruned']} pruned, "
          f"frontier {result['frontier_size']})")
    print(f"resume : {result['resume']['warm_s']:8.1f} s  "
          f"({result['resume']['resumed_chunks']}/{result['resume']['chunks']}"
          f" chunks replayed, "
          f"{result['resume']['reevaluated_points']} points re-evaluated)")
    print(f"rss    : {result['rss_before_mb']:.0f} MB -> "
          f"{result['rss_peak_mb']:.0f} MB peak "
          f"(+{result['rss_growth_mb']:.0f} MB)")

    failures = []
    if result["resume"]["resumed_chunks"] != result["resume"]["chunks"]:
        failures.append("resume replayed fewer chunks than it processed")
    if result["resume"]["reevaluated_points"]:
        failures.append("resume re-evaluated already-checkpointed points")
    if not result["exactness_spot_check_36_point_grid"]:
        failures.append("pruned frontier diverged from the exhaustive one")
    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
