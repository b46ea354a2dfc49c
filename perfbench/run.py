"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, default seed
    python3 perfbench/run.py --compare A.jsonl B.jsonl

A run launches repetitions of one workload, each in a fresh process
(:mod:`perfbench.rep`), until ``--seconds`` would be exceeded, while a
background thread times a fixed reference computation on every CPU in
turn (:mod:`perfbench.host`).  It reports throughput over all
timed windows and the median per-repetition set-up time, both rescaled
to the reference host's speed, and the median peak memory; the figures
as measured and the latency percentiles are printed beside them.
``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with no
``--workload`` it covers every workload, and each metric name is
prefixed with ``<workload>.``.  ``--record FILE`` appends each run to a
JSON-lines file, which ``--compare`` reads.  Needs Linux (``/proc``,
CPU affinity) and Python 3.11 or later.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import host  # noqa: E402
from perfbench.stats import median, nearest_rank  # noqa: E402

PLAN = json.loads((ROOT / "perfbench" / "workloads.json").read_text())

#: Tail percentile printed with each run's latencies.  serve-eval times
#: requests (thousands per run, so p99 has tens beyond it); the sweeps
#: time streamed chunks (about a hundred or more per run), and p90 keeps
#: the one cold first chunk of each repetition from deciding it.
#: Latency percentiles are printed, not reported as bounded metrics: a
#: shared virtual machine alternates between a fast and a much slower
#: state within seconds, and a tail percentile of that mixture jumps
#: from run to run even rescaled to the reference host (10-seed spreads
#: up to 0.3), while throughput over all windows moves smoothly.
TAIL_PERCENTILE = {"sweep-batch": 90, "sweep-prune-resume": 90,
                   "sweep-physical": 90, "serve-eval": 99}

#: Fewest repetitions (untraced) or untraced+traced pairs (traced) a run
#: makes, however long they take.
MIN_REPS = 3
MIN_PAIRS = 2
REP_TIMEOUT_S = 120.0


class BenchmarkError(RuntimeError):
    """A repetition crashed or the program is missing."""


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _reap(group: int, timeout: float = 5.0) -> None:
    """Wait until no live process remains in process group ``group``
    (pool workers, the forkserver, a server); kill stragglers."""
    deadline = time.monotonic() + timeout
    while True:
        alive = host.process_group(group)
        if not alive:
            return
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def launch(workload: str, seed: int, traced: bool) -> dict:
    """Run one repetition in a fresh process; its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "perfbench.rep", "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced)),
               "--t0", repr(time.time())]
    # Its own process group, for _reap; the launcher's session, so the
    # repetition's niceness counts against the host-speed sampler (the
    # scheduler weighs niceness within a session's autogroup only).
    process = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE, process_group=0)
    try:
        out, _ = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(f"{workload} repetition exceeded "
                             f"{REP_TIMEOUT_S:g} s")
    finally:
        _reap(process.pid)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} repetition exited with "
                             f"{process.returncode}")
    return json.loads(lines[-1])


class Run:
    """One run's repetition records and the host speed sampled meanwhile."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.reference_s: list[float] = []

    @property
    def speed(self) -> float:
        """Host speed relative to the reference host (< 1: slower)."""
        return host.REFERENCE_S * len(self.reference_s) \
            / sum(self.reference_s)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Run:
    """Repetitions (untraced, or untraced+traced pairs) for ``seconds``,
    with the host's speed sampled while they run."""
    plan = (False, True) if traced else (False,)
    minimum = MIN_PAIRS if traced else MIN_REPS
    run = Run()
    start = now = time.perf_counter()
    longest = 0.0
    rounds = 0
    with host.SpeedSampler(run.reference_s):
        while rounds < minimum or now - start + longest <= seconds:
            round_start = time.perf_counter()
            run.records.extend(launch(workload, seed, flag) for flag in plan)
            rounds += 1
            now = time.perf_counter()
            longest = max(longest, now - round_start)
    return run


def _verdict(records: list[dict]) -> tuple[bool, list[str]]:
    problems = [f"{'traced' if r['traced'] else 'untraced'} repetition: "
                f"{error}" for r in records for error in r["errors"]]
    if len({record["digest"] for record in records}) != 1:
        problems.append("repetitions of one seed produced different "
                        "output digests")
    return not problems, problems


def end_to_end(workload: str, run: Run) -> dict[str, float]:
    """Set-up time and throughput at the reference host's speed, memory."""
    records = run.records
    latencies = [value for record in records
                 for value in record["latencies_ms"]]
    tail = nearest_rank(latencies, TAIL_PERCENTILE[workload])
    operations = sum(r["operations"] for r in records)
    wall_s = sum(r["wall_s"] for r in records)
    setup_s = median([r["setup_s"] for r in records])
    print(f"# as measured: setup_s {setup_s:.4g}, points_per_s "
          f"{operations / wall_s:.6g}, latency "
          f"{nearest_rank(latencies, 50).describe()}, {tail.describe()}; "
          f"host speed {run.speed:.3f}")
    return {
        "setup_s": setup_s * run.speed,
        "points_per_s": operations / (wall_s * run.speed),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in records]),
    }


def per_layer(run: Run, names: list[str]) -> dict[str, float]:
    """Medians over the traced repetitions, as measured (not rescaled)."""
    traced = [r for r in run.records if r["traced"]]
    untraced = [r for r in run.records if not r["traced"]]
    values = {name: median([r["layers"].get(name, 0) for r in traced])
              for name in names}
    values["obs.trace_overhead_ratio"] = \
        median([r["wall_s"] for r in traced]) \
        / median([r["wall_s"] for r in untraced])
    values["sweep.resume_points_per_s"] = median(
        [r["extra"].get("resume_points_per_s", 0.0) for r in untraced])
    values["host.speed"] = run.speed
    return values


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> tuple[dict, Run]:
    """One benchmark run: the result object the last line prints."""
    spec = _benchmark_spec()
    run = measure(workload, seed, seconds, traced)
    correct, problems = _verdict(run.records)
    for problem in problems:
        print(f"# CHECK FAILED ({workload}): {problem}")
    catalogue = spec["per_layer"] if traced else spec["end_to_end"]
    values = per_layer(run, [m["name"] for m in catalogue]) if traced \
        else end_to_end(workload, run)
    metrics = {}
    for metric in catalogue:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"# {workload:18s} {metric['name']:30s} "
              f"{value:14.6g} {metric['unit']}")
    print(f"# {workload}: {len(run.records)} repetitions, seed {seed}, "
          f"{'traced' if traced else 'untraced'}")
    return {
        "correct": correct,
        "attempted": sum(r["operations"] for r in run.records),
        "failed": sum(r["failed"] for r in run.records),
        "metrics": metrics,
    }, run


def combined(results: dict[str, dict]) -> dict:
    """One result object for several workloads: metric names are
    prefixed with ``<workload>.``."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{workload}.{name}": metric
                    for workload, result in results.items()
                    for name, metric in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *PLAN["workloads"]])
    parser.add_argument("--seed", type=int, default=PLAN["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=_benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append each run to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, type=Path, default=None,
                        metavar=("A", "B"),
                        help="compare two --record files and exit")
    args = parser.parse_args(argv)

    if args.compare is not None:
        from perfbench.compare import compare

        print(compare(*args.compare, _benchmark_spec()))
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program (src/repro) is missing",
              file=sys.stderr)
        return 2

    names = list(PLAN["workloads"]) if args.workload == "all" \
        else [args.workload]
    results = {}
    try:
        for name in names:
            results[name], run = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace))
            if args.record is not None:
                with args.record.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps({
                        "workload": name, "seed": args.seed,
                        "trace": args.trace, "result": results[name],
                        "host_speed": run.speed}) + "\n")
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1
                     else combined(results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
