"""The four benchmark workloads.

Each function runs one repetition of its workload inside the current
process, which :mod:`perfbench.rep` starts fresh for every repetition, so
the result cache, the process-wide memo tables and the worker pool start
empty, as in every ``repro`` invocation.  A repetition:

1. sets up (imports happened at process start; then input generation,
   engine construction, pool or server start and warm-up) and marks the
   end of set-up with :meth:`Repetition.begin`;
2. runs the timed window, traced or not;
3. checks the outputs outside the window and records a digest of them.

The sweeps drive :func:`repro.sweep.stream_sweep`, the generator behind
``run_streaming_sweep`` (``repro sweep --stream``) and ``/v1/sweep``,
consuming it exactly as ``run_streaming_sweep`` does while timing the
arrival of each chunk.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator

from repro.obs.trace import trace
from repro.runtime.cache import MISSING
from repro.runtime.engine import EvaluationEngine
from repro.runtime.memo import counter_stats
from repro.runtime.pmap import shutdown_pool
from repro.spec.evaluate import SpecEvaluation, evaluate_spec
from repro.sweep import (
    DEFAULT_CHUNK_SIZE,
    ParetoFrontier,
    run_streaming_sweep,
    stream_sweep,
)

from perfbench import generators, host, probes
from perfbench.stats import nearest_rank

#: Points per streamed chunk.  ``sweep-batch`` uses the library default
#: (``DEFAULT_CHUNK_SIZE``); the pruned sweep uses smaller chunks so a
#: run yields enough chunk latencies; the physical sweep streams one
#: point per pool worker.
PRUNE_CHUNK = 32
PHYSICAL_JOBS = min(os.cpu_count() or 1, 2)
PHYSICAL_CHUNK = PHYSICAL_JOBS

#: ``serve-eval`` traffic: closed-loop clients and requests per repetition.
SERVE_CLIENTS = 2
SERVE_REQUESTS = 1500

#: Relative tolerance of the batch-vs-scalar parity check.
PARITY_RTOL = 1e-9


class Repetition:
    """One repetition's timing, outputs and check results."""

    def __init__(self, workload: str, seed: int, traced: bool, t0: float,
                 workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.t0 = t0
        self.workdir = workdir
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.operations = 0
        self.failed = 0
        self.latencies_ms: list[float] = []
        self.peak_rss_mb = 0.0
        self.digest = ""
        self.errors: list[str] = []
        self.layers: dict[str, float] = {}
        self.extra: dict[str, float] = {}

    def begin(self) -> None:
        """End of set-up: seconds since the process was launched."""
        self.setup_s = time.time() - self.t0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def to_jsonable(self) -> dict[str, Any]:
        return {name: value for name, value in vars(self).items()
                if name not in ("t0", "workdir")}


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _steps(frontier: ParetoFrontier) -> list[list[str]]:
    return [[repr(x), repr(y)] for x, y in frontier.steps()]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=PARITY_RTOL, abs_tol=0.0)


def _same_evaluation(batched: SpecEvaluation,
                     scalar: SpecEvaluation) -> bool:
    return (batched.spec == scalar.spec
            and batched.n_cs_2d == scalar.n_cs_2d
            and batched.n_cs_m3d == scalar.n_cs_m3d
            and _close(batched.footprint, scalar.footprint)
            and _close(batched.speedup, scalar.speedup)
            and _close(batched.energy_benefit, scalar.energy_benefit)
            and _close(batched.edp_benefit, scalar.edp_benefit))


class _Pass:
    """What one streamed pass produced (``run_streaming_sweep``'s tally)."""

    def __init__(self) -> None:
        self.frontier = ParetoFrontier()
        self.chunks = self.points = self.pruned = 0
        self.resumed = self.infeasible = self.failed = 0
        self.evaluations: list[SpecEvaluation] = []
        self.wall_s = 0.0


def _stream(sweep, engine: EvaluationEngine, latencies: list[float],
            collect: bool = False, **options: Any) -> _Pass:
    """Drive ``stream_sweep`` to completion, timing each chunk."""
    tally = _Pass()
    start = last = time.perf_counter()
    for chunk in stream_sweep(sweep, engine=engine,
                              frontier=tally.frontier, **options):
        now = time.perf_counter()
        latencies.append((now - last) * 1e3)
        last = now
        tally.chunks += 1
        tally.points += chunk.size
        tally.pruned += chunk.pruned
        tally.resumed += chunk.resumed
        tally.infeasible += chunk.infeasible
        tally.failed += chunk.failed
        if collect:
            tally.evaluations.extend(chunk.evaluations)
    tally.wall_s = time.perf_counter() - start
    return tally


@contextmanager
def _window(rep: Repetition, jobs: int = 1,
            workers: bool = False) -> Iterator[None]:
    """The timed window; traced (probes + tracer) in a traced repetition."""
    if not rep.traced:
        start = time.perf_counter()
        yield
        rep.wall_s = time.perf_counter() - start
        rep.peak_rss_mb = _own_peak_rss_mb()
        return
    with probes.sweep_probes(workers=workers), trace() as tracer:
        start = time.perf_counter()
        yield
        rep.wall_s = time.perf_counter() - start
    rep.peak_rss_mb = _own_peak_rss_mb()
    totals = probes.SpanTotals()
    totals.add(tracer.roots)
    rep.layers.update(probes.layer_times(totals, rep.wall_s, jobs=jobs))


def _runtime_counters(rep: Repetition, engine: EvaluationEngine) -> None:
    report = engine.report()
    rep.layers.update({
        "runtime.cache_hits": report.cache_hits,
        "runtime.cache_misses": report.cache_misses,
        "runtime.evaluated": report.evaluated,
        "runtime.dedup_hits": report.dedup_hits,
        "runtime.retries": report.retries,
        "runtime.failures": report.failures,
        "runtime.pool_deaths": report.pool_deaths,
    })
    batch = {group.name: dict(group.values)
             for group in counter_stats()}.get("batch", {})
    points = batch.get("points", 0)
    rep.layers["batch.delta_hit_ratio"] = \
        batch.get("delta_hits", 0) / (2 * points) if points else 0.0
    rep.layers["batch.fallback_scalar"] = batch.get("fallback_scalar", 0)


def _stage_calls(engine: EvaluationEngine, name: str,
                 field: str = "calls") -> int:
    for stage in engine.report().stages:
        if stage.name == name:
            return getattr(stage, field)
    return 0


# --- sweep-batch ------------------------------------------------------------

def sweep_batch(rep: Repetition) -> None:
    """Exhaustive batched streaming sweep, no prune, no checkpoint."""
    sweep = generators.batch_sweep(rep.seed)
    engine = EvaluationEngine()
    rep.begin()
    with _window(rep):
        tally = _stream(sweep, engine, rep.latencies_ms,
                        chunk_size=DEFAULT_CHUNK_SIZE, batch=True)
    if rep.traced:
        _runtime_counters(rep, engine)
    rep.operations = tally.points
    rep.failed = tally.failed
    rep.check(tally.points == len(sweep),
              f"covered {tally.points} of {len(sweep)} points")

    # Parity: every frontier member, plus a seeded sample of the points
    # still resident in the engine's LRU, against scalar evaluate_spec.
    from repro.batch.pack import spec_call_key

    resident = min(len(sweep), engine.cache.max_memory_entries) - 64
    rng = random.Random(f"perfbench:parity:{rep.seed}")
    sample = set(rng.sample(range(len(sweep) - resident, len(sweep)), 32))
    batched = list(tally.frontier.items())
    for index, spec in enumerate(sweep.iter_specs()):
        if index not in sample:
            continue
        value = engine.cache.get(spec_call_key(evaluate_spec, (spec,), {}))
        rep.check(value is not MISSING,
                  f"point {index} missing from the result cache")
        if value is not MISSING:
            batched.append(value)
    mismatched = [value.spec.fingerprint()[:12] for value in batched
                  if not _same_evaluation(value, evaluate_spec(value.spec))]
    rep.check(not mismatched,
              f"batched != scalar for {len(mismatched)} point(s): "
              f"{mismatched[:4]}")
    rep.digest = _digest({
        "points": tally.points, "steps": _steps(tally.frontier),
        "frontier": [item.spec.fingerprint()
                     for item in tally.frontier.items()]})


# --- sweep-prune-resume -----------------------------------------------------

def _checkpoint_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


def sweep_prune_resume(rep: Repetition) -> None:
    """Pruned, checkpointed batched sweep, then a resume pass over it."""
    sweep = generators.prune_sweep(rep.seed)
    checkpoint = rep.workdir / "checkpoint"
    options = dict(chunk_size=PRUNE_CHUNK, batch=True, prune=True,
                   checkpoint=str(checkpoint))
    cold_engine = EvaluationEngine()
    resume_engine = EvaluationEngine()
    resume_latencies: list[float] = []
    rep.begin()
    with _window(rep):
        cold = _stream(sweep, cold_engine, rep.latencies_ms, **options)
        resume = _stream(sweep, resume_engine, resume_latencies, **options)
    # points_per_s and the chunk latencies are the cold pass's; the
    # window, and so its trace, covers both passes.
    rep.operations = cold.points
    rep.failed = cold.failed
    rep.wall_s = cold.wall_s
    rep.extra["resume_points_per_s"] = resume.points / resume.wall_s
    reevaluated = _stage_calls(resume_engine, "sweep.evaluate", "evaluated")
    if rep.traced:
        _runtime_counters(rep, cold_engine)
        bounds = _stage_calls(cold_engine, "sweep.bounds")
        rep.layers.update({
            "sweep.bounds_calls": bounds,
            "sweep.pruned_ratio": cold.pruned / bounds if bounds else 0.0,
            "sweep.checkpoint_bytes": _checkpoint_bytes(checkpoint),
            "sweep.resumed_chunks": resume.resumed,
            "sweep.reevaluated_points": reevaluated,
        })

    exhaustive = run_streaming_sweep(
        sweep, engine=EvaluationEngine(), chunk_size=PRUNE_CHUNK,
        batch=True, collect=False)
    rep.check(cold.frontier.steps() == exhaustive.frontier.steps(),
              "pruned frontier differs from the exhaustive frontier")
    rep.check(resume.resumed == resume.chunks == cold.chunks,
              f"resume replayed {resume.resumed} of {cold.chunks} chunks")
    rep.check(reevaluated == 0, f"resume re-evaluated {reevaluated} points")
    rep.check(resume.frontier.steps() == cold.frontier.steps(),
              "resumed frontier differs from the cold frontier")
    rep.check(cold.points == len(sweep),
              f"covered {cold.points} of {len(sweep)} points")
    rep.digest = _digest({
        "points": cold.points, "pruned": cold.pruned,
        "steps": _steps(cold.frontier),
        "resume_steps": _steps(resume.frontier)})


# --- sweep-physical ---------------------------------------------------------

def _physical_record(evaluation: SpecEvaluation) -> list:
    summary = evaluation.physical
    return [evaluation.spec.fingerprint(), repr(evaluation.speedup),
            repr(evaluation.energy_benefit), repr(evaluation.edp_benefit),
            repr(evaluation.footprint),
            None if summary is None else repr(summary)]


def sweep_physical(rep: Repetition) -> None:
    """Physical-aware streaming sweep through the process pool."""
    sweep = generators.physical_sweep(rep.seed)
    engine = EvaluationEngine(jobs=PHYSICAL_JOBS)
    options = dict(chunk_size=PHYSICAL_CHUNK, physical=True,
                   jobs=PHYSICAL_JOBS)
    # A traced repetition warms the workers through the same probed
    # entry point its window uses, so probe set-up stays out of it.
    warm_probes = probes.sweep_probes(workers=True) if rep.traced \
        else nullcontext()
    try:
        with warm_probes:
            _stream(generators.physical_warmup(rep.seed), engine, [],
                    **options)
        engine.reset_stats()
        rep.begin()
        with _window(rep, jobs=PHYSICAL_JOBS, workers=True):
            tally = _stream(sweep, engine, rep.latencies_ms, collect=True,
                            **options)
        # The flow runs in the pool workers, so the program's peak is the
        # sum over this process, the forkserver and the workers.
        rep.peak_rss_mb = sum(host.peak_rss_mb(pid) for pid
                              in host.process_group(os.getpgrp()))
    finally:
        shutdown_pool()
    if rep.traced:
        _runtime_counters(rep, engine)
        rep.layers["physical.infeasible_ratio"] = \
            tally.infeasible / tally.points
    rep.operations = tally.points
    rep.failed = tally.failed
    rep.check(len(tally.evaluations) == len(sweep),
              f"{len(tally.evaluations)} of {len(sweep)} points evaluated")
    rep.check(0 < tally.infeasible < tally.points,
              f"{tally.infeasible} of {tally.points} points infeasible; "
              "the grid should be split")
    for evaluation in tally.evaluations:
        rep.check(evaluation.physical is not None,
                  "a physical evaluation carries no PhysicalSummary")
        plain = evaluate_spec(evaluation.spec)
        rep.check(
            (evaluation.spec, evaluation.n_cs_2d, evaluation.n_cs_m3d,
             evaluation.footprint, evaluation.speedup,
             evaluation.energy_benefit, evaluation.edp_benefit)
            == (plain.spec, plain.n_cs_2d, plain.n_cs_m3d, plain.footprint,
                plain.speedup, plain.energy_benefit, plain.edp_benefit),
            "physical evaluation's analytical fields differ from the "
            "non-physical evaluation")
    rep.digest = _digest([_physical_record(e) for e in tally.evaluations])


# --- serve-eval -------------------------------------------------------------

def _server_command(rep: Repetition, stats_path: Path) -> list[str]:
    serve_args = ["serve", "--host", "127.0.0.1", "--port", "0"]
    if rep.traced:
        return [sys.executable, "-m", "perfbench.serve_traced",
                str(stats_path), *serve_args]
    return [sys.executable, "-m", "repro", *serve_args]


async def _closed_loop(clients: list, bodies: list[dict],
                       order: list[int]) -> tuple[list, list]:
    """Each client sends its next request only after its previous reply."""
    from repro.serve.client import ServeError

    replies: list = [None] * len(order)
    latencies: list[float] = [0.0] * len(order)
    cursor = iter(range(len(order)))

    async def run(client) -> None:
        for slot in cursor:
            start = time.perf_counter()
            try:
                replies[slot] = await client.evaluate(bodies[order[slot]])
            except ServeError as error:
                replies[slot] = error.status
            latencies[slot] = (time.perf_counter() - start) * 1e3

    await asyncio.gather(*(run(client) for client in clients))
    return replies, latencies


def _serve_deltas(before: dict, after: dict) -> dict[str, float]:
    def stage(data: dict) -> dict:
        return data["stages"].get("serve.eval", {})

    first, last = stage(before), stage(after)
    delta = {key: last.get(key, 0) - first.get(key, 0)
             for key in ("evaluated", "cache_hits",
                         "cache_misses", "dedup_hits", "wall_time")}
    serve_first, serve_last = before["serve"], after["serve"]
    rejected = sum(serve_last[key] - serve_first[key]
                   for key in serve_last if key.startswith("rejected_"))
    return {**delta,
            "coalesced": serve_last["coalesced"] - serve_first["coalesced"],
            "peak_pending": serve_last["peak_pending"],
            "rejected": rejected}


def serve_eval(rep: Repetition) -> None:
    """Closed-loop ``/v1/eval`` traffic against a ``repro serve`` process."""
    asyncio.run(_serve_eval(rep))


async def _serve_eval(rep: Repetition) -> None:
    from repro.serve.client import ServeClient
    from repro.serve.protocol import evaluation_wire

    pool = generators.serve_pool(rep.seed)
    bodies = [spec.to_jsonable() for spec in pool]
    order = generators.serve_requests(rep.seed, len(pool), SERVE_REQUESTS)
    warmup = [spec.to_jsonable() for spec in generators.serve_warmup(rep.seed)]
    stats_path = rep.workdir / "server-spans.json"
    log = open(rep.workdir / "server.log", "wb")
    server = subprocess.Popen(_server_command(rep, stats_path),
                              stdout=subprocess.PIPE, stderr=log)
    try:
        line = await asyncio.to_thread(server.stdout.readline)
        match = re.search(rb"http://([\d.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        address, port = match.group(1).decode(), int(match.group(2))
        clients = [ServeClient(address, port, client_id=f"client-{i}")
                   for i in range(SERVE_CLIENTS)]
        health = await clients[0].health()
        rep.check(health.get("status") == "ok", f"health: {health}")
        await _closed_loop(clients, warmup, list(range(len(warmup))))
        if rep.traced:
            server.send_signal(signal.SIGUSR1)   # drop warm-up spans
        before = await clients[0].cache()
        rep.begin()
        start = time.perf_counter()
        replies, latencies = await _closed_loop(clients, bodies, order)
        rep.wall_s = time.perf_counter() - start
        after = await clients[0].cache()
        rep.peak_rss_mb = host.peak_rss_mb(server.pid)
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
        try:
            await asyncio.to_thread(server.wait, 30)
        except subprocess.TimeoutExpired:
            server.kill()
            await asyncio.to_thread(server.wait)
        server.stdout.close()
        log.close()

    ok = [isinstance(reply, dict) for reply in replies]
    rep.operations = len(order)
    rep.failed = ok.count(False)
    rep.latencies_ms = latencies
    rep.check(all(ok), f"{rep.failed} non-200 replies")
    rep.check(server.returncode == 0,
              f"repro serve exited with {server.returncode}")
    rng = random.Random(f"perfbench:serve-sample:{rep.seed}")
    for slot in rng.sample(range(len(order)), 24):
        if not ok[slot]:
            continue
        expected = json.loads(json.dumps(
            evaluation_wire(evaluate_spec(pool[order[slot]]))))
        rep.check(replies[slot]["result"] == expected,
                  f"reply {slot} differs from the library's evaluate_spec")
    rep.digest = _digest([reply["result"] if ok[slot] else None
                          for slot, reply in enumerate(replies)])

    if rep.traced:
        deltas = _serve_deltas(before, after)
        cached = [reply["cached"] if isinstance(reply, dict) else None
                  for reply in replies]

        def p50(flag: bool) -> float:
            values = [latency for latency, hit in zip(latencies, cached)
                      if hit is flag]
            return nearest_rank(values, 50).value if values else 0.0

        totals = probes.SpanTotals.from_jsonable(
            json.loads(stats_path.read_text()))
        rep.layers.update(probes.layer_times(totals, rep.wall_s))
        rep.layers.update({
            "runtime.cache_hits": deltas["cache_hits"],
            "runtime.cache_misses": deltas["cache_misses"],
            "runtime.evaluated": deltas["evaluated"],
            "runtime.dedup_hits": deltas["dedup_hits"],
            "serve.hit_latency_p50_ms": p50(True),
            "serve.miss_latency_p50_ms": p50(False),
            "serve.hit_ratio": cached.count(True) / len(order),
            "serve.engine_s": deltas["wall_time"],
            "serve.overhead_ms": (sum(latencies) / len(order)
                                  - deltas["wall_time"] * 1e3
                                  / len(order)),
            "serve.coalesced": deltas["coalesced"],
            "serve.peak_pending": deltas["peak_pending"],
            "serve.rejected": deltas["rejected"],
        })


WORKLOADS = {
    "sweep-batch": sweep_batch,
    "sweep-prune-resume": sweep_prune_resume,
    "sweep-physical": sweep_physical,
    "serve-eval": serve_eval,
}


def run(workload: str, seed: int, traced: bool, t0: float,
        workdir: Path) -> Repetition:
    """Run one repetition of ``workload`` in this process."""
    rep = Repetition(workload, seed, traced, t0, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[workload](rep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rep
