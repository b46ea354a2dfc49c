"""Tests of the benchmark's own machinery (not of the program it measures)."""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

import pytest

from perfbench import compare, generators, host, probes, run, workloads
from perfbench.stats import nearest_rank, quartiles, spread
from repro.obs.trace import Span, current_tracer

ROOT = Path(__file__).resolve().parents[2]


# --- percentiles --------------------------------------------------------------

def test_nearest_rank_picks_an_observed_sample():
    values = list(range(100, 0, -1))            # 1..100, unsorted
    assert nearest_rank(values, 50).value == 50
    assert nearest_rank(values, 99).value == 99
    assert nearest_rank(values, 100).value == 100
    assert nearest_rank([3.5], 99).value == 3.5
    assert nearest_rank([1, 2, 3, 4], 60).value == 3   # ceil(2.4) = 3


def test_nearest_rank_reports_samples_beyond():
    p90 = nearest_rank(range(100), 90)
    assert (p90.samples, p90.beyond, p90.trusted) == (100, 10, True)
    p99 = nearest_rank(range(1000), 99)
    assert (p99.beyond, p99.trusted) == (10, True)
    short = nearest_rank(range(999), 99)
    assert (short.beyond, short.trusted) == (9, False)
    assert "fewer than 10 beyond" in short.describe()
    assert "n=1000, 10 beyond)" in p99.describe()


@pytest.mark.parametrize("values, q", [([], 50), ([1.0], 0), ([1.0], 101)])
def test_nearest_rank_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        nearest_rank(values, q)


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


# --- seeded generators --------------------------------------------------------

def _inputs(seed: int) -> str:
    return json.dumps({
        "batch": generators.batch_sweep(seed, capacities=20).to_jsonable(),
        "prune": generators.prune_sweep(seed).to_jsonable(),
        "physical": generators.physical_sweep(seed).to_jsonable(),
        "physical_warmup": generators.physical_warmup(seed).to_jsonable(),
        "pool": [s.to_jsonable() for s in generators.serve_pool(seed)],
        "warmup": [s.to_jsonable() for s in generators.serve_warmup(seed)],
        "requests": generators.serve_requests(seed, 300, 200),
    }, sort_keys=True)


def test_same_seed_gives_same_inputs():
    assert _inputs(7) == _inputs(7)


def test_other_seed_gives_other_inputs():
    first, second = json.loads(_inputs(7)), json.loads(_inputs(8))
    for name in first:
        assert first[name] != second[name], name


def test_grid_axes_are_distinct_so_no_value_is_dropped():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweeps = [generators.batch_sweep(3), generators.prune_sweep(3),
                  generators.physical_sweep(3)]
    for sweep in sweeps:
        for path, values in sweep.grid:
            assert len(set(values)) == len(values), path
    assert len(sweeps[0]) == 480 * 4 * 2 * 2


def test_serve_warmup_is_disjoint_from_the_pool():
    pool = {spec.fingerprint() for spec in generators.serve_pool(5)}
    warm = {spec.fingerprint() for spec in generators.serve_warmup(5)}
    assert len(pool) == 300 and len(warm) == 40
    assert not pool & warm


def test_requests_favor_popular_specs():
    order = generators.serve_requests(9, 300, 3000)
    assert min(order) >= 0 and max(order) < 300
    assert order.count(0) > order.count(299)


# --- probes -------------------------------------------------------------------

def _probe_targets():
    import repro.batch.kernel as kernel
    import repro.batch.pack as pack
    import repro.runtime.engine as engine
    import repro.serve.app as app
    import repro.spec.evaluate as evaluate
    import repro.sweep.bounds as bounds
    import repro.sweep.stream as stream
    from repro.spec.sweep import SweepSpec
    from repro.sweep.checkpoint import SweepCheckpoint
    from repro.sweep.pareto import ParetoFrontier

    return {
        (owner, name): owner.__dict__[name] if isinstance(owner, type)
        else getattr(owner, name)
        for owner, name in [
            (SweepSpec, "chunks"), (stream, "chunk_hash"),
            (stream, "spec_bounds"), (stream, "evaluate_spec"),
            (ParetoFrontier, "add"), (ParetoFrontier, "certified_dominator"),
            (SweepCheckpoint, "_load"), (SweepCheckpoint, "get"),
            (SweepCheckpoint, "store"), (engine, "call_key"),
            (pack, "spec_call_key"), (kernel, "pack_point"),
            (kernel.BatchKernel, "evaluate_calls"), (evaluate, "resolve"),
            (bounds, "resolve"), (app, "call_key"),
            (app.ReproServer, "_eval_sync"),
        ]}


def _restored(before) -> bool:
    after = _probe_targets()
    return all(after[key] is value for key, value in before.items())


def test_probes_restore_every_attribute():
    before = _probe_targets()
    with probes.sweep_probes(workers=True):
        assert not _restored(before)
    assert _restored(before)
    assert probes._process_probes is None
    with probes.serve_probes(probes.SpanTotals()):
        assert not _restored(before)
    assert _restored(before)


def _rep(tmp_path: Path, traced: bool) -> workloads.Repetition:
    return workloads.Repetition("sweep-batch", 1, traced, 0.0, tmp_path)


def test_traced_window_leaves_no_probe_behind(tmp_path):
    before = _probe_targets()
    sweep = generators.batch_sweep(1, capacities=3)
    engine = workloads.EvaluationEngine()
    traced = _rep(tmp_path, traced=True)
    with workloads._window(traced):
        workloads._stream(sweep, engine, [], batch=True)
    assert traced.layers["sweep.chunk_hash_s"] > 0
    assert traced.layers["spec.expand_s"] > 0
    assert _restored(before)
    assert current_tracer() is None

    untraced = _rep(tmp_path, traced=False)
    with workloads._window(untraced):
        assert _restored(before)
        assert current_tracer() is None
        workloads._stream(sweep, workloads.EvaluationEngine(), [],
                          batch=True)
    assert untraced.layers == {}


def test_span_totals_split_local_and_worker_time():
    worker_root = Span("pmap.task", 0.0, duration=1.5, worker="worker-1",
                       children=[Span("flow.thermal", 0.0, duration=1.0)])
    batch = Span("pmap.batch", 0.0, duration=1.0, children=[worker_root])
    root = Span("sweep.chunk", 0.0, duration=1.25, children=[
        Span("engine.map", 0.0, duration=1.1, children=[batch])])
    totals = probes.SpanTotals()
    totals.add([root])
    assert totals.local_root_s == 1.25
    assert totals.worker_s == 1.5
    assert totals.seconds("pmap.batch") == 1.0        # waited on workers
    assert totals.seconds("flow.thermal") == 1.0
    assert totals.seconds("pmap.task") == pytest.approx(0.5)
    assert totals.seconds("sweep.chunk") == pytest.approx(0.15)
    metrics = probes.layer_times(totals, wall_s=2.5, jobs=2)
    assert metrics["runtime.pool_utilization"] == pytest.approx(0.75)
    assert metrics["obs.span_coverage"] == pytest.approx(0.5)
    assert metrics["physical.flow.thermal_s"] == 1.0
    restored = probes.SpanTotals.from_jsonable(
        json.loads(json.dumps(totals.to_jsonable())))
    assert probes.layer_times(restored, 2.5, jobs=2) == metrics


# --- compare ------------------------------------------------------------------

@pytest.mark.parametrize("a, b, better, label", [
    ([100, 101, 99, 100, 100], [100, 102, 99, 101, 100], "higher",
     "unchanged"),
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", "worse"),
    ([100, 101, 99, 100, 100], [110, 111, 109, 110, 110], "higher",
     "better"),
    ([10, 11, 9, 10, 10], [12.5, 12.7, 12.4, 12.6, 12.5], "lower", "worse"),
    ([100, 150, 60, 100, 130], [100, 140, 70, 90, 120], "higher",
     "unresolved"),
    ([100, 150, 60, 100, 130], [200, 210, 190, 205, 220], "higher",
     "better"),
])
def test_compare_labels(a, b, better, label):
    assert compare.classify(a, b, better, bound=0.15)[1] == label


def test_compare_table_has_one_row_per_workload_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = []
    for seed, scale in [(1, 1.0), (2, 1.01), (3, 0.99)]:
        for workload in run.PLAN["workloads"]:
            metrics = {m["name"]: {"value": 10.0 * scale, "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            lines.append(json.dumps({
                "workload": workload, "seed": seed, "trace": 0,
                "result": {"correct": True, "attempted": 1, "failed": 0,
                           "metrics": metrics}}))
    path = tmp_path / "runs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    table = compare.compare(path, path, spec).splitlines()
    assert len(table) == 2 + len(run.PLAN["workloads"]) \
        * len(spec["end_to_end"])
    assert all(row.endswith("unchanged") for row in table[2:])


# --- BENCHMARK.json -----------------------------------------------------------

def _run(records: list[dict], reference_s: float) -> run.Run:
    measured = run.Run()
    measured.records = records
    measured.reference_s = [reference_s, reference_s]
    return measured


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.PLAN["workloads"]) \
        == list(workloads.WORKLOADS) == list(run.TAIL_PERCENTILE)
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert set(probes.layer_times(probes.SpanTotals(), 1.0)) <= layer_names
    assert "host.speed" in layer_names
    record = {"setup_s": 1.0, "operations": 4, "wall_s": 2.0,
              "latencies_ms": [1.0, 2.0], "peak_rss_mb": 3.0}
    measured = _run([record], host.REFERENCE_S)
    assert set(run.end_to_end("sweep-batch", measured)) \
        == {m["name"] for m in spec["end_to_end"]}
    assert spec["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in spec["end_to_end"]) \
        == spec["end_to_end"][0]["bound"]


# --- host speed ---------------------------------------------------------------

def test_times_are_rescaled_to_the_reference_host():
    record = {"setup_s": 1.0, "operations": 400, "wall_s": 2.0,
              "latencies_ms": [1.0, 2.0], "peak_rss_mb": 3.0}
    same = run.end_to_end("sweep-batch", _run([record], host.REFERENCE_S))
    assert same == {"setup_s": 1.0, "points_per_s": 200.0,
                    "peak_rss_mb": 3.0}
    # A host half as fast: its seconds count as half a reference second.
    slow = _run([record], 2 * host.REFERENCE_S)
    assert slow.speed == pytest.approx(0.5)
    assert run.end_to_end("sweep-batch", slow) == pytest.approx(
        {"setup_s": 0.5, "points_per_s": 400.0, "peak_rss_mb": 3.0})


def test_speed_sampler_samples_and_leaves_this_thread_unpinned():
    own = os.sched_getaffinity(0)
    samples: list[float] = []
    with host.SpeedSampler(samples):
        assert os.sched_getaffinity(0) == own
    assert samples and all(value > 0 for value in samples)
    assert os.sched_getaffinity(0) == own


def test_process_group_and_peak_rss_see_this_process():
    assert os.getpid() in host.process_group(os.getpgrp())
    assert host.peak_rss_mb(os.getpid()) > 1.0


def test_combined_result_has_the_single_run_shape():
    one = {"correct": True, "attempted": 3, "failed": 0,
           "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}
    other = {**one, "correct": False, "failed": 1}
    result = run.combined({"sweep-batch": one, "serve-eval": other})
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) \
        == (False, 6, 1)
    assert set(result["metrics"]) == {"sweep-batch.setup_s",
                                      "serve-eval.setup_s"}
