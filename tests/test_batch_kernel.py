"""The vectorized batch kernel: parity, delta-evaluation, fallbacks.

The contract under test (ISSUE PR 7 acceptance):

* the scalar path is untouched — ``evaluate_spec`` equals the direct
  resolve+simulate pipeline bit-for-bit;
* the batched path agrees with the scalar path within 1e-9 relative on
  speedup/energy/EDP (and exactly on CS counts and footprints);
* the design rows ``pack_point`` derives equal, exactly, the rows the
  simulator builds from the resolved designs (both paths then run the
  one per-layer cost model, :mod:`repro.perf.layer_cost`);
* engine cache keys are identical between the paths (a scalar-warmed
  cache serves a batch run and vice versa), as are stage counters;
* specs the kernel cannot express fall back to scalar evaluation with
  unchanged error behavior, counted as ``batch.fallback_scalar``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchKernel,
    UnsupportedSpec,
    pack_point,
    spec_call_key,
)
from repro.errors import ReproError
from repro.perf.compare import compare_designs
from repro.perf.simulator import AcceleratorSimulator, simulate
from repro.runtime.engine import EvaluationEngine
from repro.runtime.keys import call_key
from repro.runtime.memo import counter_stats
from repro.spec import (
    ArchSpec,
    DesignSpec,
    SweepSpec,
    TechSpec,
    WorkloadSpec,
    evaluate_spec,
    evaluate_specs,
    resolve,
    scaled_pdk,
)
from repro.sweep import run_streaming_sweep
from repro.tech.pdk import foundry_m3d_pdk
from repro.units import MEGABYTE

REL = 1e-9


def _grid_specs() -> list[DesignSpec]:
    """A DSE-like joint grid (the ``core.dse`` axes)."""
    return [
        DesignSpec(
            tech=TechSpec(delta=delta, beta=beta),
            arch=ArchSpec(capacity_bits=mb * MEGABYTE, tier_pairs=pairs),
        )
        for mb in (32, 64, 128)
        for delta in (1.0, 2.0)
        for beta in (1.0, 1.3)
        for pairs in (1, 2)
    ]


EDGE_SPECS = [
    DesignSpec(),
    DesignSpec(tech=TechSpec(memory="stt_mram")),
    DesignSpec(tech=TechSpec(memory="fefet", delta=2.0)),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=4)),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=16)),
    DesignSpec(arch=ArchSpec(n_cs=5)),
    DesignSpec(arch=ArchSpec(baseline="reoptimized", tier_pairs=2)),
    DesignSpec(workload=WorkloadSpec(network="alexnet", batch=8)),
    DesignSpec(workload=WorkloadSpec(network="tiny_encoder")),
    DesignSpec(workload=WorkloadSpec(network="resnet18", layer="CONV1")),
]


def _assert_close(batched, scalar, rel=REL):
    assert batched.spec == scalar.spec
    assert batched.n_cs_2d == scalar.n_cs_2d
    assert batched.n_cs_m3d == scalar.n_cs_m3d
    assert batched.footprint == scalar.footprint
    assert batched.speedup == pytest.approx(scalar.speedup, rel=rel)
    assert batched.energy_benefit == \
        pytest.approx(scalar.energy_benefit, rel=rel)
    assert batched.edp_benefit == pytest.approx(scalar.edp_benefit, rel=rel)


# --- parity ----------------------------------------------------------------------


def test_scalar_path_is_bit_identical_to_direct_pipeline():
    """The golden guard: evaluate_spec == resolve+simulate, exactly."""
    spec = DesignSpec()
    point = resolve(spec, None)
    benefit = compare_designs(
        simulate(point.baseline, point.network, point.pdk),
        simulate(point.m3d, point.network, point.pdk),
    )
    evaluation = evaluate_spec(spec)
    assert evaluation.speedup == benefit.speedup
    assert evaluation.energy_benefit == benefit.energy_benefit
    assert evaluation.edp_benefit == benefit.edp_benefit
    assert evaluation.footprint == point.footprint


def test_dse_grid_parity():
    specs = _grid_specs()
    scalar = evaluate_specs(specs, engine=EvaluationEngine(jobs=1))
    batched = evaluate_specs(specs, engine=EvaluationEngine(jobs=1),
                             batch=True)
    assert len(batched) == len(scalar) == len(specs)
    for b, s in zip(batched, scalar):
        _assert_close(b, s)


def test_edge_spec_parity():
    scalar = evaluate_specs(EDGE_SPECS, engine=EvaluationEngine(jobs=1))
    batched = evaluate_specs(EDGE_SPECS, engine=EvaluationEngine(jobs=1),
                             batch=True)
    for b, s in zip(batched, scalar):
        _assert_close(b, s)


def test_batch_size_chunking_matches_single_batch():
    specs = _grid_specs()
    whole = evaluate_specs(specs, engine=EvaluationEngine(jobs=1), batch=True)
    grid = SweepSpec(grid={
        "arch.capacity_bits": tuple(mb * MEGABYTE for mb in (32, 64, 128)),
        "tech.delta": (1.0, 2.0),
        "tech.beta": (1.0, 1.3),
        "arch.tier_pairs": (1, 2),
    })
    chunked = run_streaming_sweep(grid, engine=EvaluationEngine(jobs=1),
                                  chunk_size=5, batch=True).evaluations
    assert whole == chunked


@pytest.mark.parametrize("spec", _grid_specs() + EDGE_SPECS)
def test_packed_rows_equal_simulator_rows(spec):
    """pack.py restates the resolver's arithmetic; the rows it derives
    must equal the simulator's rows of the resolved designs exactly."""
    packed = pack_point(spec, foundry_m3d_pdk())
    point = resolve(spec, None)
    batch = spec.workload.batch
    assert packed.row_2d == AcceleratorSimulator(
        point.baseline, point.pdk, batch=batch).row
    assert packed.row_m3d == AcceleratorSimulator(
        point.m3d, point.pdk, batch=batch).row


_SPECS = st.builds(
    DesignSpec,
    tech=st.builds(
        TechSpec,
        delta=st.floats(min_value=1.0, max_value=4.0,
                        allow_nan=False, allow_infinity=False),
        beta=st.floats(min_value=0.5, max_value=2.0,
                       allow_nan=False, allow_infinity=False),
        memory=st.sampled_from([None, "rram", "stt_mram", "fefet"]),
    ),
    arch=st.builds(
        ArchSpec,
        capacity_bits=st.sampled_from(
            [mb * MEGABYTE for mb in (16, 32, 64, 128)]),
        tier_pairs=st.integers(min_value=1, max_value=4),
        n_cs=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
        baseline=st.sampled_from(["iso", "reoptimized"]),
        cs=st.sampled_from(["case-study", "precision-scaled"]),
        precision_bits=st.sampled_from([4, 8, 16]),
    ),
    workload=st.builds(
        WorkloadSpec,
        network=st.sampled_from(["resnet18", "alexnet", "tiny_encoder"]),
        layer=st.none(),
        batch=st.integers(min_value=1, max_value=64),
    ),
)


@settings(max_examples=40, deadline=None)
@given(spec=_SPECS)
def test_random_spec_parity(spec):
    kernel = BatchKernel()
    try:
        scalar = evaluate_spec(spec)
    except ReproError:
        with pytest.raises(ReproError):
            kernel.evaluate_specs([spec])
        return
    batched, = kernel.evaluate_specs([spec])
    _assert_close(batched, scalar)


# --- cache keys and counters -----------------------------------------------------


def test_fast_key_matches_generic_call_key():
    pdk = foundry_m3d_pdk()
    for args in [(DesignSpec(),), (EDGE_SPECS[3],), (DesignSpec(), pdk)]:
        assert spec_call_key(evaluate_spec, args, {}) \
            == call_key(evaluate_spec, args, {})


def test_batch_run_is_served_by_scalar_warmed_cache():
    specs = _grid_specs()
    engine = EvaluationEngine(jobs=1)
    scalar = evaluate_specs(specs, engine=engine)
    batched = evaluate_specs(specs, engine=engine, batch=True)
    assert batched == scalar  # cache returns the very same objects
    stats = {s.name: s for s in engine.report().stages}
    stage = stats["spec.evaluate"]
    assert stage.calls == 2 * len(specs)
    assert stage.evaluated == len(specs)
    assert stage.cache_hits == len(specs)


def test_scalar_run_is_served_by_batch_warmed_cache():
    specs = _grid_specs()
    engine = EvaluationEngine(jobs=1)
    batched = evaluate_specs(specs, engine=engine, batch=True)
    scalar = evaluate_specs(specs, engine=engine)
    assert scalar == batched
    stage = {s.name: s for s in engine.report().stages}["spec.evaluate"]
    assert stage.cache_hits == len(specs)


def test_batch_counters_track_points_and_delta_hits():
    specs = _grid_specs()
    before = {name: dict(values)
              for name, values in
              ((c.name, c.values) for c in counter_stats())}.get("batch", {})
    evaluate_specs(specs, engine=EvaluationEngine(jobs=1), batch=True)
    after = dict(next(c for c in counter_stats()
                      if c.name == "batch").values)
    assert after.get("points", 0) - before.get("points", 0) == len(specs)
    # Every spec needs 2 rows but the grid collapses heavily: beta and
    # tier_pairs often leave the derived rows unchanged.
    assert after.get("delta_hits", 0) > before.get("delta_hits", 0)
    assert after.get("fallback_scalar", 0) == before.get("fallback_scalar", 0)


def test_mismatched_pdk_falls_back_to_scalar():
    kernel = BatchKernel()  # default-PDK kernel
    other = scaled_pdk(foundry_m3d_pdk(), 1.5)
    spec = DesignSpec()
    before = dict(next((c.values for c in counter_stats()
                        if c.name == "batch"), ()))
    result, = kernel.evaluate_calls([((spec, other), {})])
    after = dict(next(c for c in counter_stats()
                      if c.name == "batch").values)
    assert result == evaluate_spec(spec, other)
    assert after["fallback_scalar"] - before.get("fallback_scalar", 0) == 1


def test_unsupported_spec_raises_the_scalar_diagnostic():
    # 12 MB cannot hold ResNet-18's ~12M 8-bit weights: the kernel
    # refuses the point and the scalar fallback raises as it always did.
    spec = DesignSpec(arch=ArchSpec(capacity_bits=MEGABYTE))
    with pytest.raises(ReproError):
        evaluate_spec(spec)
    with pytest.raises(ReproError):
        BatchKernel().evaluate_specs([spec])


def test_pack_point_rejects_what_the_row_schema_cannot_express():
    with pytest.raises(UnsupportedSpec):
        pack_point(DesignSpec(arch=ArchSpec(capacity_bits=MEGABYTE)),
                   foundry_m3d_pdk())


# --- wired call sites ------------------------------------------------------------


def _small_sweep() -> SweepSpec:
    return SweepSpec(grid=(
        ("arch.capacity_bits", (24 * MEGABYTE, 48 * MEGABYTE)),
        ("tech.delta", (1.0, 2.0)),
        ("arch.tier_pairs", (1, 2)),
    ))


def test_streaming_sweep_batch_parity():
    sweep = _small_sweep()
    scalar = run_streaming_sweep(sweep, engine=EvaluationEngine(jobs=1),
                                 chunk_size=3)
    batched = run_streaming_sweep(sweep, engine=EvaluationEngine(jobs=1),
                                  chunk_size=3, batch=True)
    assert batched.points == scalar.points
    assert batched.pruned == scalar.pruned == 0
    for b, s in zip(batched.evaluations, scalar.evaluations):
        _assert_close(b, s)
    assert len(batched.frontier) == len(scalar.frontier)


def test_streaming_sweep_batch_shares_the_scalar_cache():
    sweep = _small_sweep()
    engine = EvaluationEngine(jobs=1)
    run_streaming_sweep(sweep, engine=engine, chunk_size=3)
    run_streaming_sweep(sweep, engine=engine, chunk_size=3, batch=True)
    stage = {s.name: s for s in engine.report().stages}["sweep.evaluate"]
    assert stage.cache_hits == len(sweep)


def test_dse_explore_batch_parity():
    from repro.core.dse import joint_grid_sweep

    scalar = run_streaming_sweep(
        joint_grid_sweep(), engine=EvaluationEngine(jobs=1)).evaluations
    batched = run_streaming_sweep(
        joint_grid_sweep(), engine=EvaluationEngine(jobs=1),
        batch=True).evaluations
    assert len(batched) == len(scalar)
    for b, s in zip(batched, scalar):
        assert b.spec == s.spec
        assert (b.n_cs_m3d, b.n_cs_2d) == (s.n_cs_m3d, s.n_cs_2d)
        assert b.footprint == s.footprint
        assert b.speedup == pytest.approx(s.speedup, rel=REL)
        assert b.edp_benefit == pytest.approx(s.edp_benefit, rel=REL)


def test_cli_sweep_batch(tmp_path, capsys):
    """``repro sweep`` prints the same table with and without ``--batch``,
    and with and without ``--stream`` (whose run adds its own title and
    a summary line below the table)."""
    from repro.cli import main

    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(
        '{"grid": {"arch.capacity_mb": [32, 64], "tech.delta": [1, 2]}}')
    outputs = {}
    for flags in ((), ("--batch",), ("--stream",), ("--stream", "--batch")):
        assert main(["sweep", "--spec", str(spec_file), *flags]) == 0
        outputs[flags] = capsys.readouterr().out
    batched, scalar = outputs[("--batch",)], outputs[()]
    assert batched == scalar
    for flags in (("--stream",), ("--stream", "--batch")):
        title, *table, summary = outputs[flags].splitlines()
        assert title.startswith("Streaming sweep")
        assert summary.startswith("streamed 4 points")
        assert table == scalar.splitlines()[1:]
