"""The vectorized batch kernel: parity, delta-evaluation, fallbacks.

The contract under test (ISSUE PR 7 acceptance):

* the scalar path is untouched — ``evaluate_spec`` equals the direct
  resolve+simulate pipeline bit-for-bit;
* the batched path agrees with the scalar path within 1e-9 relative on
  speedup/energy/EDP (and exactly on CS counts and footprints);
* the design rows ``pack_point`` derives equal, exactly, the rows the
  simulator builds from the resolved designs (both paths then run the
  one per-layer cost model, :mod:`repro.perf.layer_cost`) — on fixed
  specs and on random ones wherever ``pack_point`` accepts the spec —
  and the resolved designs and packed rows are pinned bit for bit;
* engine cache keys are identical between the paths (a scalar-warmed
  cache serves a batch run and vice versa), as are stage counters;
* specs the kernel cannot express fall back to scalar evaluation with
  unchanged error behavior, counted as ``batch.fallback_scalar``.
"""

from __future__ import annotations

import hashlib

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
from repro.spec.evaluate import spec_calls
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


def _scaled_grid_specs() -> list[DesignSpec]:
    """The joint grid at 1,008 points: the grid whose cold batch speedup
    ``benchmarks/bench_speedup_floors.py`` holds to 50x."""
    return [
        DesignSpec(
            tech=TechSpec(delta=delta, beta=beta),
            arch=ArchSpec(capacity_bits=int((12 + 4.0 * i) * MEGABYTE),
                          tier_pairs=pairs),
        )
        for i in range(28)
        for delta in (1.0, 1.6, 2.0)
        for beta in (1.0, 1.15, 1.3)
        for pairs in (1, 2, 3, 4)
    ]


def _batch_counter(name: str) -> int:
    stats = next((c for c in counter_stats() if c.name == "batch"), None)
    return dict(stats.values).get(name, 0) if stats is not None else 0


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
    """On the joint grid and the 1,008-point scaled grid the batch path
    agrees with the scalar path within 1e-9, falls back to scalar for no
    point, and a warm batch re-run evaluates nothing."""
    for specs in (_grid_specs(), _scaled_grid_specs()):
        scalar = evaluate_specs(specs, engine=EvaluationEngine(jobs=1))
        engine = EvaluationEngine(jobs=1)
        fallbacks = _batch_counter("fallback_scalar")
        batched = evaluate_specs(specs, engine=engine, batch=True)
        assert _batch_counter("fallback_scalar") == fallbacks
        assert len(batched) == len(scalar) == len(specs)
        for b, s in zip(batched, scalar):
            _assert_close(b, s)
        assert evaluate_specs(specs, engine=engine, batch=True) == batched
        stage = engine.report().stage("spec.evaluate")
        assert stage.evaluated == len(specs)
        assert stage.cache_hits == len(specs)


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
    """pack_point builds its rows from the stages resolve and the
    simulator use, so they equal the simulator's rows of the resolved
    designs by construction; this stays as the guard of that sharing."""
    packed = pack_point(spec, foundry_m3d_pdk())
    point = resolve(spec, None)
    batch = spec.workload.batch
    assert packed.row_2d == AcceleratorSimulator(
        point.baseline, point.pdk, batch=batch).row
    assert packed.row_m3d == AcceleratorSimulator(
        point.m3d, point.pdk, batch=batch).row


#: sha256 (first 32 hex digits) of the reprs of ``resolve(spec)``'s
#: baseline, M3D design and footprint plus ``pack_point``'s two rows and
#: footprint, for each spec of the joint grid followed by EDGE_SPECS —
#: recorded before resolve, the simulator and pack shared one staged
#: design construction, so that refactor is held to bit-identical
#: designs.
PINNED_DESIGNS = [
    "361485e61a57bb75799af9ec3ebbeb1c",
    "d5138871ff021915b650ad60c730b9ff",
    "68f227a204aaa5b498546a60da1eeb59",
    "15bf68c2e119565babafb466a03861db",
    "ebd843f3770290bc050e57d6f655157b",
    "a839294ec9adebd1e1e73a2e4d445d52",
    "288027610a4719f105da78bff68a2c01",
    "27920ba4084a235c240bcc0caa876a77",
    "34c132a551c8061031658b41cdb6e2b8",
    "3119fdefc7e9500a8c53ffe763a512ce",
    "611d5e6ee0f0aede35ef306f91022ce2",
    "f53e73daf40bcda73f1f251ec11b9c4d",
    "2cac4832a831227db72dad5776210d45",
    "67cc4c9be869ee7c57b0a4eef778129a",
    "009a8e87f95ff47d34bb80354932098d",
    "0193228e860fa88604c06f8b50140104",
    "2477c7b4768ee74ed5b1f93f59336688",
    "728974483273881e8802a52ffb2a82c6",
    "39945269919cdeab50d46d7515099f0a",
    "f4d1bf103ef0579d19f2a9bed6e31fb9",
    "cf46ed21c7fde8e89fff02ad411d7863",
    "d57f935148d8f60f91b03b819656442d",
    "27a84198dcc0cb31460505e53804bf92",
    "13fdc649e7bb66a0fc28a6400e021e91",
    "1dd93af341dfd5640311b67320f2932e",
    "2b838a2dba7d1169f3d6c128aa200185",
    "6ef0ee094cdb85d5358dab5a64f31127",
    "ab8277489f36aaa866a671a345181cef",
    "a9feaaf78c98d51305ca79f4f4f435df",
    "b3dec19f66f13b84d2e67f831665d63d",
    "d4040c58f9e7bf1c352ea49ea7b72599",
    "5b1a3d55e42562c865290581b21df001",
    "3eacc675dfe50d50f8664bfd485d329a",
    "0a3707f3f552d608dbfde6e6e82977d9",
    "107951a87f588767963dad0e9621c0b1",
    "f94589b19cb0b90b028ac2ccb7965dcb",
    "2cac4832a831227db72dad5776210d45",
    "4aadc4075567d6ffaa954edfc4523ef7",
    "21a09c35f6e3cca869e012bbc2658cf2",
    "b4897429ce4cdf23e6e63ddfed33251d",
    "00490a36505c4438094c6bbc324e788d",
    "d737ebbd2e60e82429af189c26e62d44",
    "67cc4c9be869ee7c57b0a4eef778129a",
    "6446e1729739d87d3ee97e48cb12337d",
    "2cac4832a831227db72dad5776210d45",
    "2cac4832a831227db72dad5776210d45",
]


def _design_digest(spec: DesignSpec) -> str:
    point = resolve(spec, None)
    packed = pack_point(spec, foundry_m3d_pdk())
    text = "\n".join(repr(value) for value in (
        point.baseline, point.m3d, point.footprint,
        packed.row_2d, packed.row_m3d, packed.footprint))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def test_resolved_designs_and_packed_rows_are_pinned():
    from repro.core.dse import joint_grid_sweep

    specs = list(joint_grid_sweep().iter_specs()) + EDGE_SPECS
    assert [_design_digest(spec) for spec in specs] == PINNED_DESIGNS


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
            kernel.evaluate_calls(spec_calls([spec]))
        return
    batched, = kernel.evaluate_calls(spec_calls([spec]))
    _assert_close(batched, scalar)


@settings(max_examples=50, deadline=None)
@given(spec=_SPECS)
def test_packed_point_matches_resolved_simulator_rows(spec):
    """Wherever ``pack_point`` accepts a spec, the scalar path evaluates
    it, and the packed rows and footprint are exactly the simulator's
    rows of the resolved designs and the resolved footprint."""
    try:
        packed = pack_point(spec, foundry_m3d_pdk())
    except UnsupportedSpec:
        return
    evaluate_spec(spec)
    point = resolve(spec, None)
    batch = spec.workload.batch
    assert packed.row_2d == AcceleratorSimulator(
        point.baseline, point.pdk, batch=batch).row
    assert packed.row_m3d == AcceleratorSimulator(
        point.m3d, point.pdk, batch=batch).row
    assert packed.footprint == point.footprint


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
        BatchKernel().evaluate_calls(spec_calls([spec]))


def test_pack_point_rejects_what_the_row_schema_cannot_express():
    with pytest.raises(UnsupportedSpec):
        pack_point(DesignSpec(arch=ArchSpec(capacity_bits=MEGABYTE)),
                   foundry_m3d_pdk())


def _shared_section_chunk() -> "tuple[list[DesignSpec], set[int]]":
    """One chunk whose points share section objects as a sweep's do, and
    the indices of the points the row schema cannot express.

    * ``small`` serves two networks; ResNet-18's weights do not fit it.
    * ``shared`` appears under batch 1 and batch 4 (and an equal but
      distinct arch object beside it).
    * ``wide`` puts the precision over the writeback bus.
    """
    tech = TechSpec()
    small = ArchSpec(capacity_bits=8 * MEGABYTE)
    shared = ArchSpec(capacity_bits=64 * MEGABYTE, tier_pairs=2)
    wide = ArchSpec(capacity_bits=512 * MEGABYTE, precision_bits=256)
    resnet = WorkloadSpec(network="resnet18")
    mobilenet = WorkloadSpec(network="mobilenet_v1")
    resnet4 = WorkloadSpec(network="resnet18", batch=4)
    specs = [
        DesignSpec(tech=tech, arch=small, workload=resnet),
        DesignSpec(tech=tech, arch=small, workload=mobilenet),
        DesignSpec(tech=tech, arch=shared, workload=resnet),
        DesignSpec(tech=tech, arch=shared, workload=resnet4),
        DesignSpec(tech=tech, arch=shared, workload=mobilenet),
        DesignSpec(tech=tech, arch=wide, workload=resnet),
        DesignSpec(tech=tech, arch=wide, workload=mobilenet),
        DesignSpec(tech=tech, arch=ArchSpec(capacity_bits=64 * MEGABYTE,
                                            tier_pairs=2), workload=resnet4),
        DesignSpec(tech=tech, arch=small, workload=mobilenet),
    ]
    return specs, {0, 5, 6}


def _scalar_outcome(spec: DesignSpec):
    """``evaluate_spec(spec)``, or the diagnostic it raises."""
    try:
        return evaluate_spec(spec)
    except ReproError as error:
        return (type(error), str(error))


def test_batch_packing_of_shared_designs_matches_scalar(monkeypatch):
    """Points sharing a design within one batch each get the scalar
    result, and exactly the points the row schema cannot express take
    the scalar fallback, with its diagnostic."""
    import repro.batch.kernel as kernel_module

    specs, unsupported = _shared_section_chunk()
    expected = [_scalar_outcome(spec) for spec in specs]
    assert {index for index, outcome in enumerate(expected)
            if isinstance(outcome, tuple)} == unsupported

    # Unpatched, the first unsupported point raises its scalar diagnostic.
    with pytest.raises(ReproError) as raised:
        BatchKernel().evaluate_calls(spec_calls(specs))
    assert (type(raised.value), str(raised.value)) == expected[0]

    # Recording the fallback's diagnostics shows every point's outcome.
    fallen: list[DesignSpec] = []

    def recorded(spec, *args, **kwargs):
        fallen.append(spec)
        return _scalar_outcome(spec)

    monkeypatch.setattr(kernel_module, "evaluate_spec", recorded)
    before = _batch_counter("fallback_scalar")
    results = BatchKernel().evaluate_calls(spec_calls(specs))
    assert _batch_counter("fallback_scalar") - before == len(unsupported)
    assert fallen == [specs[index] for index in sorted(unsupported)]
    for index, (result, outcome) in enumerate(zip(results, expected)):
        if index in unsupported:
            assert result == outcome
        else:
            _assert_close(result, outcome)


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
