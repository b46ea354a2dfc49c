"""Certified pruning bounds on the one cost model, scalar and batched.

``spec_bounds`` prices a point's M3D side with
:func:`~repro.perf.layer_cost.layer_cost` on two relaxed copies of its
design row, and ``BatchKernel.bound_calls`` runs the same relaxed rows
through the kernel's delta evaluation.  The guarantees under test:

* **Pinned** — the scalar bounds are bit-identical to the term-by-term
  formula they replaced (values recorded from it);
* **Parity** — batched bounds equal scalar bounds bit for bit, and stay
  admissible against the batch kernel's own evaluations; calls the
  kernel cannot take fall back to scalar;
* **Pruning** — a batched pruned sweep prunes exactly what the scalar
  pruned sweep prunes, chunk by chunk, keeps the exhaustive frontier,
  and resumes from its checkpoint with zero re-evaluations;
* **Partial results** — with ``max_failures=-1`` an invalid point is
  recorded, not raised, whether or not the sweep prunes.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchKernel, pack_point, spec_call_key
from repro.core.dse import joint_grid_sweep
from repro.errors import ReproError
from repro.runtime.engine import EvaluationEngine
from repro.runtime.keys import call_key
from repro.runtime.memo import counter_stats
from repro.spec import (
    ArchSpec,
    DesignSpec,
    SweepSpec,
    TechSpec,
    WorkloadSpec,
    scaled_pdk,
)
from repro.spec.evaluate import spec_calls
from repro.sweep import run_streaming_sweep, spec_bounds, stream_sweep
from repro.sweep.bounds import UNBOUNDED_CS, relaxed_rows
from repro.tech.pdk import foundry_m3d_pdk
from repro.units import MEGABYTE

#: ``(footprint, speedup_ub, energy_benefit_ub, edp_benefit_ub)`` of each
#: spec, recorded from the per-layer lower-bound formula that restated
#: ``layer_cost`` term by term before the bound moved onto it.
PINNED = {
    DesignSpec(): (
        0.0004817637168108, 7.326172169249958, 1.0269484466841186,
        7.52360112934414),
    DesignSpec(tech=TechSpec(delta=1.6, beta=1.3),
               arch=ArchSpec(capacity_bits=128 * MEGABYTE, tier_pairs=2,
                             baseline="reoptimized")): (
        0.0010452232411545602, 1.7051396643097692, 1.0169972434298091,
        1.7341223382641313),
    DesignSpec(arch=ArchSpec(n_cs=5)): (
        0.0004817637168108, 7.326172169249958, 1.0269484466841186,
        7.52360112934414),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=4,
                             tier_pairs=4),
               workload=WorkloadSpec(network="mobilenet_v1")): (
        0.0004817637168108, 23.17518510046009, 1.3094612308060358,
        30.34700640577583),
    DesignSpec(workload=WorkloadSpec(layer="L3.0 CONV1", batch=4)): (
        0.0004817637168108, 13.360861759438853, 1.0231523851309605,
        13.670197576561232),
    DesignSpec(tech=TechSpec(delta=3.0),
               arch=ArchSpec(baseline="reoptimized")): (
        0.0009798967885824, 1.2795588353505118, 1.0236210420338023,
        1.3097833483837398),
    DesignSpec(arch=ArchSpec(capacity_bits=32 * MEGABYTE),
               workload=WorkloadSpec(layer="FC", batch=8)): (
        0.0003184475853804, 45.58426966296693, 1.056755689045353,
        48.171436297269636),
    DesignSpec(tech=TechSpec(memory="stt_mram", beta=1.3),
               arch=ArchSpec(tier_pairs=8)): (
        0.0006087873745899999, 7.326172169249958, 1.0263188113331583,
        7.518988312359164),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=16)): (
        0.0004817637168108, 6.570884393041371, 1.007110940898495,
        6.617609563604514),
}

#: Specs off the joint grid: n_cs override, iso and re-optimized
#: baselines, both CS presets, layer restriction, delta/beta and memory
#: variants, precision 4/8/16, batch > 1.
EDGE_SPECS = [
    DesignSpec(),
    DesignSpec(arch=ArchSpec(n_cs=5)),
    DesignSpec(arch=ArchSpec(n_cs=40, baseline="reoptimized")),
    DesignSpec(arch=ArchSpec(baseline="iso", tier_pairs=4)),
    DesignSpec(arch=ArchSpec(cs="case-study", precision_bits=4)),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=4)),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=8,
                             tier_pairs=2)),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=16)),
    DesignSpec(workload=WorkloadSpec(network="resnet18", layer="CONV1")),
    DesignSpec(workload=WorkloadSpec(network="resnet18", layer="FC",
                                     batch=8)),
    DesignSpec(tech=TechSpec(delta=2.0, beta=1.3)),
    DesignSpec(tech=TechSpec(delta=3.0),
               arch=ArchSpec(baseline="reoptimized", tier_pairs=8)),
    DesignSpec(tech=TechSpec(memory="fefet", delta=2.0)),
    DesignSpec(workload=WorkloadSpec(network="mobilenet_v1", batch=4)),
    DesignSpec(workload=WorkloadSpec(network="alexnet", batch=8)),
]


def _bound_tuple(bound):
    return (bound.footprint, bound.speedup_ub, bound.energy_benefit_ub,
            bound.edp_benefit_ub)


def _batch_counters():
    return dict(next((c.values for c in counter_stats()
                      if c.name == "batch"), ()))


@pytest.fixture(scope="module")
def parity_specs():
    return list(joint_grid_sweep().iter_specs()) + EDGE_SPECS


# --- the scalar bound is the old formula, bit for bit -----------------------------


@pytest.mark.parametrize("spec", list(PINNED), ids=range(len(PINNED)))
def test_scalar_bounds_are_pinned_bit_identical(spec):
    assert _bound_tuple(spec_bounds(spec)) == PINNED[spec]


def test_relaxed_rows_drop_exactly_the_cs_dependent_terms():
    m3d = pack_point(DesignSpec(), foundry_m3d_pdk()).row_m3d
    timing, energy = relaxed_rows(m3d)
    assert (timing.n_cs, timing.bandwidth_bits) == (UNBOUNDED_CS,) * 2
    assert timing.weight_bits_per_slab == 0
    assert (energy.n_cs, energy.bandwidth_bits) == (1, 1)
    assert timing.static_power == energy.static_power == 0.0
    cs_free = ("n_cs", "bandwidth_bits", "weight_bits_per_slab",
               "static_power")
    for name in m3d._fields:
        if name not in cs_free:
            assert getattr(timing, name) == getattr(m3d, name)
            assert getattr(energy, name) == getattr(m3d, name)
    # Every CS-count sibling relaxes to the same pair of rows.
    sibling = pack_point(DesignSpec(arch=ArchSpec(tier_pairs=4)),
                         foundry_m3d_pdk()).row_m3d
    assert sibling.n_cs != m3d.n_cs
    assert relaxed_rows(sibling) == (timing, energy)


# --- batched bounds: parity, admissibility, fallback -----------------------------


def test_bound_calls_match_scalar_spec_bounds(parity_specs):
    before = _batch_counters()
    batched = BatchKernel().bound_calls([((spec,), {})
                                         for spec in parity_specs])
    # Every parity spec took the vectorized path.
    assert _batch_counters()["bound_fallback_scalar"] \
        == before.get("bound_fallback_scalar", 0)
    for spec, bound in zip(parity_specs, batched):
        scalar = spec_bounds(spec)
        assert bound.spec == spec
        assert bound.footprint == scalar.footprint
        for name in ("speedup_ub", "energy_benefit_ub", "edp_benefit_ub"):
            assert getattr(bound, name) == getattr(scalar, name)


def test_bound_calls_are_admissible_against_the_kernel(parity_specs):
    kernel = BatchKernel()
    bounds = kernel.bound_calls([((spec,), {}) for spec in parity_specs])
    evaluations = kernel.evaluate_calls(spec_calls(parity_specs))
    for bound, evaluation in zip(bounds, evaluations):
        assert bound.footprint == evaluation.footprint
        assert bound.speedup_ub >= evaluation.speedup
        assert bound.energy_benefit_ub >= evaluation.energy_benefit
        assert bound.edp_benefit_ub >= evaluation.edp_benefit


def test_bound_calls_fall_back_to_scalar_for_a_foreign_pdk():
    other = scaled_pdk(foundry_m3d_pdk(), 1.5)
    spec = DesignSpec(arch=ArchSpec(tier_pairs=2))
    before = _batch_counters()
    packed, fallback = BatchKernel().bound_calls(
        [((spec,), {}), ((spec, other), {})])
    after = _batch_counters()
    assert _bound_tuple(packed) == _bound_tuple(spec_bounds(spec))
    assert fallback == spec_bounds(spec, other)
    assert after["bound_points"] - before.get("bound_points", 0) == 2
    assert after["bound_fallback_scalar"] \
        - before.get("bound_fallback_scalar", 0) == 1


def test_bound_calls_raise_the_scalar_diagnostic_for_invalid_specs():
    spec = DesignSpec(arch=ArchSpec(capacity_bits=MEGABYTE))
    with pytest.raises(ReproError):
        spec_bounds(spec)
    with pytest.raises(ReproError):
        BatchKernel().bound_calls([((spec,), {})])


def test_bound_calls_reuse_the_baseline_rows_for_evaluation():
    specs = list(joint_grid_sweep().iter_specs())
    kernel = BatchKernel()
    kernel.bound_calls([((spec,), {}) for spec in specs])
    before = _batch_counters()
    kernel.evaluate_calls(spec_calls(specs))
    after = _batch_counters()
    hits = after["delta_hits"] - before.get("delta_hits", 0)
    # Every 2D row was evaluated by the bound pass.
    assert hits >= len(specs)


def test_bound_calls_relax_each_distinct_m3d_row_once(monkeypatch):
    import repro.batch.kernel as kernel_module

    relaxed = []

    def counting(row):
        relaxed.append(row)
        return relaxed_rows(row)

    monkeypatch.setattr(kernel_module, "relaxed_rows", counting)
    # Two networks per design: each design's two points share its
    # sections, so they share one interned M3D row.
    specs = list(SweepSpec(base=DesignSpec(), grid={
        "arch.capacity_mb": [32, 64, 96],
        "workload.network": ["resnet18", "mobilenet_v1"]}).iter_specs())
    bounds = BatchKernel().bound_calls([((spec,), {}) for spec in specs])
    assert len(relaxed) == 3
    assert len({id(row) for row in relaxed}) == 3
    for spec, bound in zip(specs, bounds):
        assert _bound_tuple(bound) == _bound_tuple(spec_bounds(spec))


def test_bound_keys_match_the_generic_call_key():
    spec = DesignSpec(arch=ArchSpec(tier_pairs=2))
    other = scaled_pdk(foundry_m3d_pdk(), 1.5)
    for args in ((spec,), (spec, other)):
        assert spec_call_key(spec_bounds, args, {}) \
            == call_key(spec_bounds, args, {})


# --- pruned sweeps: batched == scalar --------------------------------------------


def _perfbench_shaped_sweep() -> SweepSpec:
    """640 points: 40 capacities x tiers x precision x network."""
    return SweepSpec(base=DesignSpec(), grid={
        "arch.capacity_mb": [(1600 + 457 * i) / 100 for i in range(40)],
        "arch.tier_pairs": [1, 2, 4, 8],
        "arch.precision_bits": [4, 8],
        "workload.network": ["resnet18", "mobilenet_v1"],
    })


def _pruned_per_chunk(sweep, chunk_size, **options):
    chunks = list(stream_sweep(sweep, engine=EvaluationEngine(jobs=1),
                               chunk_size=chunk_size, prune=True,
                               **options))
    return [chunk.pruned for chunk in chunks]


@pytest.mark.parametrize("grid, chunk_size", [
    (joint_grid_sweep, 5),
    (_perfbench_shaped_sweep, 32),
], ids=["joint36", "dse640"])
def test_batched_pruning_equals_scalar_pruning(grid, chunk_size, tmp_path):
    sweep = grid()
    scalar = _pruned_per_chunk(sweep, chunk_size)
    batched = _pruned_per_chunk(sweep, chunk_size, batch=True)
    assert batched == scalar
    assert sum(batched) > 0

    exhaustive = run_streaming_sweep(sweep, engine=EvaluationEngine(jobs=1),
                                     chunk_size=chunk_size, batch=True,
                                     collect=False)
    cold = run_streaming_sweep(sweep, engine=EvaluationEngine(jobs=1),
                               chunk_size=chunk_size, batch=True, prune=True,
                               checkpoint=tmp_path, collect=False)
    assert cold.pruned == sum(batched)
    assert cold.frontier.steps() == exhaustive.frontier.steps()

    engine = EvaluationEngine(jobs=1)
    resumed = run_streaming_sweep(sweep, engine=engine,
                                  chunk_size=chunk_size, batch=True,
                                  prune=True, checkpoint=tmp_path,
                                  collect=False)
    assert resumed.resumed_chunks == resumed.chunks == cold.chunks
    assert resumed.pruned == cold.pruned
    assert resumed.frontier.steps() == cold.frontier.steps()
    evaluated = sum(stage.evaluated for stage in engine.report().stages)
    assert evaluated == 0


# --- partial-results mode with pruning -------------------------------------------


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
def test_pruned_sweep_records_invalid_points(batch):
    # 0.5 and 0.25 MB cannot hold ResNet-18's weights: both fail, and the
    # pruned sweep must record them as the unpruned one does.
    sweep = SweepSpec(base=DesignSpec(), grid={
        "arch.capacity_mb": [64, 32, 0.5, 0.25],
        "workload.network": ["resnet18"],
    })

    def run(prune):
        return run_streaming_sweep(sweep, engine=EvaluationEngine(jobs=1),
                                   chunk_size=1, prune=prune, batch=batch,
                                   max_failures=-1)

    unpruned, pruned = run(False), run(True)
    assert unpruned.failed == 2
    assert (pruned.points, pruned.failed) == \
        (unpruned.points, unpruned.failed)
    assert [f.spec for f in pruned.failures] == \
        [f.spec for f in unpruned.failures]
    assert pruned.frontier.steps() == unpruned.frontier.steps()
