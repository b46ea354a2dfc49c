"""Experiment drivers: structure and formatting."""

import pytest

from repro.experiments import (
    format_case_study,
    format_fig5,
    format_fig8,
    format_fig9,
    format_fig10c,
    format_fig10d,
    format_obs3,
    format_obs8,
    format_obs10,
    format_table1,
    run_experiment,
)
from repro.experiments import ExperimentContext
from repro.experiments.reporting import format_table, percent, times
from repro.spec import DesignSpec, evaluate_spec, spec_benefit
from repro.units import MEGABYTE
from repro.workloads.layers import LayerKind


# --- reporting helpers ---------------------------------------------------------

def test_format_table_alignment():
    text = format_table("T", ["a", "long_header"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "long_header" in lines[1]
    assert len(lines) == 5


def test_format_table_rejects_ragged_rows():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        format_table("T", ["a", "b"], [["only-one"]])


def test_times_formatting():
    assert times(5.664) == "5.66x"
    assert times(5.664, 1) == "5.7x"


def test_percent_formatting():
    assert percent(0.0062, 2) == "0.62%"


# --- drivers -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def case_study(ctx):
    return run_experiment("casestudy", ctx, capacity_bits=64 * MEGABYTE)


def test_case_study_headlines(case_study):
    assert case_study.iso_footprint
    assert case_study.iso_capacity
    assert case_study.cs_gain == 7  # 1 CS -> 8 CSs
    assert case_study.upper_tier_fraction < 0.01
    assert 1.0 <= case_study.peak_density_ratio < 1.02


def test_case_study_format(case_study):
    text = format_case_study(case_study)
    assert "2D baseline" in text and "M3D" in text
    assert "iso-footprint: True" in text


def test_fig5_rows(ctx):
    rows = run_experiment("fig5", ctx, capacity_bits=64 * MEGABYTE)
    assert len(rows) == 6
    text = format_fig5(rows)
    assert "resnet18" in text and "EDP benefit range" in text


def test_table1_rows_and_total(ctx):
    rows = run_experiment("table1", ctx, capacity_bits=64 * MEGABYTE)
    assert rows[0].name == "CONV1+POOL"
    assert rows[-1].name == "Total"
    assert len(rows) == 21  # merged stem + 19 conv/DS rows + total
    text = format_table1(rows)
    assert "paper speedup" in text


def test_table1_total_matches_paper(ctx):
    total = run_experiment("table1", ctx, capacity_bits=64 * MEGABYTE)[-1]
    assert total.speedup == pytest.approx(5.64, rel=0.05)
    assert total.edp_benefit == pytest.approx(5.66, rel=0.05)


def test_fig8_result(ctx):
    result = run_experiment("fig8", ctx)
    assert result.compute_bound_doubling == pytest.approx(2.1, rel=0.1)
    assert result.memory_bound_rebalance == pytest.approx(2.1, rel=0.1)
    text = format_fig8(result)
    assert "Fig. 8a" in text and "Fig. 8b" in text


def test_fig9_series(ctx):
    points = run_experiment("fig9", ctx)
    text = format_fig9(points)
    assert "12 MB" in text and "128 MB" in text


def test_fig10c_series(ctx):
    results = run_experiment("fig10c", ctx)
    assert results[0].spec.tech.delta == 1.0
    text = format_fig10c(results)
    assert "delta" in text


def test_obs8_series(ctx):
    results = run_experiment("obs8", ctx)
    text = format_obs8(results)
    assert "beta" in text


def test_fig10d_result(ctx):
    result = run_experiment("fig10d", ctx, max_pairs=3)
    assert len(result.network_sweep) == 3
    assert len(result.parallel_layer_sweep) == 3
    text = format_fig10d(result)
    assert "pairs Y" in text


#: A context spec off the defaults in fields none of the single-knob
#: studies sets itself.
OFF_DEFAULT_SPEC = DesignSpec.from_jsonable({
    "workload": {"network": "resnet18", "batch": 4},
    "arch": {"precision_bits": 4},
})


#: (experiment, knobs, its row at the base point, the knobs it sets there).
SINGLE_KNOB_CASES = [
    ("fig9", {}, lambda rows: rows[5],
     {"arch.capacity_bits": 64 * MEGABYTE}),
    ("fig10c", {}, lambda rows: rows[0],
     {"tech.delta": 1.0, "arch.baseline": "reoptimized"}),
    ("obs8", {}, lambda rows: rows[0].evaluation,
     {"tech.beta": 1.0, "arch.baseline": "reoptimized"}),
    ("fig10d", {"max_pairs": 1}, lambda result: result.network_sweep[0],
     {"arch.tier_pairs": 1}),
    ("ext-precision", {"precisions": (4,)}, lambda rows: rows[0].evaluation,
     {"arch.cs": "precision-scaled", "arch.precision_bits": 4}),
    ("ext-memtech", {}, lambda rows: next(
        row.evaluation for row in rows
        if row.evaluation.spec.tech.memory == "rram"),
     {"tech.memory": "rram"}),
]


@pytest.mark.parametrize("name, knobs, pick, changes", SINGLE_KNOB_CASES,
                         ids=[case[0] for case in SINGLE_KNOB_CASES])
def test_single_knob_studies_follow_the_context_spec(pdk, name, knobs, pick,
                                                     changes):
    """Each study's base point is ``evaluate_spec`` of the context spec
    with the study's own knobs set: no other spec field is dropped."""
    ctx = ExperimentContext.create(pdk=pdk, spec=OFF_DEFAULT_SPEC)
    row = pick(run_experiment(name, ctx, **knobs))
    assert row == evaluate_spec(OFF_DEFAULT_SPEC.updated(changes), pdk)


def _benefits(row):
    return row.speedup, row.energy_benefit, row.edp_benefit


def _table1_total(benefit):
    """Table I's Total row: the benefit over the non-FC layers."""
    layers = [b for b in benefit.layers
              if b.baseline.layer.kind != LayerKind.FC]
    speedup = (sum(b.baseline.cycles for b in layers)
               / sum(b.m3d.cycles for b in layers))
    energy = (sum(b.baseline.energy for b in layers)
              / sum(b.m3d.energy for b in layers))
    return speedup, energy, speedup * energy


def _beol_logic(result, spec, pdk):
    extended = spec.updated({"arch.n_cs": result.si_cs + result.cnfet_cs})
    return ((result.baseline_edp_benefit, result.edp_benefit),
            (evaluate_spec(spec, pdk).edp_benefit,
             evaluate_spec(extended, pdk).edp_benefit))


#: An encoder context spec off the defaults in a field ext-batching does
#: not set itself (twice the CSs of one tier pair).
ENCODER_SPEC = DesignSpec.from_jsonable({
    "workload": {"network": "tiny_encoder"},
    "arch": {"tier_pairs": 2},
})

#: (experiment, context spec, knobs, (result, spec, pdk) -> (the study's
#: value, the spec path's value at the context spec with its knobs)).
PER_LAYER_CASES = [
    ("table1", OFF_DEFAULT_SPEC, {}, lambda rows, spec, pdk: (
        _benefits(rows[-1]), _table1_total(spec_benefit(spec, pdk)))),
    ("fig5", OFF_DEFAULT_SPEC, {"networks": ("alexnet",)},
     lambda rows, spec, pdk: (
         _benefits(rows[0]), _benefits(evaluate_spec(
             spec.updated({"workload.network": "alexnet"}), pdk)))),
    ("obs3", OFF_DEFAULT_SPEC, {"density_ratios": (2.0,)},
     lambda rows, spec, pdk: (
         (rows[0].speedup, rows[0].edp_benefit),
         _benefits(evaluate_spec(
             spec.updated({"arch.n_cs": rows[0].n_cs}), pdk))[::2])),
    ("folding", OFF_DEFAULT_SPEC, {}, lambda result, spec, pdk: (
        result.architectural_edp_benefit,
        evaluate_spec(spec, pdk).edp_benefit)),
    ("ext-beol-logic", OFF_DEFAULT_SPEC, {}, _beol_logic),
    ("ext-batching", ENCODER_SPEC, {"batches": (4,)},
     lambda rows, spec, pdk: (
         _benefits(rows[0]), _benefits(evaluate_spec(
             spec.updated({"workload.batch": 4}), pdk)))),
]


@pytest.mark.parametrize("name, spec, knobs, compare", PER_LAYER_CASES,
                         ids=[case[0] for case in PER_LAYER_CASES])
def test_per_layer_studies_follow_the_context_spec(pdk, name, spec, knobs,
                                                   compare):
    """Each study's value equals the spec path's at the context spec with
    the study's own knobs set: batch, precision and tier pairs are kept."""
    ctx = ExperimentContext.create(pdk=pdk, spec=spec)
    got, want = compare(run_experiment(name, ctx, **knobs), spec, pdk)
    assert got == want


def test_obs3_rows(ctx):
    rows = run_experiment("obs3", ctx, capacity_bits=64 * MEGABYTE)
    by_ratio = {row.density_ratio: row for row in rows}
    assert by_ratio[1.0].n_cs == 8
    assert by_ratio[2.0].n_cs == 16
    assert by_ratio[2.0].edp_benefit == pytest.approx(6.8, rel=0.05)
    text = format_obs3(rows)
    assert "16" in text


def test_obs10_rows(ctx):
    rows = run_experiment("obs10", ctx)
    assert all(row.max_pairs >= 0 for row in rows)
    pair_counts = [row.max_pairs for row in rows]
    assert pair_counts == sorted(pair_counts, reverse=True)
    text = format_obs10(rows)
    assert "60 K" in text
