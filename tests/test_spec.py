"""The declarative spec layer: serialization, sweeps, resolution, CLI."""

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigurationError
from repro.runtime.engine import EvaluationEngine
from repro.runtime.memo import memo_table, reset_memoization
from repro.spec import (
    ArchSpec,
    DesignSpec,
    SweepSpec,
    TechSpec,
    WorkloadSpec,
    evaluate_spec,
    evaluate_specs,
    field_paths,
    load_design_spec,
    load_sweep_spec,
    resolve,
    scaled_pdk,
)
from repro.spec.design import BASELINE_POLICIES, CS_PRESETS
from repro.spec.sweep import reset_duplicate_axis_warnings
from repro.spec.resolve import build_workload
from repro.units import MEGABYTE
from repro.workloads.models import resnet18
from repro.workloads.transformer import tiny_encoder


# --- round-tripping --------------------------------------------------------------

def test_default_spec_is_the_case_study():
    spec = DesignSpec()
    assert spec.arch.capacity_bits == 64 * MEGABYTE
    assert spec.tech.delta == 1.0 and spec.tech.beta == 1.0
    assert spec.arch.baseline == "iso" and spec.arch.cs == "case-study"
    assert spec.workload.network == "resnet18"


def test_round_trip_identity():
    spec = DesignSpec(
        tech=TechSpec(delta=1.6, beta=1.3, memory="stt_mram"),
        arch=ArchSpec(capacity_bits=32 * MEGABYTE, tier_pairs=2,
                      baseline="reoptimized"),
        workload=WorkloadSpec(network="alexnet", batch=4),
    )
    assert DesignSpec.from_jsonable(spec.to_jsonable()) == spec
    assert DesignSpec.from_json(spec.to_json()) == spec


def test_json_form_is_plain():
    data = json.loads(DesignSpec().to_json())
    assert set(data) == {"tech", "arch", "workload", "flow"}
    assert data["arch"]["capacity_bits"] == 64 * MEGABYTE


def test_sections_may_be_omitted():
    spec = DesignSpec.from_jsonable({"arch": {"capacity_mb": 32}})
    assert spec.arch.capacity_bits == 32 * MEGABYTE
    assert spec.tech == TechSpec()


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
        capacity_bits=st.integers(min_value=1, max_value=2 ** 40),
        tier_pairs=st.integers(min_value=1, max_value=8),
        n_cs=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
        baseline=st.sampled_from(BASELINE_POLICIES),
        cs=st.sampled_from(CS_PRESETS),
        precision_bits=st.sampled_from([4, 8, 16]),
    ),
    workload=st.builds(
        WorkloadSpec,
        network=st.sampled_from(["resnet18", "alexnet", "tiny_encoder"]),
        layer=st.none(),
        batch=st.integers(min_value=1, max_value=256),
    ),
)


@settings(max_examples=50, deadline=None)
@given(spec=_SPECS)
def test_random_specs_round_trip(spec):
    assert DesignSpec.from_json(spec.to_json()) == spec


@settings(max_examples=25, deadline=None)
@given(spec=_SPECS)
def test_fingerprint_is_content_based(spec):
    rebuilt = DesignSpec.from_json(spec.to_json())
    assert rebuilt.fingerprint() == spec.fingerprint()
    assert spec.with_capacity(spec.arch.capacity_bits + 1).fingerprint() \
        != spec.fingerprint()


# --- validation ------------------------------------------------------------------

def test_unknown_section_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        DesignSpec.from_jsonable({"tach": {"delta": 2.0}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        DesignSpec.from_jsonable({"tech": {"gamma": 2.0}})


def test_bad_values_rejected():
    with pytest.raises(ConfigurationError):
        TechSpec(delta=0.5)
    with pytest.raises(ConfigurationError):
        TechSpec(beta=0.0)
    with pytest.raises(ConfigurationError):
        ArchSpec(baseline="grown")
    with pytest.raises(ConfigurationError):
        ArchSpec(capacity_bits=0)
    with pytest.raises(ConfigurationError):
        WorkloadSpec(batch=0)


def test_capacity_mb_and_bits_are_exclusive():
    with pytest.raises(ConfigurationError, match="not both"):
        DesignSpec.from_jsonable(
            {"arch": {"capacity_bits": 1, "capacity_mb": 64}})


def test_updated_applies_dotted_paths():
    spec = DesignSpec().updated(
        {"tech.delta": 1.6, "arch.capacity_mb": 32, "workload.batch": 4})
    assert spec.tech.delta == 1.6
    assert spec.arch.capacity_bits == 32 * MEGABYTE
    assert spec.workload.batch == 4


def test_updated_rejects_unknown_path():
    with pytest.raises(ConfigurationError, match="unknown spec path"):
        DesignSpec().updated({"tech.gamma": 2.0})
    with pytest.raises(ConfigurationError, match="unknown spec path"):
        DesignSpec().updated({"delta": 2.0})


def test_field_paths_cover_all_sections():
    paths = field_paths()
    assert "tech.delta" in paths
    assert "arch.capacity_bits" in paths
    assert "workload.network" in paths
    assert "flow.frequency_mhz" in paths


# --- sweeps ----------------------------------------------------------------------

def test_grid_expands_full_factorially_in_declaration_order():
    sweep = SweepSpec(grid={"arch.capacity_mb": [32, 64],
                            "tech.delta": [1.0, 2.0]})
    specs = sweep.expand()
    assert len(sweep) == len(specs) == 4
    knobs = [(s.arch.capacity_bits // MEGABYTE, s.tech.delta) for s in specs]
    assert knobs == [(32, 1.0), (32, 2.0), (64, 1.0), (64, 2.0)]


def test_zip_axes_advance_in_lockstep():
    sweep = SweepSpec(zipped={"arch.capacity_mb": [32, 64],
                              "tech.delta": [1.0, 2.0]})
    knobs = [(s.arch.capacity_bits // MEGABYTE, s.tech.delta)
             for s in sweep.expand()]
    assert knobs == [(32, 1.0), (64, 2.0)]


def test_zip_length_mismatch_rejected():
    with pytest.raises(ConfigurationError, match="same length"):
        SweepSpec(zipped={"arch.capacity_mb": [32, 64],
                          "tech.delta": [1.0]})


def test_unknown_axis_rejected():
    with pytest.raises(ConfigurationError, match="unknown grid axis"):
        SweepSpec(grid={"arch.capacity_gb": [1]})


def test_duplicate_axis_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        SweepSpec(grid=[("tech.delta", (1.0,)), ("tech.delta", (2.0,))])


def test_duplicate_grid_values_deduplicated_with_warning():
    reset_duplicate_axis_warnings()
    with pytest.warns(UserWarning, match="grid axis 'tech.delta' repeats "
                                         "1 value"):
        sweep = SweepSpec(grid={"tech.delta": [1.0, 2.0, 1.0],
                                "tech.beta": [1.0, 1.3]})
    assert dict(sweep.grid)["tech.delta"] == (1.0, 2.0)
    assert len(sweep) == 4
    deltas = [s.tech.delta for s in sweep.expand()]
    assert deltas == [1.0, 1.0, 2.0, 2.0]


def test_duplicate_grid_warning_fires_once_per_sweep_content():
    """One logical sweep warns once, however often it is reconstructed.

    Streaming and serving re-decode the same sweep repeatedly (wire
    decode, checkpoint resume, chunk replay) — without the content guard
    that re-warned once per chunk under an ``always`` warnings filter.
    """
    reset_duplicate_axis_warnings()
    document = {"grid": {"tech.delta": [1.0, 2.0, 1.0]}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep = SweepSpec.from_jsonable(document)
        # Re-normalizations of the same content: reconstruction, wire
        # round-trip, and a chunked streaming run over the sweep.
        SweepSpec.from_jsonable(document)
        SweepSpec.from_jsonable(sweep.to_jsonable())
        from repro.runtime.engine import EvaluationEngine
        from repro.sweep import run_streaming_sweep

        result = run_streaming_sweep(sweep, engine=EvaluationEngine(),
                                     chunk_size=1)
    assert result.points == 2          # duplicates dropped exactly once
    dedup_warnings = [w for w in caught
                      if "repeats" in str(w.message)]
    assert len(dedup_warnings) == 1
    # A *different* duplication still warns.
    with pytest.warns(UserWarning, match="tech.beta"):
        SweepSpec(grid={"tech.beta": [1.0, 1.0]})


def test_unique_grid_values_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = SweepSpec(grid={"tech.delta": [1.0, 2.0]})
    assert dict(sweep.grid)["tech.delta"] == (1.0, 2.0)


def test_duplicate_zip_values_kept():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = SweepSpec(zipped={"arch.capacity_mb": [32, 32],
                                  "tech.delta": [1.0, 2.0]})
    assert len(sweep) == 2
    knobs = [(s.arch.capacity_bits // MEGABYTE, s.tech.delta)
             for s in sweep.expand()]
    assert knobs == [(32, 1.0), (32, 2.0)]


def test_sweep_round_trips():
    sweep = SweepSpec(base=DesignSpec().with_network("alexnet"),
                      grid={"tech.delta": [1.0, 2.0]},
                      points=(DesignSpec(),))
    assert SweepSpec.from_json(sweep.to_json()) == sweep


def test_sweep_points_merge_over_base():
    sweep = SweepSpec.from_jsonable({
        "base": {"workload": {"network": "alexnet"}},
        "points": [{"arch": {"capacity_mb": 32}}],
    })
    base_point, merged = sweep.expand()
    assert base_point == sweep.base
    assert merged.workload.network == "alexnet"
    assert merged.arch.capacity_bits == 32 * MEGABYTE


def test_plain_design_spec_loads_as_one_point_sweep(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(DesignSpec().to_json())
    sweep = load_sweep_spec(str(path))
    assert sweep.expand() == (DesignSpec(),)


# --- resolution ------------------------------------------------------------------

def test_default_spec_resolves_to_the_case_study_pair(pdk, baseline, m3d):
    point = resolve(DesignSpec(), pdk)
    assert point.baseline == baseline
    assert point.m3d == m3d
    assert point.network == resnet18()


def test_resolution_is_memoized_on_content(pdk):
    spec = DesignSpec(tech=TechSpec(delta=1.3))
    rebuilt = DesignSpec.from_json(spec.to_json())
    assert resolve(spec, pdk) is resolve(rebuilt, pdk)


def test_explicit_n_cs_override(pdk):
    point = resolve(DesignSpec(arch=ArchSpec(n_cs=3)), pdk)
    assert point.n_cs_m3d == 3


def test_tier_pairs_multiply_the_cs_count(pdk):
    single = resolve(DesignSpec(), pdk)
    double = resolve(DesignSpec(arch=ArchSpec(tier_pairs=2)), pdk)
    assert double.n_cs_m3d == 2 * single.n_cs_m3d


def test_reoptimized_baseline_grows_with_delta(pdk):
    spec = DesignSpec(tech=TechSpec(delta=2.0),
                      arch=ArchSpec(baseline="reoptimized"))
    point = resolve(spec, pdk)
    assert point.n_cs_2d > 1
    assert point.baseline.area.footprint == pytest.approx(point.footprint)


def test_scaled_pdk_is_identity_at_unity(pdk):
    assert scaled_pdk(pdk, 1.0) is pdk
    assert scaled_pdk(pdk, 2.0).ilv.pitch == 2.0 * pdk.ilv.pitch


def test_build_workload_matches_the_zoo():
    assert build_workload(WorkloadSpec(network="resnet18")) == resnet18()
    assert build_workload(WorkloadSpec(network="tiny_encoder")) \
        == tiny_encoder()


def test_build_workload_layer_restriction():
    network = build_workload(
        WorkloadSpec(network="resnet18", layer="L4.1 CONV2"))
    assert network.name == "resnet18_L4.1_CONV2"
    assert len(network.layers) == 1


def test_build_workload_rejects_unknown_network():
    for _ in range(2):              # a failed build is never memoized
        with pytest.raises(ConfigurationError,
                           match="unknown workload network"):
            build_workload(WorkloadSpec(network="resnet9000"))


def test_resolves_of_one_workload_share_one_network():
    reset_memoization()
    first = resolve(DesignSpec(workload=WorkloadSpec(network="alexnet")))
    second = resolve(DesignSpec(
        arch=ArchSpec(capacity_bits=128 * MEGABYTE),
        workload=WorkloadSpec(network="alexnet", batch=4)))
    assert second.network is first.network
    stats = memo_table("spec.workload").stats()
    assert (stats.misses, stats.hits) == (1, 1)


# --- evaluation + restart-surviving cache keys -----------------------------------

def test_disk_cache_hits_survive_a_process_restart(tmp_path, pdk):
    """Spec-fingerprint keys are content hashes: a fresh engine (fresh
    memory tier, same directory) serves the result from disk without
    evaluating — the property the identity-keyed memo tables lacked."""
    spec = DesignSpec(arch=ArchSpec(capacity_bits=16 * MEGABYTE))
    cold_engine = EvaluationEngine(cache_dir=str(tmp_path))
    (cold,) = evaluate_specs([spec], engine=cold_engine)
    assert cold_engine.report().evaluated == 1

    # Simulate the restart: drop every in-process memo table and build a
    # brand-new engine over the same cache directory, then re-submit a
    # freshly parsed (different-identity) but content-equal spec.
    reset_memoization()
    warm_engine = EvaluationEngine(cache_dir=str(tmp_path))
    (warm,) = evaluate_specs([DesignSpec.from_json(spec.to_json())],
                             engine=warm_engine)
    report = warm_engine.report()
    assert report.evaluated == 0
    assert report.cache_hits == 1
    assert warm == cold


def test_duplicate_specs_deduplicate_in_a_batch(pdk):
    spec = DesignSpec()
    engine = EvaluationEngine()
    first, second = evaluate_specs(
        [spec, DesignSpec.from_json(spec.to_json())], engine=engine)
    assert first == second
    stats = engine.report().stage("spec.evaluate")
    assert stats.evaluated + stats.cache_hits == 1


def test_evaluate_spec_reports_the_headline_benefit(pdk):
    evaluation = evaluate_spec(DesignSpec(), pdk)
    assert evaluation.n_cs_2d == 1
    assert evaluation.n_cs_m3d == 8
    assert evaluation.speedup > 5.0


# --- CLI -------------------------------------------------------------------------

@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"arch": {"capacity_mb": 16}, "workload": {"network": "resnet18"}}))
    return str(path)


def test_cli_eval_runs_a_spec(capsys, spec_file):
    assert main(["eval", "--spec", spec_file]) == 0
    out = capsys.readouterr().out
    assert "Spec evaluation" in out
    assert "16 MB" in out


def test_cli_sweep_runs_a_sweep(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(
        {"grid": {"arch.capacity_mb": [16, 32]}}))
    assert main(["sweep", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(2 points)" in out
    assert "32 MB" in out


def test_cli_eval_requires_spec(capsys):
    assert main(["eval"]) == 2
    assert "--spec" in capsys.readouterr().err


def test_cli_rejects_a_bad_spec_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"tech": {"gamma": 2}}')
    assert main(["eval", "--spec", str(path)]) == 2
    assert "bad --spec" in capsys.readouterr().err
    assert main(["fig9", "--spec", str(path)]) == 2
    assert "bad --spec" in capsys.readouterr().err


def test_cli_experiment_accepts_a_base_spec(capsys, spec_file):
    assert main(["obs10", "--spec", spec_file]) == 0
    assert "60 K" in capsys.readouterr().out


def test_cli_lists_the_spec_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "eval" in out and "sweep" in out


def test_load_design_spec_missing_file():
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_design_spec("/nonexistent/spec.json")
