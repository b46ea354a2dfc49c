"""The staged physical flow: FlowSpec, caching, feasibility, equivalence.

Pins the four tentpole guarantees of the staged pipeline:

* the legacy flow (``legacy_flow``: no clock, congestion or thermal
  stage) is the original stage-call pipeline bit for bit, including its
  historical timing-failure exception under ``strict=True``;
* every stage is independently cached — editing one ``FlowSpec`` knob
  re-runs exactly the stages downstream of it, proven by the engine's
  per-stage ``RunReport`` counters;
* infeasible design points are structured :class:`FlowOutcome` results,
  never exceptions, and physical-aware sweeps keep them out of the
  Pareto frontier while still reporting them;
* floorplan legalization preserves the geometric invariants (on-die,
  overlap-free per tier) across capacities and aspect ratios.
"""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, prometheus_text, trace, use_registry
from repro.physical import run_staged_flow
from repro.physical.floorplan import build_floorplan
from repro.physical.netlist import synthesize
from repro.physical.placement import legalize_floorplan, placement_quality
from repro.physical.power import ActivityFactors, analyze_power
from repro.physical.routing import route
from repro.physical.timing import analyze_timing
from repro.runtime.engine import EvaluationEngine
from repro.spec import DesignSpec, FlowSpec, evaluate_spec, evaluate_specs
from repro.spec.design import ArchSpec
from repro.spec.resolve import resolve
from repro.spec.sweep import SweepSpec
from repro.sweep.pareto import ParetoFrontier
from repro.sweep.stream import run_streaming_sweep
from repro.units import MEGABYTE

#: The artifacts the legacy pipeline produced.
LEGACY_ARTIFACTS = ("design", "netlist", "floorplan", "routing", "timing",
                    "power", "quality")


# --- FlowSpec section ------------------------------------------------------


def test_flow_spec_round_trips_through_json():
    spec = DesignSpec(flow=FlowSpec(frequency_mhz=50.0, aspect_ratio=1.2,
                                    thermal=False, max_power_density=1e4))
    assert DesignSpec.from_json(spec.to_json()) == spec
    assert DesignSpec.from_jsonable(spec.to_jsonable()) == spec


def test_flow_spec_defaults_do_not_change_spec_identity():
    explicit = DesignSpec(flow=FlowSpec())
    assert explicit == DesignSpec()
    assert explicit.to_json() == DesignSpec().to_json()


@pytest.mark.parametrize("bad", [
    {"activity_cs": 1.5},
    {"activity_bus": -0.1},
    {"frequency_mhz": 0.0},
    {"aspect_ratio": -1.0},
    {"thermal_grid": 2},
    {"max_rise_k": 0.0},
    {"max_power_density": -5.0},
    {"legalize": "yes"},
])
def test_flow_spec_validates_fields(bad):
    with pytest.raises(ConfigurationError):
        FlowSpec(**bad)


def test_flow_spec_frequency_hz():
    assert FlowSpec().frequency_hz is None
    assert FlowSpec(frequency_mhz=20.0).frequency_hz == 20e6


def test_flow_fields_are_sweepable_axes():
    sweep = SweepSpec(grid={"flow.aspect_ratio": [1.0, 1.5]})
    ratios = [spec.flow.aspect_ratio for spec in sweep.expand()]
    assert ratios == [1.0, 1.5]


# --- legacy equivalence (strict path) --------------------------------------


def test_staged_flow_matches_direct_stage_calls(pdk, baseline, m3d,
                                                legacy_flow):
    """The legacy flow is the original pipeline: each stage called once,
    on its upstream artifacts, at the design's own frequency."""
    activity = ActivityFactors(cs_compute=legacy_flow.activity_cs,
                               weight_channel=legacy_flow.activity_channel,
                               writeback_bus=legacy_flow.activity_bus)
    for design in (baseline, m3d):
        outcome = run_staged_flow(design, pdk, flow=legacy_flow, strict=True)
        netlist = synthesize(design, pdk)
        floorplan = legalize_floorplan(
            build_floorplan(netlist, design, pdk, 1.0), netlist)
        assert outcome.netlist == netlist
        assert outcome.floorplan == floorplan
        assert outcome.routing == route(floorplan, netlist)
        assert outcome.timing == analyze_timing(floorplan, netlist, pdk,
                                                design.frequency_hz)
        assert outcome.power == analyze_power(floorplan, netlist, design,
                                              pdk, activity, None)
        assert outcome.quality == placement_quality(floorplan, netlist)
        assert outcome.feasible and outcome.error is None
        assert (outcome.clock, outcome.congestion, outcome.thermal) == \
            (None, None, None)


def test_extra_stages_leave_legacy_artifacts_identical(pdk, m3d,
                                                       legacy_flow):
    """Clock/congestion/thermal are new outputs, not perturbations."""
    legacy = run_staged_flow(m3d, pdk, flow=legacy_flow, strict=True)
    outcome = run_staged_flow(m3d, pdk, flow=FlowSpec(), strict=True)
    for artifact in LEGACY_ARTIFACTS:
        assert getattr(outcome, artifact) == getattr(legacy, artifact)
    assert outcome.clock is not None
    assert outcome.congestion is not None
    assert outcome.thermal is not None


def test_engine_dispatch_matches_direct_execution(pdk, baseline, m3d):
    engine = EvaluationEngine(jobs=1)
    for design in (baseline, m3d):
        direct = run_staged_flow(design, pdk, flow=FlowSpec())
        engined = run_staged_flow(design, pdk, flow=FlowSpec(),
                                  engine=engine)
        assert direct == engined
    counters = _flow_counters(engine)
    assert len(counters) == 10
    assert all(counts == (0, 2) for counts in counters.values()), counters


def test_strict_timing_failure_keeps_legacy_exception(pdk, baseline,
                                                      legacy_flow):
    fast = replace(baseline, frequency_hz=10e9)
    with pytest.raises(ConfigurationError) as staged:
        run_staged_flow(fast, pdk, flow=legacy_flow, strict=True)
    timing = run_staged_flow(fast, pdk, flow=legacy_flow).timing
    assert str(staged.value) == (
        f"{fast.name}: failed timing at 10000 MHz "
        f"(critical path {timing.critical_path * 1e9:.2f} ns)")


def test_nonstrict_timing_failure_is_a_result(pdk, baseline, legacy_flow):
    fast = replace(baseline, frequency_hz=10e9)
    outcome = run_staged_flow(fast, pdk, flow=legacy_flow)
    assert not outcome.feasible
    assert not outcome.feasibility.timing_met
    assert outcome.feasibility.timing_slack < 0
    assert outcome.feasibility.verdict == "timing"
    assert outcome.error is None          # the flow itself completed
    assert outcome.quality is not None


def test_flow_spec_frequency_overrides_design_target(pdk, baseline):
    outcome = run_staged_flow(baseline, pdk,
                              flow=FlowSpec(frequency_mhz=2000.0))
    assert not outcome.feasible
    ok = run_staged_flow(baseline, pdk, flow=FlowSpec(frequency_mhz=20.0))
    assert ok.feasible


def test_nonstrict_stage_error_becomes_outcome(monkeypatch, pdk, baseline):
    import repro.physical.flow as flow_mod

    def boom(design, pdk):
        raise ConfigurationError("synthetic synthesis failure")

    monkeypatch.setattr(flow_mod, "synthesize", boom)
    outcome = run_staged_flow(baseline, pdk)
    assert not outcome.feasible
    assert outcome.feasibility.failed_stage == "synthesize"
    assert outcome.feasibility.verdict == "failed:synthesize"
    assert "synthetic synthesis failure" in outcome.error
    assert outcome.netlist is None and outcome.quality is None
    with pytest.raises(ConfigurationError, match="synthetic"):
        run_staged_flow(baseline, pdk, strict=True)


# --- per-stage incremental caching -----------------------------------------


def _flow_counters(engine):
    return {stage.name: (stage.cache_hits, stage.evaluated)
            for stage in engine.report().stages
            if stage.name.startswith("flow.")}


def _run_with_knobs(pdk, design, cache_dir, flow):
    engine = EvaluationEngine(jobs=1, cache_dir=cache_dir)
    run_staged_flow(design, pdk, flow=flow, engine=engine)
    return _flow_counters(engine)


def test_cold_run_evaluates_every_stage(pdk, m3d, tmp_path):
    counters = _run_with_knobs(pdk, m3d, tmp_path, FlowSpec())
    assert len(counters) == 10
    assert all(counts == (0, 1) for counts in counters.values()), counters


def test_identical_rerun_hits_every_stage(pdk, m3d, tmp_path):
    cold_engine = EvaluationEngine(jobs=1, cache_dir=tmp_path)
    cold = run_staged_flow(m3d, pdk, flow=FlowSpec(), engine=cold_engine)
    engine = EvaluationEngine(jobs=1, cache_dir=tmp_path)
    warm = run_staged_flow(m3d, pdk, flow=FlowSpec(), engine=engine)
    counters = _flow_counters(engine)
    assert all(counts == (1, 0) for counts in counters.values()), counters
    assert warm == cold


def test_floorplan_knob_invalidates_exactly_downstream(pdk, m3d, tmp_path):
    _run_with_knobs(pdk, m3d, tmp_path, FlowSpec())
    counters = _run_with_knobs(pdk, m3d, tmp_path,
                               FlowSpec(aspect_ratio=1.21))
    assert counters["flow.synthesize"] == (1, 0)     # upstream: warm
    downstream = {name: counts for name, counts in counters.items()
                  if name != "flow.synthesize"}
    assert all(counts == (0, 1) for counts in downstream.values()), counters


def test_thermal_knob_invalidates_only_thermal(pdk, m3d, tmp_path):
    _run_with_knobs(pdk, m3d, tmp_path, FlowSpec())
    counters = _run_with_knobs(pdk, m3d, tmp_path, FlowSpec(thermal_grid=32))
    assert counters["flow.thermal"] == (0, 1)
    untouched = {name: counts for name, counts in counters.items()
                 if name != "flow.thermal"}
    assert all(counts == (1, 0) for counts in untouched.values()), counters


def test_activity_knob_invalidates_power_and_thermal(pdk, m3d, tmp_path):
    _run_with_knobs(pdk, m3d, tmp_path, FlowSpec())
    counters = _run_with_knobs(pdk, m3d, tmp_path, FlowSpec(activity_cs=0.5))
    assert counters["flow.power"] == (0, 1)
    assert counters["flow.thermal"] == (0, 1)        # consumes the power
    untouched = {name: counts for name, counts in counters.items()
                 if name not in ("flow.power", "flow.thermal")}
    assert all(counts == (1, 0) for counts in untouched.values()), counters


# --- spec-level physical evaluation ----------------------------------------


def test_evaluate_spec_physical_summary(pdk):
    evaluation = evaluate_spec(DesignSpec(), pdk, physical=True)
    physical = evaluation.physical
    assert physical is not None
    assert physical.feasible and evaluation.is_feasible
    assert physical.verdict == "ok"
    assert physical.achieved_frequency > 0
    assert physical.total_power > 0
    assert 0 < physical.ilv_utilization < 1
    assert 0 <= physical.thermal_residual <= 1e-10


def test_evaluate_spec_infeasible_point_does_not_raise(pdk):
    spec = DesignSpec(flow=FlowSpec(frequency_mhz=2000.0))
    evaluation = evaluate_spec(spec, pdk, physical=True)
    assert not evaluation.is_feasible
    assert evaluation.physical.verdict == "timing"
    assert not evaluation.physical.timing_met


def test_evaluate_spec_without_physical_is_unchanged(pdk):
    evaluation = evaluate_spec(DesignSpec(), pdk)
    assert evaluation.physical is None
    assert evaluation.is_feasible


def test_physical_evaluation_exports_thermal_residual(pdk):
    scoped = MetricsRegistry()
    with trace(), use_registry(scoped):
        evaluate_spec(DesignSpec(), pdk, physical=True)
    lines = prometheus_text(scoped).splitlines()
    assert "repro_flow_thermal_residual_count 2" in lines
    assert 'repro_flow_thermal_residual_bucket{le="1e-10"} 2' in lines


# --- feasibility-aware sweeps ----------------------------------------------


def _feasibility_sweep():
    return SweepSpec(grid={"arch.capacity_mb": [32, 64],
                           "flow.frequency_mhz": [20.0, 2000.0]})


def test_physical_sweep_reports_infeasible_points(pdk):
    result = run_streaming_sweep(_feasibility_sweep(), pdk, chunk_size=2,
                                 physical=True)
    assert result.points == len(result.evaluations) == 4
    assert result.infeasible == 2
    assert len(result.frontier) == 2
    assert all(ev.is_feasible for ev in result.frontier_evaluations())
    verdicts = sorted(ev.physical.verdict for ev in result.evaluations)
    assert verdicts == ["ok", "ok", "timing", "timing"]


def _two_network_sweep():
    return SweepSpec(grid={"arch.capacity_mb": [32, 64],
                           "workload.network": ["resnet18", "mobilenet_v1"],
                           "flow.frequency_mhz": [20.0, 2000.0]})


def test_physical_sweep_runs_each_chip_flow_once(pdk):
    engine = EvaluationEngine(jobs=1)
    sweep = _two_network_sweep()
    result = run_streaming_sweep(sweep, pdk, engine=engine, chunk_size=2,
                                 physical=True)
    chips = engine.report().stage("sweep.physical")
    assert (chips.calls, chips.evaluated, chips.cache_hits) == (8, 4, 4)
    assert result.evaluations == tuple(
        evaluate_spec(spec, pdk, physical=True) for spec in sweep.expand())


def test_physical_summaries_are_reused_across_networks(pdk, tmp_path):
    resnet = _feasibility_sweep().expand()
    evaluate_specs(resnet, pdk, physical=True,
                   engine=EvaluationEngine(jobs=1, cache_dir=tmp_path))
    mobilenet = [replace(spec, workload=replace(spec.workload,
                                                network="mobilenet_v1"))
                 for spec in resnet]
    engine = EvaluationEngine(jobs=1, cache_dir=tmp_path)
    evaluations = evaluate_specs(mobilenet, pdk, physical=True,
                                 engine=engine)
    report = engine.report()
    assert report.stage("spec.physical").evaluated == 0
    assert report.stage("spec.evaluate").evaluated == len(mobilenet)
    assert evaluations == tuple(evaluate_spec(spec, pdk, physical=True)
                                for spec in mobilenet)


def test_failed_chip_summary_is_recorded_on_each_of_its_points(
        monkeypatch, pdk):
    import repro.spec.evaluate as evaluate_mod

    summary = evaluate_mod.physical_summary

    def failing_at_64mb(tech, arch, flow, pdk=None):
        if arch.capacity_bits == 64 * MEGABYTE:
            raise ConfigurationError("no chip at 64 MB")
        return summary(tech, arch, flow, pdk)

    monkeypatch.setattr(evaluate_mod, "physical_summary", failing_at_64mb)
    engine = EvaluationEngine(jobs=1)
    result = run_streaming_sweep(_two_network_sweep(), pdk, engine=engine,
                                 chunk_size=4, physical=True,
                                 max_failures=-1)
    assert result.evaluated == result.failed == 4
    assert {failure.spec.arch.capacity_bits for failure in result.failures} \
        == {64 * MEGABYTE}
    assert {failure.spec.workload.network for failure in result.failures} \
        == {"resnet18", "mobilenet_v1"}
    assert engine.report().stage("sweep.physical").failures == 2


def test_physical_sweep_resumes_from_checkpoints(pdk, tmp_path):
    sweep = _feasibility_sweep()
    first = run_streaming_sweep(sweep, pdk, chunk_size=2, physical=True,
                                checkpoint=tmp_path)
    second = run_streaming_sweep(sweep, pdk, chunk_size=2, physical=True,
                                 checkpoint=tmp_path)
    assert second.resumed_chunks == second.chunks == 2
    assert second.evaluations == first.evaluations
    assert second.infeasible == first.infeasible == 2


def test_physical_and_plain_checkpoints_never_collide(pdk, tmp_path):
    sweep = _feasibility_sweep()
    run_streaming_sweep(sweep, pdk, chunk_size=2, physical=True,
                        checkpoint=tmp_path)
    plain = run_streaming_sweep(sweep, pdk, chunk_size=2,
                                checkpoint=tmp_path)
    assert plain.resumed_chunks == 0
    assert plain.infeasible == 0


def test_frontier_rejects_and_counts_infeasible_offers():
    frontier = ParetoFrontier()
    assert frontier.add(1.0, 1.0, "feasible")
    assert not frontier.add(0.5, 2.0, "infeasible", feasible=False)
    assert len(frontier) == 1
    assert frontier.infeasible == 1
    assert frontier.items() == ("feasible",)


# --- thermal stage shares the core constants --------------------------------


def test_thermal_stage_matches_spatial_solver(pdk, m3d):
    pytest.importorskip("numpy")
    from repro.core.thermal import ThermalStack, vertical_conductance
    from repro.physical.thermal_map import solve_thermal_map

    stack = ThermalStack()
    assert vertical_conductance(1.0, stack) \
        == pytest.approx(1.0 / stack.r_ambient)
    outcome = run_staged_flow(m3d, pdk, flow=FlowSpec())
    solved = solve_thermal_map(outcome.floorplan, outcome.power)
    assert outcome.thermal.hotspot_rise_k == solved.hotspot
    assert outcome.thermal.average_rise_k == solved.average
    assert outcome.thermal.budget_k == stack.max_rise
    assert outcome.thermal.residual == solved.residual <= 1e-10


# --- records persisted by earlier versions --------------------------------


#: The fields a pre-residual (iterative-solver) record lacks, by class.
_RESIDUAL_FIELDS = {"PhysicalSummary": "thermal_residual",
                    "ThermalReport": "residual"}


def _drop_residual(cls: str, fields: dict) -> bool:
    """Age a record to before the solver residual existed."""
    if cls not in _RESIDUAL_FIELDS:
        return False
    del fields[_RESIDUAL_FIELDS[cls]]
    return True


def _add_spatial(cls: str, fields: dict) -> bool:
    """Age a record to when ThermalReport carried the ``spatial`` flag of
    its removed no-numpy fallback."""
    if cls != "ThermalReport":
        return False
    fields["spatial"] = True
    return True


def _age_tree(node, age) -> int:
    """Apply ``age`` to every dataclass record in a lowered tree; count
    the records it changed."""
    if isinstance(node, list):
        return sum(_age_tree(item, age) for item in node)
    if not isinstance(node, dict):
        return 0
    aged = 0
    if "__dataclass__" in node:
        cls = str(node["__dataclass__"]).rpartition(":")[2]
        aged = int(age(cls, node["fields"]))
    return aged + sum(_age_tree(value, age) for value in node.values())


def _age_records(directory, age=_drop_residual) -> int:
    """Rewrite every JSON record under ``directory`` as an older one."""
    aged = 0
    for path in directory.rglob("*.json"):
        data = json.loads(path.read_text(encoding="utf-8"))
        aged += _age_tree(data, age)
        path.write_text(json.dumps(data), encoding="utf-8")
    return aged


def test_stale_cached_evaluation_is_quarantined(pdk, tmp_path):
    (fresh,) = evaluate_specs([DesignSpec()], pdk, physical=True,
                              engine=EvaluationEngine(jobs=1,
                                                      cache_dir=tmp_path))
    assert _age_records(tmp_path) == 1
    engine = EvaluationEngine(jobs=1, cache_dir=tmp_path)
    (again,) = evaluate_specs([DesignSpec()], pdk, physical=True,
                              engine=engine)
    assert engine.cache.stats.corrupt == 1
    assert [(stage.cache_hits, stage.evaluated)
            for stage in engine.report().stages] == [(1, 0), (0, 1)]
    assert list(tmp_path.glob("*.corrupt"))
    assert again == fresh


@pytest.mark.parametrize("age", [
    pytest.param(_drop_residual, id="missing-residual"),
    pytest.param(_add_spatial, id="removed-spatial"),
])
def test_stale_cached_thermal_stage_reruns(pdk, m3d, tmp_path, age):
    _run_with_knobs(pdk, m3d, tmp_path, FlowSpec())
    assert _age_records(tmp_path, age) == 1
    counters = _run_with_knobs(pdk, m3d, tmp_path, FlowSpec())
    assert counters["flow.thermal"] == (0, 1)
    assert len(list(tmp_path.rglob("*.corrupt"))) == 1
    untouched = {name: counts for name, counts in counters.items()
                 if name != "flow.thermal"}
    assert all(counts == (1, 0) for counts in untouched.values()), counters


def test_stale_checkpoint_record_is_reevaluated(pdk, tmp_path):
    sweep = _feasibility_sweep()
    first = run_streaming_sweep(sweep, pdk, chunk_size=2, physical=True,
                                checkpoint=tmp_path)
    assert _age_records(tmp_path) == first.points
    second = run_streaming_sweep(sweep, pdk, chunk_size=2, physical=True,
                                 checkpoint=tmp_path)
    assert second.resumed_chunks == 0
    assert second.evaluations == first.evaluations


# --- floorplan legalization invariants -------------------------------------


def _legal_floorplan(capacity_mb: int, aspect_ratio: float):
    point = resolve(DesignSpec(
        arch=ArchSpec(capacity_bits=capacity_mb * MEGABYTE)))
    netlist = synthesize(point.m3d, point.pdk)
    floorplan = build_floorplan(netlist, point.m3d, point.pdk, aspect_ratio)
    return legalize_floorplan(floorplan, netlist)


@settings(max_examples=10, deadline=None)
@given(capacity_mb=st.sampled_from([16, 32, 64, 128]),
       aspect_ratio=st.floats(min_value=0.85, max_value=1.2))
def test_legalized_floorplan_stays_on_die_without_overlap(
        capacity_mb, aspect_ratio):
    floorplan = _legal_floorplan(capacity_mb, aspect_ratio)
    for placed in floorplan.placements:
        assert floorplan.die.contains(placed.rect), placed.name
    for tier in ("si_cmos", "rram", "cnfet"):
        blocks = floorplan.on_tier(tier)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert not a.rect.overlaps(b.rect), (tier, a.name, b.name)


@settings(max_examples=5, deadline=None)
@given(aspect_ratio=st.floats(min_value=0.85, max_value=1.2))
def test_footprint_is_monotone_in_capacity(aspect_ratio):
    footprints = [_legal_floorplan(mb, aspect_ratio).footprint
                  for mb in (16, 32, 64, 128)]
    assert footprints == sorted(footprints)
    assert footprints[0] < footprints[-1]


def test_aspect_ratio_one_is_bit_identical_to_legacy(pdk, m3d):
    netlist = synthesize(m3d, pdk)
    assert build_floorplan(netlist, m3d, pdk, 1.0) \
        == build_floorplan(netlist, m3d, pdk)


def test_aspect_ratio_shapes_the_die(pdk, m3d):
    netlist = synthesize(m3d, pdk)
    wide = build_floorplan(netlist, m3d, pdk, 1.44)
    square = build_floorplan(netlist, m3d, pdk, 1.0)
    assert wide.die.width > square.die.width
    assert math.isclose(wide.footprint, square.footprint, rel_tol=1e-9)
