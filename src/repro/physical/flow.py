"""Flow drivers: the Fig. 4b pipeline as a staged, cacheable pipeline.

The physical flow is a sequence of **named stages**, each a pure
module-level function over the artifacts of the stages before it::

    synthesize -> floorplan -> legalize -> route -> clock -> congestion
               -> timing -> power -> thermal -> quality

:func:`run_staged_flows` drives any number of designs through the stages,
optionally dispatching every stage call through a
:class:`~repro.runtime.engine.EvaluationEngine` under the stage names
``flow.<stage>``.  Because each stage function receives its upstream
artifacts *as arguments* and the engine keys calls by a content hash of
``(function, arguments)``, every stage is independently cached on exactly
(spec-section knobs, upstream-stage results, PDK): changing a
floorplan-shaping knob leaves ``flow.synthesize`` warm and re-runs only
the stages downstream of the floorplan — incremental invalidation falls
out of content addressing, with no explicit dependency graph to maintain.

Which stages run, and with what knobs, comes from the spec layer's
:class:`~repro.spec.design.FlowSpec` section.  Instead of aborting on a
timing miss, each design yields a :class:`FlowOutcome` whose
:class:`FlowFeasibility` carries per-check results (timing slack,
routability, power density, thermal headroom), so infeasible sweep points
are reportable results rather than exceptions.  ``strict=True`` restores
the historical mid-flow abort — :func:`run_flow`, the legacy single-design
entry point, is a thin strict wrapper that reproduces the original
pipeline (and its timing-failure exception) bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.arch.accelerator import AcceleratorDesign
from repro.errors import ReproError, require
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import is_enabled as _obs_enabled, span as _span
from repro.physical.clock import ClockTree, synthesize_clock_tree
from repro.physical.congestion import CongestionReport, congestion_report
from repro.physical.floorplan import Floorplan, build_floorplan
from repro.physical.netlist import Netlist, synthesize
from repro.physical.placement import legalize_floorplan, placement_quality
from repro.physical.power import ActivityFactors, PowerReport, analyze_power
from repro.physical.routing import RoutingResult, route
from repro.physical.thermal import ThermalReport, analyze_thermal
from repro.physical.timing import TimingResult, analyze_timing
from repro.spec.design import FlowSpec
from repro.tech.pdk import PDK, foundry_m3d_pdk

#: Stage names in execution order (the ``flow.<stage>`` engine stages).
FLOW_STAGES: tuple[str, ...] = (
    "synthesize", "floorplan", "legalize", "route", "clock", "congestion",
    "timing", "power", "thermal", "quality",
)

#: Buckets of ``repro_flow_thermal_residual`` (relative residual of the
#: thermal solve): exact solves land around 1e-12, so the decades below
#: and above it separate rounding noise from a degraded solve.
THERMAL_RESIDUAL_BUCKETS: tuple[float, ...] = (
    1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class FlowFeasibility:
    """Per-check feasibility of one flow run.

    Every check that did not run (stage toggled off in the
    :class:`~repro.spec.design.FlowSpec`) reports its neutral value —
    an absent check never makes a point infeasible.

    Attributes:
        timing_met: Critical path closes at the target clock.
        timing_slack: Slack at the target clock, seconds (negative =
            timing miss).
        routable: Track and ILV demand inside their capacities.
        track_utilization: Routing-track utilization (0 if unchecked).
        ilv_utilization: ILV utilization (0 if unchecked).
        power_density_ok: Peak block power density inside the spec's
            ``max_power_density`` cap (True when uncapped).
        peak_power_density: Peak block power density, W/m^2.
        thermal_ok: Hotspot rise inside the spec's ``max_rise_k`` budget.
        thermal_headroom_k: Budget minus hotspot rise, K (negative =
            over budget).
        failed_stage: Stage that raised, for a point whose flow could
            not complete (``None`` for a completed flow).
    """

    timing_met: bool
    timing_slack: float
    routable: bool
    track_utilization: float
    ilv_utilization: float
    power_density_ok: bool
    peak_power_density: float
    thermal_ok: bool
    thermal_headroom_k: float
    failed_stage: str | None = None

    @property
    def feasible(self) -> bool:
        """True when every check that ran passed and no stage failed."""
        return (self.failed_stage is None and self.timing_met
                and self.routable and self.power_density_ok
                and self.thermal_ok)

    @property
    def verdict(self) -> str:
        """Compact label: ``"ok"``, ``"failed:<stage>"``, or the
        ``+``-joined names of the violated checks."""
        if self.failed_stage is not None:
            return f"failed:{self.failed_stage}"
        reasons = []
        if not self.timing_met:
            reasons.append("timing")
        if not self.routable:
            reasons.append("routing")
        if not self.power_density_ok:
            reasons.append("density")
        if not self.thermal_ok:
            reasons.append("thermal")
        return "+".join(reasons) if reasons else "ok"


@dataclass(frozen=True)
class FlowOutcome:
    """Structured result of one staged flow run — never an exception.

    Carries every stage's artifact plus a :class:`FlowFeasibility`
    verdict.  Artifacts of stages toggled off, or downstream of a failed
    stage, are ``None``; ``error`` holds a failed stage's diagnostic, so
    an infeasible sweep point is a reportable row instead of an abort.

    Attributes:
        design: The input design.
        flow: The flow-spec section that drove the run.
        feasibility: Per-check feasibility verdict.
        netlist: Synthesized block-level netlist.
        floorplan: Legalized floorplan.
        routing: Routing estimate.
        clock: Clock tree (``None`` when the stage is toggled off).
        congestion: Congestion report (``None`` when toggled off).
        timing: Static timing outcome.
        power: Per-tier power report.
        thermal: Thermal summary (``None`` when toggled off).
        quality: Placement quality metrics.
        error: Diagnostic of the failed stage, if any.
    """

    design: AcceleratorDesign
    flow: FlowSpec
    feasibility: FlowFeasibility
    netlist: Netlist | None = None
    floorplan: Floorplan | None = None
    routing: RoutingResult | None = None
    clock: ClockTree | None = None
    congestion: CongestionReport | None = None
    timing: TimingResult | None = None
    power: PowerReport | None = None
    thermal: ThermalReport | None = None
    quality: dict[str, float] | None = None
    error: str | None = None

    @property
    def footprint(self) -> float:
        """Die area, m^2."""
        require(self.floorplan is not None,
                f"{self.design.name}: flow failed before floorplanning")
        return self.floorplan.footprint

    @property
    def closed_timing(self) -> bool:
        """True when the design meets its target frequency."""
        return self.timing is not None and self.timing.meets_target

    @property
    def feasible(self) -> bool:
        """Shortcut for ``feasibility.feasible``."""
        return self.feasibility.feasible


class _Slot:
    """Mutable per-design state while the stages advance."""

    __slots__ = ("design", "netlist", "floorplan", "routing", "clock",
                 "congestion", "timing", "power", "thermal", "quality",
                 "error", "failed_stage")

    def __init__(self, design: AcceleratorDesign) -> None:
        self.design = design
        self.netlist = None
        self.floorplan = None
        self.routing = None
        self.clock = None
        self.congestion = None
        self.timing = None
        self.power = None
        self.thermal = None
        self.quality = None
        self.error: str | None = None
        self.failed_stage: str | None = None


def _feasibility(slot: _Slot, flow: FlowSpec) -> FlowFeasibility:
    if slot.error is not None:
        return FlowFeasibility(
            timing_met=False, timing_slack=0.0, routable=False,
            track_utilization=0.0, ilv_utilization=0.0,
            power_density_ok=False, peak_power_density=0.0,
            thermal_ok=False, thermal_headroom_k=0.0,
            failed_stage=slot.failed_stage)
    timing = slot.timing
    congestion = slot.congestion
    thermal = slot.thermal
    peak_density = slot.power.peak_power_density
    return FlowFeasibility(
        timing_met=timing.meets_target,
        timing_slack=timing.slack,
        routable=congestion.routable if congestion is not None else True,
        track_utilization=(congestion.track_utilization
                           if congestion is not None else 0.0),
        ilv_utilization=(congestion.ilv_utilization
                         if congestion is not None else 0.0),
        power_density_ok=(flow.max_power_density is None
                          or peak_density <= flow.max_power_density),
        peak_power_density=peak_density,
        thermal_ok=thermal.within_budget if thermal is not None else True,
        thermal_headroom_k=(thermal.headroom_k if thermal is not None
                            else flow.max_rise_k),
    )


def run_staged_flows(
    designs: Iterable[AcceleratorDesign],
    pdk: PDK | None = None,
    flow: FlowSpec | None = None,
    engine=None,
    jobs: int | None = None,
    strict: bool = False,
) -> tuple[FlowOutcome, ...]:
    """Drive ``designs`` through the staged flow, one stage at a time.

    Each stage runs across all designs before the next starts; with an
    ``engine``, the calls go through ``engine.map`` under the stage name
    ``flow.<stage>`` (parallel across designs via ``jobs``, cached and
    counted per stage).  ``engine=None`` executes the stage functions
    directly — the uncached path the legacy :func:`run_flow` uses.

    ``strict=True`` restores the historical abort: a timing miss raises
    :class:`~repro.errors.ConfigurationError` with the legacy message
    right after the timing stage, and any stage error propagates.  In the
    default non-strict mode a single-design run converts a stage
    exception into an infeasible :class:`FlowOutcome` (the sweep path);
    a multi-design stage error still propagates, since the engine batch
    cannot attribute it to one design.
    """
    pdk = pdk if pdk is not None else foundry_m3d_pdk()
    flow = flow if flow is not None else FlowSpec()
    slots = [_Slot(design) for design in designs]
    override = flow.frequency_hz
    activity = ActivityFactors(cs_compute=flow.activity_cs,
                               weight_channel=flow.activity_channel,
                               writeback_bus=flow.activity_bus)

    def frequency(slot: _Slot) -> float:
        return override if override is not None else slot.design.frequency_hz

    def dispatch(stage: str, fn: Callable, attr: str,
                 call_for: Callable[[_Slot], tuple]) -> None:
        active = [slot for slot in slots if slot.error is None]
        if not active:
            return
        calls = [call_for(slot) for slot in active]
        with _span(f"flow.{stage}", designs=len(calls)):
            try:
                if engine is None:
                    results: Sequence = [fn(*call) for call in calls]
                else:
                    results = engine.map(fn, calls, stage=f"flow.{stage}",
                                         jobs=jobs)
            except ReproError as error:
                if strict or len(active) > 1:
                    raise
                active[0].error = str(error)
                active[0].failed_stage = stage
                return
        for slot, result in zip(active, results):
            setattr(slot, attr, result)

    dispatch("synthesize", synthesize, "netlist",
             lambda s: (s.design, pdk))
    dispatch("floorplan", build_floorplan, "floorplan",
             lambda s: (s.netlist, s.design, pdk, flow.aspect_ratio))
    if flow.legalize:
        dispatch("legalize", legalize_floorplan, "floorplan",
                 lambda s: (s.floorplan, s.netlist))
    dispatch("route", route, "routing",
             lambda s: (s.floorplan, s.netlist))
    if flow.clock:
        dispatch("clock", synthesize_clock_tree, "clock",
                 lambda s: (s.floorplan, s.netlist, frequency(s)))
    if flow.congestion:
        dispatch("congestion", congestion_report, "congestion",
                 lambda s: (s.floorplan, s.routing, s.design))
    dispatch("timing", analyze_timing, "timing",
             lambda s: (s.floorplan, s.netlist, pdk, frequency(s)))
    if strict:
        for slot in slots:
            require(slot.timing.meets_target,
                    f"{slot.design.name}: failed timing at "
                    f"{frequency(slot) / 1e6:.0f} MHz "
                    f"(critical path {slot.timing.critical_path * 1e9:.2f} ns)")
    dispatch("power", analyze_power, "power",
             lambda s: (s.floorplan, s.netlist, s.design, pdk, activity,
                        override))
    if flow.thermal:
        dispatch("thermal", analyze_thermal, "thermal",
                 lambda s: (s.floorplan, s.power, flow.thermal_grid,
                            flow.max_rise_k))
    dispatch("quality", placement_quality, "quality",
             lambda s: (s.floorplan, s.netlist))

    outcomes = tuple(
        FlowOutcome(
            design=slot.design, flow=flow,
            feasibility=_feasibility(slot, flow),
            netlist=slot.netlist, floorplan=slot.floorplan,
            routing=slot.routing, clock=slot.clock,
            congestion=slot.congestion, timing=slot.timing,
            power=slot.power, thermal=slot.thermal, quality=slot.quality,
            error=slot.error)
        for slot in slots)
    if _obs_enabled():
        counters = _metrics_registry()
        for outcome in outcomes:
            status = "feasible" if outcome.feasible else "infeasible"
            counters.counter("repro_flow_outcomes_total", status=status).inc()
            if outcome.thermal is not None:
                counters.histogram(
                    "repro_flow_thermal_residual",
                    buckets=THERMAL_RESIDUAL_BUCKETS,
                ).observe(outcome.thermal.residual)
    return outcomes


def run_staged_flow(
    design: AcceleratorDesign,
    pdk: PDK | None = None,
    flow: FlowSpec | None = None,
    engine=None,
    jobs: int | None = None,
    strict: bool = False,
) -> FlowOutcome:
    """Single-design convenience wrapper over :func:`run_staged_flows`."""
    (outcome,) = run_staged_flows((design,), pdk, flow=flow, engine=engine,
                                  jobs=jobs, strict=strict)
    return outcome


def run_flow(
    design: AcceleratorDesign,
    pdk: PDK | None = None,
    activity: ActivityFactors | None = None,
) -> FlowOutcome:
    """Run the legacy physical design flow on ``design``.

    Strict compatibility path over the staged pipeline: same stages the
    historical flow ran (clock/congestion/thermal off), same direct
    execution (no engine), and the same
    :class:`~repro.errors.ConfigurationError` on a timing miss.  The
    returned outcome is complete: strict mode raises instead of
    recording a failed stage.
    """
    flow = FlowSpec(clock=False, congestion=False, thermal=False)
    if activity is not None:
        flow = replace(flow,
                       activity_cs=activity.cs_compute,
                       activity_channel=activity.weight_channel,
                       activity_bus=activity.writeback_bus)
    return run_staged_flow(design, pdk, flow=flow, strict=True)
