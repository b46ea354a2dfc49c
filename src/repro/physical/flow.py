"""The Fig. 4b pipeline as a staged, cacheable flow over one design.

The physical flow is a sequence of **named stages**, each a pure
module-level function over the artifacts of the stages before it::

    synthesize -> floorplan -> legalize -> route -> clock -> congestion
               -> timing -> power -> thermal -> quality

:func:`run_staged_flow` drives one design through the stages, optionally
dispatching every stage call through a
:class:`~repro.runtime.engine.EvaluationEngine` under the stage names
``flow.<stage>``.  Because each stage function receives its upstream
artifacts *as arguments* and the engine keys calls by a content hash of
``(function, arguments)``, every stage is independently cached on exactly
(spec-section knobs, upstream-stage results, PDK): changing a
floorplan-shaping knob leaves ``flow.synthesize`` warm and re-runs only
the stages downstream of the floorplan — incremental invalidation falls
out of content addressing, with no explicit dependency graph to maintain.
Callers with a 2D/M3D pair run the flow once per design.

Which stages run, and with what knobs, comes from the spec layer's
:class:`~repro.spec.design.FlowSpec` section.  Instead of aborting on a
timing miss or a stage error, the run yields a :class:`FlowOutcome` whose
:class:`FlowFeasibility` carries per-check results (timing slack,
routability, power density, thermal headroom), so infeasible sweep points
are reportable results rather than exceptions.  ``strict=True`` restores
the historical mid-flow abort; with
``FlowSpec(clock=False, congestion=False, thermal=False)`` it reproduces
the original pipeline and its timing-failure exception bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
from repro.spec.design import FlowSpec, violated_checks
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
        return violated_checks(self.timing_met, self.routable,
                               self.power_density_ok,
                               self.thermal_ok) or "ok"


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




def _failed(stage: str) -> FlowFeasibility:
    """The feasibility of a flow that stopped at ``stage``."""
    return FlowFeasibility(
        timing_met=False, timing_slack=0.0, routable=False,
        track_utilization=0.0, ilv_utilization=0.0,
        power_density_ok=False, peak_power_density=0.0,
        thermal_ok=False, thermal_headroom_k=0.0, failed_stage=stage)


def _feasibility(flow: FlowSpec, timing: TimingResult,
                 congestion: CongestionReport | None, power: PowerReport,
                 thermal: ThermalReport | None) -> FlowFeasibility:
    """The checks of a completed flow; a check whose stage did not run
    reports its neutral value."""
    peak_density = power.peak_power_density
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


def run_staged_flow(
    design: AcceleratorDesign,
    pdk: PDK | None = None,
    flow: FlowSpec | None = None,
    engine=None,
    strict: bool = False,
) -> FlowOutcome:
    """Drive ``design`` through the staged flow, one stage after another.

    With an ``engine``, each stage call goes through ``engine.map`` under
    the stage name ``flow.<stage>`` (cached and counted per stage);
    ``engine=None`` calls the stage functions directly.

    A stage that raises :class:`~repro.errors.ReproError` ends the run
    with an infeasible :class:`FlowOutcome` whose ``failed_stage`` names
    it.  ``strict=True`` restores the historical abort instead: the
    error propagates, and a timing miss raises
    :class:`~repro.errors.ConfigurationError` right after the timing
    stage.
    """
    pdk = pdk if pdk is not None else foundry_m3d_pdk()
    flow = flow if flow is not None else FlowSpec()
    override = flow.frequency_hz
    frequency = override if override is not None else design.frequency_hz
    activity = ActivityFactors(cs_compute=flow.activity_cs,
                               weight_channel=flow.activity_channel,
                               writeback_bus=flow.activity_bus)
    artifacts: dict[str, object] = {}
    stage = ""

    def run(name: str, artifact: str, fn: Callable, *args):
        nonlocal stage
        stage = name
        with _span(f"flow.{name}"):
            if engine is None:
                result = fn(*args)
            else:
                (result,) = engine.map(fn, [args], stage=f"flow.{name}")
        artifacts[artifact] = result
        return result

    try:
        netlist = run("synthesize", "netlist", synthesize, design, pdk)
        floorplan = run("floorplan", "floorplan", build_floorplan,
                        netlist, design, pdk, flow.aspect_ratio)
        if flow.legalize:
            floorplan = run("legalize", "floorplan", legalize_floorplan,
                            floorplan, netlist)
        routing = run("route", "routing", route, floorplan, netlist)
        if flow.clock:
            run("clock", "clock", synthesize_clock_tree,
                floorplan, netlist, frequency)
        congestion = None
        if flow.congestion:
            congestion = run("congestion", "congestion", congestion_report,
                             floorplan, routing, design)
        timing = run("timing", "timing", analyze_timing,
                     floorplan, netlist, pdk, frequency)
        if strict:
            require(timing.meets_target,
                    f"{design.name}: failed timing at "
                    f"{frequency / 1e6:.0f} MHz "
                    f"(critical path {timing.critical_path * 1e9:.2f} ns)")
        power = run("power", "power", analyze_power,
                    floorplan, netlist, design, pdk, activity, override)
        thermal = None
        if flow.thermal:
            thermal = run("thermal", "thermal", analyze_thermal,
                          floorplan, power, flow.thermal_grid,
                          flow.max_rise_k)
        run("quality", "quality", placement_quality, floorplan, netlist)
    except ReproError as error:
        if strict:
            raise
        outcome = FlowOutcome(design=design, flow=flow,
                              feasibility=_failed(stage), error=str(error),
                              **artifacts)
    else:
        outcome = FlowOutcome(
            design=design, flow=flow,
            feasibility=_feasibility(flow, timing, congestion, power,
                                     thermal),
            **artifacts)
    if _obs_enabled():
        counters = _metrics_registry()
        status = "feasible" if outcome.feasible else "infeasible"
        counters.counter("repro_flow_outcomes_total", status=status).inc()
        if outcome.thermal is not None:
            counters.histogram(
                "repro_flow_thermal_residual",
                buckets=THERMAL_RESIDUAL_BUCKETS,
            ).observe(outcome.thermal.residual)
    return outcome
