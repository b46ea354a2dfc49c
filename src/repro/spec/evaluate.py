"""Spec-driven evaluation: ``DesignSpec -> SpecEvaluation``.

:func:`spec_benefit` resolves a spec and runs the simulator on the
resulting 2D/M3D pair at the spec's batch, keeping the per-layer
reports; :func:`evaluate_spec` gets the same totals' summary from the
batch kernel's design rows (:mod:`repro.batch.kernel`);
:func:`evaluate_specs` batches many specs through
the evaluation engine, which content-hashes each ``evaluate_spec(spec)``
call.  Because a spec is pure data, that cache key is a canonical-JSON
hash of a few dozen bytes — it survives process restarts through the disk
cache, and shipping a call to a ``--jobs N`` worker serializes the spec,
not a tree of live design objects.

``physical=True`` additionally drives both resolved designs through the
staged physical flow (:func:`repro.physical.flow.run_staged_flow`, knobs
from the spec's ``flow`` section) and attaches a :class:`PhysicalSummary`
— including a feasibility verdict — to the evaluation.  An infeasible
point (timing miss, unroutable, over the thermal budget) is a normal
result carrying ``feasible=False``, never an exception, which is what
lets physical-aware sweeps report infeasible regions instead of aborting.
The summary belongs to the chip — :func:`physical_summary` takes the
``(tech, arch, flow)`` sections, not the workload — so many-point
evaluation (:func:`map_physical`) runs each chip's flow once, on the
process pool while the analytic stage runs here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

from repro.errors import EvaluationFailure, require
from repro.perf.compare import BenefitReport, compare_designs
from repro.perf.simulator import simulate
from repro.runtime.cache import MISSING
from repro.runtime.engine import EvaluationEngine, MapHandle, default_engine
from repro.runtime.keys import stable_key
from repro.runtime.memo import memo_table
from repro.runtime.serialize import from_jsonable, to_jsonable
from repro.spec.design import (
    ArchSpec,
    DesignSpec,
    FlowSpec,
    TechSpec,
    violated_checks,
)
from repro.spec.resolve import resolve, resolve_chips
from repro.tech.pdk import PDK, foundry_m3d_pdk
from repro.units import MEGABYTE

__all__ = [
    "PhysicalSummary",
    "SpecEvaluation",
    "evaluate_spec",
    "evaluate_specs",
    "format_spec_evaluations",
    "map_physical",
    "physical_summary",
    "spec_benefit",
    "spec_calls",
    "submit_flows",
]

#: Analytic memo: stable_key(tech, arch, workload, pdk) -> the six
#: analytic fields of :func:`evaluate_spec`.
_ANALYTIC_MEMO = memo_table("spec.analytic")


@dataclass(frozen=True)
class PhysicalSummary:
    """Physical-flow metrics of one evaluated design point.

    The point is *feasible* when both chips of the comparison close
    physically — the M3D design and its 2D baseline each meet timing,
    route, and stay inside the power-density and thermal budgets of the
    spec's ``flow`` section.  The scalar metrics describe the M3D design
    (the paper's subject); ``power_density_ratio`` relates it to the 2D
    baseline (Obs. 2).

    Attributes:
        feasible: Both designs closed every enabled check.
        failed_stage: Flow stage that raised, if the flow could not
            complete (``None`` otherwise).
        timing_met: Both designs close timing at the target clock.
        timing_slack: M3D slack at the target clock, seconds.
        achieved_frequency: M3D maximum frequency, Hz (0 if unknown).
        routable: Both designs fit their routing/ILV capacity.
        track_utilization: M3D routing-track utilization.
        ilv_utilization: M3D inter-layer-via utilization.
        total_power: M3D chip power, watts.
        peak_power_density: M3D peak block power density, W/m^2.
        power_density_ok: Density inside the spec's cap (both designs).
        power_density_ratio: M3D / 2D peak density (paper: ~1.01).
        upper_tier_fraction: M3D power fraction in the BEOL tiers.
        hotspot_rise_k: M3D hotspot temperature rise, K.
        thermal_headroom_k: Budget minus M3D hotspot rise, K.
        thermal_ok: Both designs inside the thermal budget.
        thermal_residual: Worst relative residual of the two designs'
            thermal solves (0 when the thermal stage did not run).
    """

    feasible: bool
    failed_stage: str | None
    timing_met: bool
    timing_slack: float
    achieved_frequency: float
    routable: bool
    track_utilization: float
    ilv_utilization: float
    total_power: float
    peak_power_density: float
    power_density_ok: bool
    power_density_ratio: float
    upper_tier_fraction: float
    hotspot_rise_k: float
    thermal_headroom_k: float
    thermal_ok: bool
    thermal_residual: float

    @property
    def verdict(self) -> str:
        """Short diagnosis: ``"ok"`` or the failed check(s)."""
        if self.feasible:
            return "ok"
        if self.failed_stage is not None:
            return f"failed:{self.failed_stage}"
        return violated_checks(self.timing_met, self.routable,
                               self.power_density_ok,
                               self.thermal_ok) or "infeasible"


@dataclass(frozen=True)
class SpecEvaluation:
    """The benefit summary of one evaluated design spec.

    Attributes:
        spec: The evaluated spec (so a result file is self-describing).
        n_cs_2d: CS count of the 2D baseline.
        n_cs_m3d: CS count of the M3D design.
        footprint: Common chip footprint, m^2.
        speedup: T_2D / T_3D on the spec's workload.
        energy_benefit: E_2D / E_3D.
        edp_benefit: Product of the two.
        physical: Physical-flow summary (``None`` unless the evaluation
            ran with ``physical=True``).
    """

    spec: DesignSpec
    n_cs_2d: int
    n_cs_m3d: int
    footprint: float
    speedup: float
    energy_benefit: float
    edp_benefit: float
    physical: PhysicalSummary | None = None

    @property
    def is_feasible(self) -> bool:
        """Physically feasible (vacuously True without a physical run)."""
        return self.physical is None or self.physical.feasible

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (used by the disk result cache)."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpecEvaluation":
        """Inverse of :meth:`to_dict`."""
        evaluation = from_jsonable(data)
        require(isinstance(evaluation, cls),
                f"expected a serialized {cls.__name__}")
        return evaluation


def physical_summary(tech: TechSpec, arch: ArchSpec, flow: FlowSpec,
                     pdk: PDK | None = None) -> PhysicalSummary:
    """Run one chip's 2D/M3D pair through the staged flow and condense
    the outcomes.

    The chip is ``(tech, arch, flow)`` on ``pdk`` (default: the shared
    foundry M3D PDK); the workload plays no part, so every network run
    on one chip shares one summary (and one engine cache entry).
    Single-design non-strict runs, so a stage error on either design
    becomes an infeasible summary instead of an exception.
    """
    from repro.physical.flow import run_staged_flow

    base_pdk = pdk if pdk is not None else foundry_m3d_pdk()
    chip_pdk, base_design, m3d_design = resolve_chips(tech, arch, base_pdk)
    m3d = run_staged_flow(m3d_design, chip_pdk, flow=flow)
    base = run_staged_flow(base_design, chip_pdk, flow=flow)
    fm, fb = m3d.feasibility, base.feasibility
    ratio = 0.0
    if m3d.power is not None and base.power is not None:
        ratio = (m3d.power.peak_power_density
                 / base.power.peak_power_density)
    return PhysicalSummary(
        feasible=m3d.feasible and base.feasible,
        failed_stage=fm.failed_stage if fm.failed_stage is not None
        else fb.failed_stage,
        timing_met=fm.timing_met and fb.timing_met,
        timing_slack=fm.timing_slack,
        achieved_frequency=(m3d.timing.achieved_frequency
                            if m3d.timing is not None else 0.0),
        routable=fm.routable and fb.routable,
        track_utilization=fm.track_utilization,
        ilv_utilization=fm.ilv_utilization,
        total_power=m3d.power.total if m3d.power is not None else 0.0,
        peak_power_density=fm.peak_power_density,
        power_density_ok=fm.power_density_ok and fb.power_density_ok,
        power_density_ratio=ratio,
        upper_tier_fraction=(m3d.power.upper_tier_fraction
                             if m3d.power is not None else 0.0),
        hotspot_rise_k=(m3d.thermal.hotspot_rise_k
                        if m3d.thermal is not None else 0.0),
        thermal_headroom_k=fm.thermal_headroom_k,
        thermal_ok=fm.thermal_ok and fb.thermal_ok,
        thermal_residual=max((outcome.thermal.residual
                              for outcome in (m3d, base)
                              if outcome.thermal is not None), default=0.0),
    )


def spec_benefit(spec: DesignSpec, pdk: PDK | None = None) -> BenefitReport:
    """Resolve one design spec and compare its 2D/M3D pair, layer by
    layer, at ``spec.workload.batch``.

    The entry for studies that need more than :func:`evaluate_spec`'s
    summary (per-layer reports, cycles, power); map it through the
    engine with :func:`spec_calls` to cache it like ``evaluate_spec``.
    """
    point = resolve(spec, pdk)
    batch = spec.workload.batch
    return compare_designs(
        simulate(point.baseline, point.network, point.pdk, batch=batch),
        simulate(point.m3d, point.network, point.pdk, batch=batch),
    )


def evaluate_spec(spec: DesignSpec, pdk: PDK | None = None,
                  physical: bool = False) -> SpecEvaluation:
    """One design spec's whole-network benefit summary.

    The six analytic fields are :func:`spec_benefit`'s, bit for bit, from
    the batch kernel's rows (:func:`repro.batch.kernel.analytic_fields`),
    memoized per ``(tech, arch, workload, pdk)`` in the ``spec.analytic``
    table, so points that differ only in flow knobs evaluate once.

    ``physical=True`` additionally attaches the chip's
    :func:`physical_summary` (knobs from ``spec.flow``); infeasible
    points return normally with ``physical.feasible == False``.
    """
    key = stable_key(spec.tech, spec.arch, spec.workload, pdk)
    fields = _ANALYTIC_MEMO.get(key)
    if fields is MISSING:
        # Imported here: the kernel imports this module.
        from repro.batch.kernel import analytic_fields

        try:
            fields = analytic_fields(spec, pdk)
        except Exception:
            pass
        if fields is MISSING:
            spec_benefit(spec, pdk)  # raises the scalar diagnostic
            fields = analytic_fields(spec, pdk)  # or re-raises
        _ANALYTIC_MEMO.put(key, fields)
    n_cs_2d, n_cs_m3d, footprint, speedup, energy, edp = fields
    return SpecEvaluation(
        spec=spec,
        n_cs_2d=n_cs_2d,
        n_cs_m3d=n_cs_m3d,
        footprint=footprint,
        speedup=speedup,
        energy_benefit=energy,
        edp_benefit=edp,
        physical=(physical_summary(spec.tech, spec.arch, spec.flow, pdk)
                  if physical else None),
    )


def spec_calls(specs: Iterable[DesignSpec],
               pdk: PDK | None = None) -> list[tuple]:
    """The engine ``(args, kwargs)`` calls of ``evaluate_spec`` over specs.

    These shapes are the cache-key contract: :func:`evaluate_specs` and
    the sweep executor both build their calls here, so a list of specs
    and a sweep share cache entries (as does ``/v1/eval``, which sends
    the same bare ``(spec,)`` shape).  The default PDK is left out of the
    arguments, which keeps each key a pure function of the spec's
    content.
    """
    if pdk is None:
        return [((spec,), {}) for spec in specs]
    return [((spec, pdk), {}) for spec in specs]


def submit_flows(engine: EvaluationEngine, specs: Sequence[DesignSpec],
                 pdk: PDK | None = None, jobs: int | None = None,
                 stage: str = "spec", on_error: str = "raise") -> MapHandle:
    """Submit the ``<stage>.physical`` stage of ``specs``: the
    :func:`physical_summary` of each point's chip, with ``jobs`` workers.

    The key omits the workload, so the engine's dedup, cache and
    in-flight sharing run each chip's flow once however many networks
    (or submissions) put points on it.
    """
    chips = [(spec.tech, spec.arch, spec.flow) for spec in specs]
    return engine.submit(
        physical_summary,
        chips if pdk is None else [(*chip, pdk) for chip in chips],
        stage=f"{stage}.physical", jobs=jobs, on_error=on_error)


def map_physical(engine: EvaluationEngine, specs: Sequence[DesignSpec],
                 pdk: PDK | None = None, jobs: int | None = None,
                 stage: str = "spec", on_error: str = "raise",
                 flows: MapHandle | None = None) -> list:
    """``evaluate_spec(spec, pdk, physical=True)`` over ``specs``, as two
    engine stages; one result (or, with ``on_error="record"``, one
    :class:`~repro.errors.EvaluationFailure`) per spec, in order.

    1. ``<stage>.physical`` — :func:`submit_flows`, unless ``flows``
       already holds that submission for these specs.  The flows run on
       the pool while this process does the rest.
    2. ``<stage>.evaluate`` — the analytic ``evaluate_spec`` calls of
       :func:`spec_calls`, in this process (a point's kernel rows cost
       less than a pool round trip), under the keys non-physical
       evaluations and ``/v1/eval`` use.  Then the flows are joined.
       A stage submitted before this call (``flows``) lists first in
       the engine's report.

    A point whose analytic stage failed records that failure; its chip's
    flow still ran (it was submitted first) and counts as evaluated in
    ``<stage>.physical``.  A failed chip summary is recorded for each
    point on that chip.
    """
    # Serial, so nothing runs before result(): submitting it first only
    # keeps the report's stage order (analytic, then physical).
    analytic = engine.submit(evaluate_spec, spec_calls(specs, pdk),
                             stage=f"{stage}.evaluate", jobs=1,
                             on_error=on_error)
    try:
        if flows is None:
            flows = submit_flows(engine, specs, pdk, jobs, stage, on_error)
        results = analytic.result()
    except BaseException:
        analytic.cancel()
        if flows is not None:
            flows.cancel()
        raise
    for slot, summary in enumerate(flows.result()):
        value = results[slot]
        if not isinstance(value, EvaluationFailure):
            results[slot] = summary \
                if isinstance(summary, EvaluationFailure) \
                else replace(value, physical=summary)
    return results


def evaluate_specs(
    specs: Iterable[DesignSpec],
    pdk: PDK | None = None,
    engine: EvaluationEngine | None = None,
    jobs: int | None = None,
    batch: bool = False,
    physical: bool = False,
) -> tuple[SpecEvaluation, ...]:
    """Evaluate many specs as one engine batch.

    With the default PDK each call's cache key is a pure function of the
    spec's content, so results persisted with ``--cache-dir`` are served
    across process restarts; duplicate specs deduplicate within the
    batch.  ``jobs`` overrides the engine's worker count for this batch
    only.  A grid is evaluated through
    :func:`repro.sweep.stream.run_streaming_sweep` instead; this is the
    entry for an explicit list of specs.

    ``batch=True`` evaluates cache-missing specs as one in-process call
    of the batch kernel (:class:`repro.batch.kernel.BatchKernel`)
    instead of one engine task per spec — same cache keys, same
    counters, the same bits.  Specs the kernel cannot express go through
    ``evaluate_spec`` one by one.

    ``physical=True`` attaches each point's chip summary (see
    :func:`evaluate_spec`), evaluated through :func:`map_physical` as the
    ``spec.evaluate`` and ``spec.physical`` stages.  The flow has no
    vectorized form, so ``batch`` is ignored for physical evaluations.
    """
    engine = engine if engine is not None else default_engine()
    if physical:
        return tuple(map_physical(engine, list(specs), pdk, jobs=jobs))
    batch_fn = None
    if batch:
        from repro.batch.kernel import BatchKernel

        batch_fn = BatchKernel(pdk).evaluate_calls
    return tuple(engine.map(evaluate_spec, spec_calls(specs, pdk),
                            stage="spec.evaluate", jobs=jobs,
                            batch_fn=batch_fn))


def format_spec_evaluations(
    evaluations: Sequence[SpecEvaluation],
    title: str = "Spec evaluation",
) -> str:
    """Render evaluations as the CLI's table (one row per spec)."""
    from repro.experiments.reporting import format_table, times

    physical = any(evaluation.physical is not None
                   for evaluation in evaluations)
    rows = []
    for evaluation in evaluations:
        spec = evaluation.spec
        workload = spec.workload.network
        if spec.workload.layer is not None:
            workload += f" [{spec.workload.layer}]"
        if spec.workload.batch != 1:
            workload += f" x{spec.workload.batch}"
        row = [
            workload,
            f"{spec.arch.capacity_bits / MEGABYTE:.0f} MB",
            f"{spec.tech.delta:g}",
            f"{spec.tech.beta:g}",
            spec.arch.tier_pairs,
            evaluation.n_cs_2d,
            evaluation.n_cs_m3d,
            times(evaluation.speedup),
            times(evaluation.energy_benefit),
            times(evaluation.edp_benefit),
        ]
        if physical:
            summary = evaluation.physical
            if summary is None:
                row += ["-", "-"]
            else:
                fmax = f"{summary.achieved_frequency / 1e6:.0f} MHz" \
                    if summary.achieved_frequency > 0 else "-"
                row += [fmax, summary.verdict]
        rows.append(row)
    headers = ["workload", "capacity", "delta", "beta", "Y", "2D CSs",
               "M3D CSs", "speedup", "energy", "EDP benefit"]
    if physical:
        headers += ["fmax", "physical"]
    return format_table(title, headers, rows)
