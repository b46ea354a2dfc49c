"""Declarative design-point construction (the Scenario/Spec layer).

* :mod:`repro.spec.design` — :class:`DesignSpec`: frozen, validated,
  plain-JSON-round-trippable description of one design point (tech
  overrides, arch knobs, workload selection).
* :mod:`repro.spec.sweep` — :class:`SweepSpec`: grid / zip / explicit-
  point axes over a base spec.
* :mod:`repro.spec.resolve` — the single resolver pipeline
  ``resolve(spec) -> ResolvedPoint(pdk, baseline, m3d, network)`` that
  every sweep and experiment constructs designs through.
* :mod:`repro.spec.evaluate` — spec-driven simulation with
  restart-surviving, content-addressed cache keys.
"""

from repro.spec.design import (
    ArchSpec,
    DesignSpec,
    FlowSpec,
    TechSpec,
    WorkloadSpec,
    field_paths,
    load_design_spec,
)
from repro.spec.sweep import SweepSpec, load_sweep_spec
from repro.spec.resolve import ResolvedPoint, build_workload, resolve, scaled_pdk
from repro.spec.evaluate import (
    PhysicalSummary,
    SpecEvaluation,
    evaluate_spec,
    evaluate_specs,
    format_spec_evaluations,
    spec_benefit,
)

__all__ = [
    "ArchSpec",
    "DesignSpec",
    "FlowSpec",
    "PhysicalSummary",
    "ResolvedPoint",
    "SpecEvaluation",
    "SweepSpec",
    "TechSpec",
    "WorkloadSpec",
    "build_workload",
    "evaluate_spec",
    "evaluate_specs",
    "field_paths",
    "format_spec_evaluations",
    "load_design_spec",
    "load_sweep_spec",
    "resolve",
    "scaled_pdk",
    "spec_benefit",
]
