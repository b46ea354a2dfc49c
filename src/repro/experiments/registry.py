"""Decorator-based experiment registry behind the CLI and the report.

Every experiment module registers its driver once, at import time::

    @experiment("fig9", "Fig. 9 / Obs. 6: RRAM capacity sweep",
                formatter=format_fig9)
    def fig9_experiment(ctx: ExperimentContext) -> tuple[SpecEvaluation, ...]:
        specs = [ctx.design_spec({"arch.capacity_bits": mb * MEGABYTE})
                 for mb in CAPACITIES_MB]
        return evaluate_specs(specs, pdk=ctx.pdk, engine=ctx.engine,
                              jobs=ctx.jobs)

The registered function is the *uniform* entry point: it takes an
:class:`ExperimentContext` carrying the shared PDK, evaluation engine,
worker count, and (optionally) the active tracer, plus whatever
experiment-specific knobs the module defines as keyword defaults.  The
CLI, the benchmarks, the examples and the tests all run experiments
through :func:`run_experiment`.  The per-module ``run_<name>(pdk, ...)``
shims that predated the registry were removed in v2.0 (DESIGN.md
Sec. 12).

Importing :mod:`repro.experiments` populates the registry — the package
``__init__`` imports every experiment module, so registration order (and
hence CLI listing order) is the package's import order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.obs.trace import Tracer, current_tracer, span as _span
from repro.runtime.engine import EvaluationEngine, default_engine
from repro.spec.design import DesignSpec
from repro.tech.pdk import PDK, foundry_m3d_pdk

__all__ = [
    "Experiment",
    "ExperimentContext",
    "all_experiments",
    "experiment",
    "experiment_names",
    "get_experiment",
    "registry_markdown",
    "run_experiment",
]


@dataclass
class ExperimentContext:
    """Everything an experiment needs beyond its own knobs.

    Attributes:
        pdk: The process-design kit every design derives from.  The CLI
            builds **one** context per invocation, so every experiment of
            a run shares one PDK object (and with it the identity-keyed
            tech x CS stages, see :func:`repro.spec.resolve.design_stage`).
        engine: The evaluation engine sweeps route through.
        jobs: Worker-count override threaded into ``engine.map`` calls
            (``None`` = the engine's own count).
        tracer: The active tracer, if observability is on (experiments
            rarely need it directly — instrumented layers resolve it
            context-locally — but it is part of the uniform interface).
        spec: Base :class:`~repro.spec.design.DesignSpec` the run derives
            design points from (``None`` = the default spec).  Set by the
            CLI's ``--spec`` flag; experiments read it through
            :meth:`design_spec` so one spec file retargets every
            experiment of a run.
    """

    pdk: PDK
    engine: EvaluationEngine
    jobs: int | None = None
    tracer: Tracer | None = None
    spec: DesignSpec | None = None

    @classmethod
    def create(cls, pdk: PDK | None = None,
               engine: EvaluationEngine | None = None,
               jobs: int | None = None,
               tracer: Tracer | None = None,
               spec: DesignSpec | None = None) -> "ExperimentContext":
        """A context with defaults filled in.

        ``pdk`` defaults to :func:`repro.tech.pdk.foundry_m3d_pdk`,
        ``engine`` to the process-wide default engine, and ``tracer`` to
        the context-locally active one.
        """
        return cls(
            pdk=pdk if pdk is not None else foundry_m3d_pdk(),
            engine=engine if engine is not None else default_engine(),
            jobs=jobs,
            tracer=tracer if tracer is not None else current_tracer(),
            spec=spec,
        )

    def design_spec(self, changes: Mapping[str, Any] | None = None) -> DesignSpec:
        """The run's base spec, optionally with dotted-path overrides.

        Experiments call this instead of hard-coding their design-point
        knobs: ``ctx.design_spec({"tech.delta": 1.6})`` layers the
        experiment's own knob over whatever base the user supplied via
        ``--spec`` (or the defaults).
        """
        base = self.spec if self.spec is not None else DesignSpec()
        if not changes:
            return base
        return base.updated(changes)


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    Attributes:
        name: CLI name (e.g. ``fig9``, ``ext-batching``).
        summary: One-line description shown by ``repro list``.
        run: The uniform driver, ``run(ctx, **knobs) -> Result``.
        formatter: Renders the driver's result as the paper's table.
        module: Defining module (``__module__`` of the driver).
    """

    name: str
    summary: str
    run: Callable[..., Any]
    formatter: Callable[[Any], str]
    module: str

    def run_formatted(self, ctx: ExperimentContext | None = None,
                      **knobs: Any) -> str:
        """Run and render in one step (what the CLI prints)."""
        return self.formatter(run_experiment(self.name, ctx, **knobs))


_REGISTRY: dict[str, Experiment] = {}


def experiment(name: str, summary: str,
               formatter: Callable[[Any], str]) -> Callable:
    """Register the decorated ``run(ctx, **knobs)`` driver under ``name``.

    Registration happens at module import; a duplicate name is a
    programming error and raises immediately.  The decorated function is
    returned unchanged, so modules can still call it directly.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY:
            raise ValueError(
                f"experiment {name!r} already registered by "
                f"{_REGISTRY[name].module}")
        _REGISTRY[name] = Experiment(
            name=name, summary=summary, run=fn, formatter=formatter,
            module=fn.__module__)
        return fn

    return decorate


def get_experiment(name: str) -> Experiment:
    """The experiment registered under ``name`` (KeyError if absent)."""
    return _REGISTRY[name]


def all_experiments() -> tuple[Experiment, ...]:
    """Every registered experiment, in registration order."""
    return tuple(_REGISTRY.values())


def experiment_names() -> tuple[str, ...]:
    """Registered names, in registration order."""
    return tuple(_REGISTRY)


def run_experiment(name: str, ctx: ExperimentContext | None = None,
                   **knobs: Any) -> Any:
    """Run the registered experiment ``name`` and return its result.

    Builds a default context when none is given, and wraps the run in an
    ``experiment.<name>`` span so traces attribute time per artifact.
    """
    exp = get_experiment(name)
    if ctx is None:
        ctx = ExperimentContext.create()
    with _span(f"experiment.{name}"):
        return exp.run(ctx, **knobs)


def registry_markdown() -> str:
    """The registry as a GitHub-markdown table (``repro list --markdown``).

    README.md's "Experiments" table is generated from this, so docs can
    never drift from the code.
    """
    lines = [
        "| experiment | summary | module |",
        "|---|---|---|",
    ]
    for exp in _REGISTRY.values():
        lines.append(f"| `{exp.name}` | {exp.summary} | "
                     f"`{exp.module.removeprefix('repro.experiments.')}` |")
    return "\n".join(lines)
