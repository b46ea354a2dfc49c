"""Extension: joint design-space exploration with Pareto extraction.

Runs the full-factorial (capacity, delta, beta, Y) grid — the sweep the
paper's Sections III-D/E/F take one axis at a time — and reports the
Pareto frontier over (footprint, EDP benefit).  The grid
(:func:`repro.core.dse.joint_grid_sweep`) executes on the one sweep path,
:func:`repro.sweep.stream.run_streaming_sweep`: chunked dispatch through
the engine's ``sweep.evaluate`` stage, content-hash caching per spec,
layer-shape memoization across points, and re-runs served from the
result cache outright (see ``repro dse --profile``).
"""

from __future__ import annotations

from repro.core.dse import joint_grid_sweep
from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.spec.evaluate import SpecEvaluation
from repro.sweep.pareto import ParetoFrontier
from repro.sweep.stream import run_streaming_sweep
from repro.units import MEGABYTE, to_mm2


def format_dse(evaluations: tuple[SpecEvaluation, ...]) -> str:
    """Render the grid with its Pareto-frontier members marked."""
    frontier = ParetoFrontier()
    frontier.update((e.footprint, e.edp_benefit, index)
                    for index, e in enumerate(evaluations))
    members = set(frontier.items())
    rows = [
        [f"{e.spec.arch.capacity_bits / MEGABYTE:.0f} MB", e.spec.tech.delta,
         e.spec.tech.beta, e.spec.arch.tier_pairs, e.n_cs_m3d, e.n_cs_2d,
         f"{to_mm2(e.footprint):.1f}", times(e.speedup),
         times(e.edp_benefit), "*" if index in members else ""]
        for index, e in enumerate(evaluations)
    ]
    return format_table(
        "Extension — joint (capacity, delta, beta, Y) design space, "
        "ResNet-18 ('*' = Pareto-optimal in footprint vs EDP benefit)",
        ["capacity", "delta", "beta", "Y", "N", "N_2D", "footprint mm^2",
         "speedup", "EDP benefit", "pareto"],
        rows,
    )


@experiment("dse",
            "Extension: joint (capacity, delta, beta, Y) design space "
            "with Pareto frontier",
            formatter=format_dse)
def dse_experiment(ctx: ExperimentContext) -> tuple[SpecEvaluation, ...]:
    """Run the joint design-space grid (36 points) on the spec's workload."""
    result = run_streaming_sweep(
        joint_grid_sweep(workload=ctx.design_spec().workload),
        pdk=ctx.pdk, engine=ctx.engine, jobs=ctx.jobs)
    return result.evaluations
