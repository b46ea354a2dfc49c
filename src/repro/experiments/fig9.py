"""Fig. 9 / Obs. 6: M3D benefit vs baseline RRAM capacity.

The DNN (ResNet-18, ~12 M parameters) is held fixed while the baseline
on-chip RRAM scales 12 MB -> 128 MB.  Bigger baselines free more silicon
under the arrays, admitting more parallel CSs and larger benefits — the
paper reports 1x at 12 MB rising to 6.8x at 128 MB.
"""

from __future__ import annotations

from repro.core.insights import CapacityPoint, sweep_rram_capacity
from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.spec.resolve import build_workload


def format_fig9(points: tuple[CapacityPoint, ...]) -> str:
    """Render the Fig. 9 series."""
    rows = [
        [f"{p.capacity_megabytes:.0f} MB", p.n_cs, times(p.speedup),
         times(p.edp_benefit)]
        for p in points
    ]
    table = format_table(
        "Fig. 9 — RRAM capacity vs M3D benefit, ResNet-18 fixed "
        "(paper: 1x @ 12 MB -> 6.8x @ 128 MB)",
        ["baseline RRAM", "M3D CSs", "speedup", "EDP benefit"],
        rows,
    )
    return table


@experiment("fig9", "Fig. 9 / Obs. 6: RRAM capacity sweep",
            formatter=format_fig9)
def fig9_experiment(ctx: ExperimentContext) -> tuple[CapacityPoint, ...]:
    """Run the capacity sweep (12-128 MB) on the spec's workload."""
    network = build_workload(ctx.design_spec().workload)
    return sweep_rram_capacity(pdk=ctx.pdk, network=network,
                               engine=ctx.engine, jobs=ctx.jobs)


