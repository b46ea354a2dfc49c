"""Fig. 9 / Obs. 6: M3D benefit vs baseline RRAM capacity.

The DNN (ResNet-18, ~12 M parameters) is held fixed while the baseline
on-chip RRAM scales 12 MB -> 128 MB.  Bigger baselines free more silicon
under the arrays, admitting more parallel CSs and larger benefits — the
paper reports 1x at 12 MB rising to 6.8x at 128 MB.
"""

from __future__ import annotations

from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.spec.evaluate import SpecEvaluation, evaluate_specs
from repro.units import MEGABYTE

#: Baseline RRAM capacities of the sweep, MB.  The workload must fit at
#: the smallest (ResNet-18's ~12 M parameters at 12 MB).
CAPACITIES_MB = (12, 16, 24, 32, 48, 64, 96, 128)


def format_fig9(points: tuple[SpecEvaluation, ...]) -> str:
    """Render the Fig. 9 series."""
    rows = [
        [f"{p.spec.arch.capacity_bits / MEGABYTE:.0f} MB", p.n_cs_m3d,
         times(p.speedup), times(p.edp_benefit)]
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
def fig9_experiment(ctx: ExperimentContext) -> tuple[SpecEvaluation, ...]:
    """The context spec at each capacity of :data:`CAPACITIES_MB`."""
    specs = [ctx.design_spec({"arch.capacity_bits": mb * MEGABYTE})
             for mb in CAPACITIES_MB]
    return evaluate_specs(specs, pdk=ctx.pdk, engine=ctx.engine,
                          jobs=ctx.jobs)
