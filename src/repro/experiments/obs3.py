"""Obs. 3: a non-BEOL-compatible (SRAM) 2D baseline is even worse for 2D.

If the 2D baseline used a Si-CMOS SRAM that is ~2x less dense than RRAM,
its memory area — and hence the silicon an M3D design frees — doubles.
The paper reports the M3D design then fits 16 CSs instead of 8, raising
the ResNet-18 EDP benefit from 5.7x to 6.8x; RRAM-based baselines therefore
make the reported M3D benefits conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import derive_parallel_cs_count, peripheral_area
from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.spec.evaluate import evaluate_specs
from repro.spec.resolve import resolve


@dataclass(frozen=True)
class Obs3Row:
    """One density-ratio point.

    Attributes:
        density_ratio: Baseline memory bit-cell area relative to RRAM's
            (2.0 = the paper's "2x less dense SRAM").
        n_cs: M3D CSs the doubled freed area admits.
        speedup: ResNet-18 speedup at that CS count.
        edp_benefit: ResNet-18 EDP benefit at that CS count.
    """

    density_ratio: float
    n_cs: int
    speedup: float
    edp_benefit: float


def format_obs3(rows: tuple[Obs3Row, ...]) -> str:
    """Render the Obs. 3 comparison."""
    table_rows = [
        [f"{row.density_ratio:.1f}x", row.n_cs, times(row.speedup),
         times(row.edp_benefit)]
        for row in rows
    ]
    return format_table(
        "Obs. 3 — less dense (SRAM-like) 2D baselines enable more M3D CSs "
        "(paper: 2x less dense -> 16 CSs -> 6.8x)",
        ["baseline cell area", "M3D CSs", "speedup", "EDP benefit"],
        table_rows,
    )


@experiment("obs3", "Obs. 3: SRAM-class 2D baseline", formatter=format_obs3)
def obs3_experiment(
    ctx: ExperimentContext,
    density_ratios: tuple[float, ...] = (1.0, 1.5, 2.0),
    capacity_bits: int | None = None,
) -> tuple[Obs3Row, ...]:
    """Sweep the baseline memory density ratio (1.0 = RRAM baseline).

    Each ratio is the context spec at the M3D CS count the scaled freed
    area admits; the points run as one engine batch.
    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    changes = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    spec = ctx.design_spec(changes)
    point = resolve(spec, ctx.pdk)
    baseline = point.baseline
    perif = peripheral_area(point.pdk)
    counts = [derive_parallel_cs_count(baseline.area.cells * ratio, perif,
                                       baseline.area.cs_unit)
              for ratio in density_ratios]
    evaluations = evaluate_specs(
        [spec.updated({"arch.n_cs": n_cs}) for n_cs in counts],
        pdk=ctx.pdk, engine=ctx.engine, jobs=ctx.jobs)
    return tuple(
        Obs3Row(density_ratio=ratio, n_cs=n_cs,
                speedup=evaluation.speedup,
                edp_benefit=evaluation.edp_benefit)
        for ratio, n_cs, evaluation in zip(density_ratios, counts,
                                           evaluations))
