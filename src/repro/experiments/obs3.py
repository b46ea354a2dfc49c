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
from repro.perf.compare import compare_designs
from repro.perf.simulator import simulate
from repro.spec.resolve import resolve
from repro.workloads.models import Network


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
    network: Network | None = None,
    capacity_bits: int | None = None,
) -> tuple[Obs3Row, ...]:
    """Sweep the baseline memory density ratio (1.0 = RRAM baseline).

    The shared-baseline simulation and every per-ratio M3D simulation run
    as one engine batch (the repeated baseline deduplicates).
    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    changes = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    spec = ctx.design_spec(changes)
    point = resolve(spec, ctx.pdk)
    pdk = point.pdk
    network = network if network is not None else point.network
    baseline = point.baseline
    cs_area = baseline.area.cs_unit
    perif = peripheral_area(pdk)
    counts: list[int] = []
    specs = [(baseline, network, pdk)]
    for ratio in density_ratios:
        n_cs = derive_parallel_cs_count(baseline.area.cells * ratio, perif,
                                        cs_area)
        counts.append(n_cs)
        m3d = resolve(spec.updated({"arch.n_cs": n_cs}), ctx.pdk).m3d
        specs.append((m3d, network, pdk))
    reports = ctx.engine.map(simulate, specs, stage="obs3.simulate",
                             jobs=ctx.jobs)
    base_report = reports[0]
    rows: list[Obs3Row] = []
    for ratio, n_cs, m3d_report in zip(density_ratios, counts, reports[1:]):
        benefit = compare_designs(base_report, m3d_report)
        rows.append(Obs3Row(
            density_ratio=ratio,
            n_cs=n_cs,
            speedup=benefit.speedup,
            edp_benefit=benefit.edp_benefit,
        ))
    return tuple(rows)
