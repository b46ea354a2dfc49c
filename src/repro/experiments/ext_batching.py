"""Extension study: token batching on a transformer encoder.

A weight-stationary systolic array is brutal to batch-1 transformer
inference: every 16x16 weight slab is loaded for a *single* useful
streaming cycle, so the array spends ~97% of its time in pipeline
fill/drain.  Batching tokens amortizes the slab setup, raising absolute
utilization by more than an order of magnitude.

The M3D result the study establishes: the iso-footprint benefit is
*robust across the whole regime* — the speedup stays ~N from batch 1
(setup-bound) to batch 256 (compute-bound) because both designs pay the
same per-slab overheads and the partitioning along output channels is
oblivious to the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, percent, times
from repro.spec.evaluate import spec_benefit, spec_calls


@dataclass(frozen=True)
class BatchingRow:
    """Result at one token-batch size.

    Attributes:
        batch: Tokens processed per weight-slab pass.
        cycles_per_token_2d: 2D latency per token, cycles.
        cycles_per_token_m3d: M3D latency per token, cycles.
        utilization_2d: Fraction of 2D peak MACs actually used.
        speedup / energy_benefit / edp_benefit: M3D vs 2D benefits.
    """

    batch: int
    cycles_per_token_2d: float
    cycles_per_token_m3d: float
    utilization_2d: float
    speedup: float
    energy_benefit: float
    edp_benefit: float


@experiment("ext-batching", "Extension: transformer token batching",
            formatter=lambda rows: format_batching(rows))
def batching_experiment(
    ctx: ExperimentContext,
    batches: tuple[int, ...] = (1, 4, 16, 64, 256),
    capacity_bits: int | None = None,
) -> tuple[BatchingRow, ...]:
    """Sweep the token batch for an encoder workload on the case-study pair.

    Each batch is the context spec with that ``workload.batch``.  The
    workload defaults to the tiny transformer encoder (batching is a
    transformer story); a context ``--spec`` names its own workload.
    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    base = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    if ctx.spec is None:
        base["workload.network"] = "tiny_encoder"
    specs = [ctx.design_spec({**base, "workload.batch": batch})
             for batch in batches]
    benefits = ctx.engine.map(spec_benefit, spec_calls(specs, ctx.pdk),
                              stage="ext_batching.benefit", jobs=ctx.jobs)
    rows = []
    for batch, benefit in zip(batches, benefits):
        base_report, m3d_report = benefit.baseline, benefit.m3d
        peak = base_report.design.cs.array.peak_macs_per_cycle
        rows.append(BatchingRow(
            batch=batch,
            cycles_per_token_2d=base_report.cycles / batch,
            cycles_per_token_m3d=m3d_report.cycles / batch,
            utilization_2d=(base_report.network.total_macs * batch
                            / (base_report.cycles * peak)),
            speedup=benefit.speedup,
            energy_benefit=benefit.energy_benefit,
            edp_benefit=benefit.edp_benefit,
        ))
    return tuple(rows)


def format_batching(rows: tuple[BatchingRow, ...]) -> str:
    """Render the batching study."""
    table_rows = [
        [row.batch,
         f"{row.cycles_per_token_2d:,.0f}",
         f"{row.cycles_per_token_m3d:,.0f}",
         percent(row.utilization_2d),
         times(row.speedup), times(row.edp_benefit)]
        for row in rows
    ]
    return format_table(
        "Extension — token batching on a transformer encoder (64 MB, "
        "tiny encoder): utilization climbs, the M3D benefit holds at ~N",
        ["batch", "2D cyc/token", "M3D cyc/token", "2D util", "speedup",
         "EDP benefit"],
        table_rows,
    )
