"""Extension study: operand precision vs capacity and benefit.

The case study stores 8-bit weights.  Precision couples into the M3D story
twice: lower precision (a) shrinks the weight footprint, letting larger
models meet the iso-capacity constraint (or the same model fit a smaller,
cheaper memory), and (b) reduces per-MAC energy quadratically.  This study
sweeps 4/8/16-bit designs at 64 MB, reporting which Fig. 5 models fit and
the ResNet-18 benefit at each precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.spec.evaluate import SpecEvaluation, evaluate_specs
from repro.workloads.models import available_networks, build_network


@dataclass(frozen=True)
class PrecisionRow:
    """Result for one operand precision.

    Attributes:
        evaluation: The design point at this precision (``arch.cs =
            "precision-scaled"``; the CS count is unchanged, the area
            model being capacity-driven).
        models_fitting: Fig. 5-family models whose weights fit the
            point's capacity at this precision.
    """

    evaluation: SpecEvaluation
    models_fitting: tuple[str, ...]


@experiment("ext-precision", "Extension: operand precision sweep",
            formatter=lambda rows: format_precision(rows))
def precision_experiment(
    ctx: ExperimentContext,
    precisions: tuple[int, ...] = (4, 8, 16),
    capacity_bits: int | None = None,
) -> tuple[PrecisionRow, ...]:
    """Sweep operand precision at the context spec's capacity.

    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    base = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    specs = [ctx.design_spec({**base, "arch.cs": "precision-scaled",
                              "arch.precision_bits": bits})
             for bits in precisions]
    evaluations = evaluate_specs(specs, pdk=ctx.pdk, engine=ctx.engine,
                                 jobs=ctx.jobs)
    return tuple(
        PrecisionRow(evaluation=evaluation, models_fitting=tuple(
            name for name in available_networks()
            if build_network(name).weight_bits(bits)
            <= evaluation.spec.arch.capacity_bits))
        for bits, evaluation in zip(precisions, evaluations))


def format_precision(rows: tuple[PrecisionRow, ...]) -> str:
    """Render the precision study."""
    table_rows = [
        [f"{row.evaluation.spec.arch.precision_bits}-bit",
         row.evaluation.n_cs_m3d, len(row.models_fitting),
         times(row.evaluation.speedup), times(row.evaluation.edp_benefit)]
        for row in rows
    ]
    return format_table(
        "Extension — operand precision at 64 MB (ResNet-18 benefits; "
        "'models' counts Fig. 5-family networks whose weights fit)",
        ["precision", "M3D CSs", "models fitting", "speedup", "EDP benefit"],
        table_rows,
    )
