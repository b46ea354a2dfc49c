"""Fig. 5: whole-model benefits for AlexNet / VGG / ResNet inference.

The paper reports 5.7x-7.5x speedup at ~0.99x energy (hence 5.7x-7.5x EDP)
for the iso-footprint, iso-capacity M3D accelerator across AI/ML models.
VGG-16's 138 M-parameter classifier head cannot be stored in the 64 MB
on-chip RRAM at 8-bit precision, so the compact-classifier variant
(``vgg16c``) stands in — see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.spec.evaluate import evaluate_specs

#: The Fig. 5 model set (vgg16c substitutes VGG-16; see module docstring).
FIG5_NETWORKS: tuple[str, ...] = (
    "alexnet", "vgg16c", "resnet18", "resnet34", "resnet50", "resnet152",
)


@dataclass(frozen=True)
class Fig5Row:
    """One Fig. 5 bar group.

    Attributes:
        network: Model name.
        speedup: T_2D / T_3D.
        energy_benefit: E_2D / E_3D.
        edp_benefit: Product of the two.
    """

    network: str
    speedup: float
    energy_benefit: float
    edp_benefit: float


def format_fig5(rows: tuple[Fig5Row, ...]) -> str:
    """Render the Fig. 5 series."""
    table_rows = [
        [row.network, times(row.speedup), times(row.energy_benefit),
         times(row.edp_benefit)]
        for row in rows
    ]
    spread = (min(r.edp_benefit for r in rows), max(r.edp_benefit for r in rows))
    table = format_table(
        "Fig. 5 — iso-footprint, iso-capacity M3D benefits per model "
        "(paper: 5.7x-7.5x EDP at ~0.99x energy)",
        ["model", "speedup", "energy", "EDP benefit"],
        table_rows,
    )
    return table + f"\nEDP benefit range: {times(spread[0])} - {times(spread[1])}"


@experiment("fig5", "Fig. 5: whole-model benefits", formatter=format_fig5)
def fig5_experiment(
    ctx: ExperimentContext,
    networks: tuple[str, ...] = FIG5_NETWORKS,
    capacity_bits: int | None = None,
) -> tuple[Fig5Row, ...]:
    """The context spec with each Fig. 5 model as its workload.

    All len(networks) points run as one engine batch, so repeats hit the
    cache and ``jobs`` >= 2 spreads models across workers.
    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    base = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    # Fig. 5 compares whole models, so a context layer is not kept.
    specs = [ctx.design_spec({**base, "workload.network": name,
                              "workload.layer": None})
             for name in networks]
    evaluations = evaluate_specs(specs, pdk=ctx.pdk, engine=ctx.engine,
                                 jobs=ctx.jobs)
    return tuple(
        Fig5Row(network=name, speedup=evaluation.speedup,
                energy_benefit=evaluation.energy_benefit,
                edp_benefit=evaluation.edp_benefit)
        for name, evaluation in zip(networks, evaluations))
