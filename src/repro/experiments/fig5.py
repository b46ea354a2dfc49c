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
from repro.perf.compare import compare_designs
from repro.perf.simulator import simulate
from repro.spec.resolve import resolve
from repro.workloads.models import build_network

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
    """Simulate every Fig. 5 model on the 2D/M3D design pair.

    All 2 * len(networks) simulations run as one engine batch, so repeats
    hit the cache and ``jobs`` >= 2 spreads models across workers.
    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    changes = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    point = resolve(ctx.design_spec(changes), ctx.pdk)
    built = [build_network(name) for name in networks]
    specs = []
    for network in built:
        specs.append((point.baseline, network, point.pdk))
        specs.append((point.m3d, network, point.pdk))
    reports = ctx.engine.map(simulate, specs, stage="fig5.simulate",
                             jobs=ctx.jobs)
    rows: list[Fig5Row] = []
    for i, name in enumerate(networks):
        benefit = compare_designs(reports[2 * i], reports[2 * i + 1])
        rows.append(Fig5Row(
            network=name,
            speedup=benefit.speedup,
            energy_benefit=benefit.energy_benefit,
            edp_benefit=benefit.edp_benefit,
        ))
    return tuple(rows)
