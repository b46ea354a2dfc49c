"""Table I: per-layer ResNet-18 benefits.

Reproduces the paper's layer-by-layer rows (speedup, energy, EDP benefit)
including the merged ``CONV1+POOL`` row and the conv-layer total, which the
paper reports as 5.64x / 0.99x / 5.66x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.spec.evaluate import spec_benefit, spec_calls
from repro.workloads.layers import LayerKind

#: Paper Table I values (speedup, energy, EDP) for cross-reference.
PAPER_TABLE1: dict[str, tuple[float, float, float]] = {
    "CONV1+POOL": (3.14, 1.00, 2.93),
    "L1.0 CONV1": (3.72, 1.00, 3.73),
    "L1.0 CONV2": (3.72, 0.99, 3.73),
    "L1.1 CONV1": (3.72, 0.99, 3.73),
    "L1.1 CONV2": (3.72, 0.99, 3.73),
    "L2.0 DS": (2.57, 1.00, 2.57),
    "L2.0 CONV1": (6.00, 0.99, 7.37),
    "L2.0 CONV2": (7.36, 0.99, 7.37),
    "L2.1 CONV1": (7.36, 0.99, 7.37),
    "L2.1 CONV2": (7.36, 0.99, 7.37),
    "L3.0 DS": (2.52, 1.00, 2.51),
    "L3.0 CONV1": (6.84, 0.99, 6.85),
    "L3.0 CONV2": (7.67, 0.99, 7.68),
    "L3.1 CONV1": (7.67, 0.99, 7.68),
    "L3.1 CONV2": (7.67, 0.99, 7.68),
    "L4.0 DS": (3.50, 1.00, 3.50),
    "L4.0 CONV1": (7.37, 0.99, 7.40),
    "L4.0 CONV2": (7.83, 0.99, 7.85),
    "L4.1 CONV1": (7.83, 0.99, 7.85),
    "L4.1 CONV2": (7.83, 0.99, 7.85),
    "Total": (5.64, 0.99, 5.66),
}


#: The layers the paper merges into its first row.
STEM_LAYERS = ("CONV1", "POOL")


@dataclass(frozen=True)
class Table1Row:
    """One Table I row.

    Attributes:
        name: Layer name (paper naming).
        speedup: T_2D / T_3D.
        energy_benefit: E_2D / E_3D.
        edp_benefit: Product.
        paper_speedup: The paper's reported speedup, for comparison.
    """

    name: str
    speedup: float
    energy_benefit: float
    edp_benefit: float
    paper_speedup: float | None


@experiment("table1", "Table I: per-layer ResNet-18 benefits",
            formatter=lambda rows: format_table1(rows))
def table1_experiment(
    ctx: ExperimentContext,
    capacity_bits: int | None = None,
) -> tuple[Table1Row, ...]:
    """Produce every Table I row, including the merged stem and the total.

    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    changes = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    spec = ctx.design_spec(changes)
    benefit, = ctx.engine.map(
        spec_benefit, spec_calls([spec], ctx.pdk),
        stage="table1.benefit", jobs=ctx.jobs)
    base_report, m3d_report = benefit.baseline, benefit.m3d
    names = {layer.baseline.layer.name for layer in benefit.layers}
    missing = [name for name in STEM_LAYERS if name not in names]
    if missing:
        raise ConfigurationError(
            f"Table I merges the {'+'.join(STEM_LAYERS)} stem into one "
            f"row, but network {spec.workload.network!r} has no "
            f"{' or '.join(map(repr, missing))} layer")

    rows: list[Table1Row] = []

    def add(name: str, t2: float, t3: float, e2: float, e3: float) -> None:
        speedup = t2 / t3
        energy = e2 / e3
        paper = PAPER_TABLE1.get(name)
        rows.append(Table1Row(
            name=name, speedup=speedup, energy_benefit=energy,
            edp_benefit=speedup * energy,
            paper_speedup=paper[0] if paper else None))

    # Merged CONV1+POOL row, then each conv layer, as the paper lists them.
    stem_2d = [base_report.layer_result(n) for n in STEM_LAYERS]
    stem_3d = [m3d_report.layer_result(n) for n in STEM_LAYERS]
    add("CONV1+POOL",
        sum(r.cycles for r in stem_2d), sum(r.cycles for r in stem_3d),
        sum(r.energy for r in stem_2d), sum(r.energy for r in stem_3d))
    for layer_benefit in benefit.layers:
        layer = layer_benefit.baseline.layer
        if layer.name in STEM_LAYERS or layer.kind == LayerKind.FC:
            continue
        add(layer.name,
            layer_benefit.baseline.cycles, layer_benefit.m3d.cycles,
            layer_benefit.baseline.energy, layer_benefit.m3d.energy)

    # Total over the Table I rows (conv + stem, excluding the FC head).
    conv_pool = [b for b in benefit.layers
                 if b.baseline.layer.kind != LayerKind.FC]
    add("Total",
        sum(b.baseline.cycles for b in conv_pool),
        sum(b.m3d.cycles for b in conv_pool),
        sum(b.baseline.energy for b in conv_pool),
        sum(b.m3d.energy for b in conv_pool))
    return tuple(rows)


def format_table1(rows: tuple[Table1Row, ...]) -> str:
    """Render Table I with the paper's values alongside ours."""
    table_rows = []
    for row in rows:
        paper = times(row.paper_speedup) if row.paper_speedup else "-"
        table_rows.append([
            row.name, times(row.speedup), times(row.energy_benefit),
            times(row.edp_benefit), paper,
        ])
    return format_table(
        "Table I — per-layer ResNet-18 benefits of the iso-footprint, "
        "iso-capacity M3D accelerator",
        ["layer", "speedup", "energy", "EDP benefit", "paper speedup"],
        table_rows,
    )
