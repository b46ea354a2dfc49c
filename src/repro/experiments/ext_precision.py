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

from repro.tech.pdk import PDK
from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.perf.compare import compare_designs
from repro.perf.simulator import simulate
from repro.spec.design import ArchSpec, DesignSpec
from repro.spec.resolve import build_workload, resolve
from repro.workloads.models import Network, available_networks, build_network


@dataclass(frozen=True)
class PrecisionRow:
    """Result for one operand precision.

    Attributes:
        precision_bits: Weight/activation precision.
        n_cs: M3D CS count (unchanged: area model is capacity-driven).
        models_fitting: Fig. 5-family models whose weights fit 64 MB.
        speedup / energy_benefit / edp_benefit: ResNet-18 benefits.
    """

    precision_bits: int
    n_cs: int
    models_fitting: tuple[str, ...]
    speedup: float
    energy_benefit: float
    edp_benefit: float


def precision_row(
    pdk: PDK,
    bits: int,
    capacity_bits: int,
    network: Network,
) -> PrecisionRow:
    """Evaluate the case-study pair at one operand precision."""
    spec = DesignSpec(arch=ArchSpec(capacity_bits=capacity_bits,
                                    cs="precision-scaled",
                                    precision_bits=bits))
    point = resolve(spec, pdk)
    fitting = tuple(
        name for name in available_networks()
        if build_network(name).weight_bits(bits) <= capacity_bits)
    benefit = compare_designs(
        simulate(point.baseline, network, point.pdk),
        simulate(point.m3d, network, point.pdk),
    )
    return PrecisionRow(
        precision_bits=bits,
        n_cs=point.n_cs_m3d,
        models_fitting=fitting,
        speedup=benefit.speedup,
        energy_benefit=benefit.energy_benefit,
        edp_benefit=benefit.edp_benefit,
    )


@experiment("ext-precision", "Extension: operand precision sweep",
            formatter=lambda rows: format_precision(rows))
def precision_experiment(
    ctx: ExperimentContext,
    precisions: tuple[int, ...] = (4, 8, 16),
    capacity_bits: int | None = None,
    network: Network | None = None,
) -> tuple[PrecisionRow, ...]:
    """Sweep operand precision at the context spec's capacity.

    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    spec = ctx.design_spec()
    if capacity_bits is None:
        capacity_bits = spec.arch.capacity_bits
    network = network if network is not None \
        else build_workload(spec.workload)
    calls = [(ctx.pdk, bits, capacity_bits, network) for bits in precisions]
    return tuple(ctx.engine.map(precision_row, calls,
                                stage="ext_precision.run_precision",
                                jobs=ctx.jobs))


def format_precision(rows: tuple[PrecisionRow, ...]) -> str:
    """Render the precision study."""
    table_rows = [
        [f"{row.precision_bits}-bit", row.n_cs, len(row.models_fitting),
         times(row.speedup), times(row.edp_benefit)]
        for row in rows
    ]
    return format_table(
        "Extension — operand precision at 64 MB (ResNet-18 benefits; "
        "'models' counts Fig. 5-family networks whose weights fit)",
        ["precision", "M3D CSs", "models fitting", "speedup", "EDP benefit"],
        table_rows,
    )
