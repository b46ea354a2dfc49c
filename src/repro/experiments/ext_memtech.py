"""Extension study: the M3D principle across BEOL memory technologies.

The paper's conclusion claims its analysis "should apply for many other
M3D technologies" (Sec. II lists RRAM, MRAM, FeFET among the BEOL-
compatible families).  This study swaps the on-chip memory cell for each
BEOL preset of :mod:`repro.tech.memories` — re-deriving the iso-footprint
design pair per technology — and reports the CS count and ResNet-18
benefit for each.

Two opposing effects shape the result:

* a *denser* cell (FeFET, PCM) shrinks A_cells, freeing less silicon
  relative to one CS -> fewer parallel CSs;
* a *sparser* cell (MRAM) frees more silicon -> more CSs, at a bigger
  chip for the same capacity.

The benefit therefore tracks gamma_cells, exactly as Eq. 2 predicts —
which is the transferability claim under test.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tech.memories import MemoryTechnology, beol_technologies
from repro.tech.pdk import PDK
from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.perf.compare import compare_designs
from repro.perf.simulator import simulate
from repro.spec.design import ArchSpec, DesignSpec, TechSpec
from repro.spec.resolve import build_workload, resolve
from repro.units import to_mm2
from repro.workloads.models import Network


@dataclass(frozen=True)
class MemTechRow:
    """Result for one BEOL memory technology.

    Attributes:
        technology: The memory preset.
        gamma_cells: Cell-array / CS area ratio at 64 MB.
        n_cs: Parallel CSs the M3D design derives.
        footprint: Chip footprint (iso between 2D and M3D), m^2.
        speedup: ResNet-18 speedup.
        energy_benefit: ResNet-18 energy benefit.
        edp_benefit: ResNet-18 EDP benefit.
    """

    technology: MemoryTechnology
    gamma_cells: float
    n_cs: int
    footprint: float
    speedup: float
    energy_benefit: float
    edp_benefit: float


def memtech_row(
    pdk: PDK,
    tech: MemoryTechnology,
    capacity_bits: int,
    network: Network,
) -> MemTechRow:
    """Evaluate the case study under one BEOL memory preset."""
    spec = DesignSpec(tech=TechSpec(memory=tech.name),
                      arch=ArchSpec(capacity_bits=capacity_bits))
    point = resolve(spec, pdk)
    benefit = compare_designs(
        simulate(point.baseline, network, point.pdk),
        simulate(point.m3d, network, point.pdk),
    )
    return MemTechRow(
        technology=tech,
        gamma_cells=point.baseline.area.gamma_cells,
        n_cs=point.n_cs_m3d,
        footprint=point.baseline.area.footprint,
        speedup=benefit.speedup,
        energy_benefit=benefit.energy_benefit,
        edp_benefit=benefit.edp_benefit,
    )


@experiment("ext-memtech", "Extension: BEOL memory technologies",
            formatter=lambda rows: format_memtech(rows))
def memtech_experiment(
    ctx: ExperimentContext,
    capacity_bits: int | None = None,
    network: Network | None = None,
) -> tuple[MemTechRow, ...]:
    """Evaluate the case study under every BEOL memory preset.

    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    spec = ctx.design_spec()
    if capacity_bits is None:
        capacity_bits = spec.arch.capacity_bits
    network = network if network is not None \
        else build_workload(spec.workload)
    calls = [(ctx.pdk, tech, capacity_bits, network)
             for tech in beol_technologies()]
    return tuple(ctx.engine.map(memtech_row, calls,
                                stage="ext_memtech.run_memtech",
                                jobs=ctx.jobs))


def format_memtech(rows: tuple[MemTechRow, ...]) -> str:
    """Render the memory-technology comparison."""
    table_rows = [
        [row.technology.name,
         f"{row.technology.bitcell_area_f2:.0f} F^2",
         f"{row.gamma_cells:.2f}",
         row.n_cs,
         f"{to_mm2(row.footprint):.0f}",
         times(row.speedup),
         times(row.edp_benefit)]
        for row in rows
    ]
    return format_table(
        "Extension — M3D benefit across BEOL memory technologies "
        "(64 MB, ResNet-18)",
        ["memory", "bit-cell", "gamma_cells", "M3D CSs", "footprint mm^2",
         "speedup", "EDP benefit"],
        table_rows,
    )
