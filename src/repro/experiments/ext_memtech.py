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

from repro.tech.memories import beol_technologies, memory_technology
from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.spec.evaluate import SpecEvaluation, evaluate_specs
from repro.spec.resolve import resolve
from repro.units import to_mm2


@dataclass(frozen=True)
class MemTechRow:
    """Result for one BEOL memory technology.

    Attributes:
        evaluation: The design point under this memory preset
            (``tech.memory``).
        gamma_cells: Cell-array / CS area ratio of its 2D baseline.
    """

    evaluation: SpecEvaluation
    gamma_cells: float


@experiment("ext-memtech", "Extension: BEOL memory technologies",
            formatter=lambda rows: format_memtech(rows))
def memtech_experiment(
    ctx: ExperimentContext,
    capacity_bits: int | None = None,
) -> tuple[MemTechRow, ...]:
    """Evaluate the case study under every BEOL memory preset.

    ``capacity_bits`` (if given) overrides the context spec's capacity.
    """
    base = {} if capacity_bits is None \
        else {"arch.capacity_bits": capacity_bits}
    specs = [ctx.design_spec({**base, "tech.memory": tech.name})
             for tech in beol_technologies()]
    evaluations = evaluate_specs(specs, pdk=ctx.pdk, engine=ctx.engine,
                                 jobs=ctx.jobs)
    return tuple(
        MemTechRow(evaluation=evaluation, gamma_cells=resolve(
            evaluation.spec, ctx.pdk).baseline.area.gamma_cells)
        for evaluation in evaluations)


def format_memtech(rows: tuple[MemTechRow, ...]) -> str:
    """Render the memory-technology comparison."""
    table_rows = []
    for row in rows:
        evaluation = row.evaluation
        technology = memory_technology(evaluation.spec.tech.memory)
        table_rows.append(
            [technology.name,
             f"{technology.bitcell_area_f2:.0f} F^2",
             f"{row.gamma_cells:.2f}",
             evaluation.n_cs_m3d,
             f"{to_mm2(evaluation.footprint):.0f}",
             times(evaluation.speedup),
             times(evaluation.edp_benefit)])
    return format_table(
        "Extension — M3D benefit across BEOL memory technologies "
        "(64 MB, ResNet-18)",
        ["memory", "bit-cell", "gamma_cells", "M3D CSs", "footprint mm^2",
         "speedup", "EDP benefit"],
        table_rows,
    )
