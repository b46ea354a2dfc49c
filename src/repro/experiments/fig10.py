"""Fig. 10 and Obs. 7-10: FET-width, via-pitch, tier-count, thermal studies.

* :func:`fig10c_experiment` — Case 1 (Obs. 7): EDP benefit vs BEOL access-FET
  width relaxation delta (paper: flat to 1.6x, small benefits to 2.5x).
* :func:`obs8_experiment` — Case 2 (Obs. 8): EDP benefit vs ILV pitch beta
  (paper: unchanged to 1.3x, limited-to-none at 1.6x+).
* :func:`fig10d_experiment` — Case 3 (Obs. 9): EDP benefit vs interleaved tier
  pairs (paper: 5.7 -> 6.9 -> plateau ~7.1 for ResNet-18; a highly
  parallel single layer approaches ~23x).
* :func:`obs10_experiment` — Eq. 17 (Obs. 10): maximum tier pairs inside a 60 K
  budget for representative per-tier powers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import require
from repro.core.multitier import stack_temperature_rise
from repro.core.thermal import ThermalStack, max_tier_pairs, temperature_rise
from repro.core.via_pitch import effective_cell_growth
from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times
from repro.spec.evaluate import SpecEvaluation, evaluate_specs

#: Case 1 access-FET width relaxations (Fig. 10b-c).
DELTAS = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.25, 2.5, 2.75, 3.0)

#: Case 2 ILV pitch factors (Obs. 8).
BETAS = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8, 2.0)


def format_fig10c(results: tuple[SpecEvaluation, ...]) -> str:
    """Render the Fig. 10c series."""
    rows = [
        [f"{r.spec.tech.delta:.2f}", r.n_cs_2d, r.n_cs_m3d, times(r.speedup),
         times(r.edp_benefit)]
        for r in results
    ]
    return format_table(
        "Fig. 10c — EDP benefit vs relaxed M3D access-FET width "
        "(paper: no loss to 1.6x, small benefits to 2.5x)",
        ["delta", "2D CSs", "M3D CSs", "speedup", "EDP benefit"],
        rows,
    )


@experiment("fig10c", "Fig. 10c / Obs. 7: access-FET width relaxation",
            formatter=format_fig10c)
def fig10c_experiment(ctx: ExperimentContext) -> tuple[SpecEvaluation, ...]:
    """Case 1 sweep over the access-FET width relaxation delta.

    A BEOL access FET with weaker drive must be wider by delta, growing
    the M3D bit cell.  Once the cells outgrow the original footprint both
    chips grow, and the enlarged 2D baseline is re-optimized with extra
    CSs (Eq. 9, ``arch.baseline = "reoptimized"``).
    """
    specs = [ctx.design_spec({"tech.delta": delta,
                              "arch.baseline": "reoptimized"})
             for delta in DELTAS]
    return evaluate_specs(specs, pdk=ctx.pdk, engine=ctx.engine,
                          jobs=ctx.jobs)


@dataclass(frozen=True)
class ViaPitchRow:
    """One Obs. 8 point: the evaluation plus its cell growth.

    Attributes:
        evaluation: The design point at this ILV pitch factor.
        effective_delta: M3D cell area at this pitch over the 2D cell's
            (the equivalent Case 1 width relaxation).
    """

    evaluation: SpecEvaluation
    effective_delta: float


def format_obs8(rows: tuple[ViaPitchRow, ...]) -> str:
    """Render the Obs. 8 series."""
    table_rows = [
        [f"{row.evaluation.spec.tech.beta:.2f}", f"{row.effective_delta:.2f}",
         row.evaluation.n_cs_2d, row.evaluation.n_cs_m3d,
         times(row.evaluation.edp_benefit)]
        for row in rows
    ]
    return format_table(
        "Obs. 8 — EDP benefit vs M3D via pitch "
        "(paper: unchanged to 1.3x, limited benefit at 1.6x+)",
        ["beta", "cell growth", "2D CSs", "M3D CSs", "EDP benefit"],
        table_rows,
    )


@experiment("obs8", "Obs. 8: ILV via pitch sweep", formatter=format_obs8)
def obs8_experiment(ctx: ExperimentContext) -> tuple[ViaPitchRow, ...]:
    """Case 2 sweep over the ILV pitch beta.

    The resolver scales the ILV pitch and re-optimizes the 2D baseline
    into the grown footprint, exactly as Case 1 does at delta_eff.
    """
    specs = [ctx.design_spec({"tech.beta": beta,
                              "arch.baseline": "reoptimized"})
             for beta in BETAS]
    evaluations = evaluate_specs(specs, pdk=ctx.pdk, engine=ctx.engine,
                                 jobs=ctx.jobs)
    return tuple(
        ViaPitchRow(evaluation=evaluation,
                    effective_delta=effective_cell_growth(ctx.pdk, beta))
        for beta, evaluation in zip(BETAS, evaluations))


@dataclass(frozen=True)
class Fig10dResult:
    """Tier sweep plus the highly parallel single-layer headline.

    Attributes:
        network_sweep: Whole-network (ResNet-18) evaluations per tier pair.
        parallel_layer_sweep: Single-layer (L4.1 CONV2) evaluations.
        temperature_rises: Eq. 17 rise of each ``network_sweep`` chip, K.
    """

    network_sweep: tuple[SpecEvaluation, ...]
    parallel_layer_sweep: tuple[SpecEvaluation, ...]
    temperature_rises: tuple[float, ...]


def format_fig10d(result: Fig10dResult) -> str:
    """Render the Fig. 10d series."""
    rows = []
    for net_point, layer_point, rise in zip(result.network_sweep,
                                            result.parallel_layer_sweep,
                                            result.temperature_rises):
        rows.append([
            net_point.spec.arch.tier_pairs, net_point.n_cs_m3d,
            times(net_point.edp_benefit),
            times(layer_point.edp_benefit),
            f"{rise:.2f} K",
        ])
    return format_table(
        "Fig. 10d — EDP benefit vs interleaved compute+memory tier pairs "
        "(paper: 5.7 -> 6.9 -> ~7.1 plateau; parallel layer -> ~23x)",
        ["pairs Y", "total CSs", "ResNet-18 EDP", "L4.1 CONV2 EDP",
         "temp rise"],
        rows,
    )


@experiment("fig10d", "Fig. 10d / Obs. 9: interleaved tier pairs",
            formatter=format_fig10d)
def fig10d_experiment(ctx: ExperimentContext,
                      max_pairs: int = 6) -> Fig10dResult:
    """Case 3 sweep for the spec's network and its most parallel layer."""
    require(max_pairs >= 1, "max_pairs must be >= 1")
    pairs = range(1, max_pairs + 1)
    network_specs = [ctx.design_spec({"arch.tier_pairs": y}) for y in pairs]
    layer_specs = [ctx.design_spec({"arch.tier_pairs": y,
                                    "workload.layer": "L4.1 CONV2"})
                   for y in pairs]
    evaluations = evaluate_specs(network_specs + layer_specs, pdk=ctx.pdk,
                                 engine=ctx.engine, jobs=ctx.jobs)
    return Fig10dResult(
        network_sweep=evaluations[:max_pairs],
        parallel_layer_sweep=evaluations[max_pairs:],
        temperature_rises=tuple(stack_temperature_rise(spec, ctx.pdk)
                                for spec in network_specs),
    )


@dataclass(frozen=True)
class Obs10Row:
    """Thermal ceiling for one per-tier power level.

    Attributes:
        power_per_pair: Power of each tier pair, watts.
        max_pairs: Largest stack inside the 60 K budget.
        rise_at_max: Temperature rise of that stack, K.
    """

    power_per_pair: float
    max_pairs: int
    rise_at_max: float


def format_obs10(rows: tuple[Obs10Row, ...]) -> str:
    """Render the Obs. 10 ceiling table."""
    table_rows = [
        [f"{row.power_per_pair:.0f} W", row.max_pairs,
         f"{row.rise_at_max:.1f} K"]
        for row in rows
    ]
    return format_table(
        "Obs. 10 — maximum interleaved tier pairs within a 60 K rise "
        "(Eq. 17)",
        ["power per pair", "max pairs", "rise at max"],
        table_rows,
    )


@experiment("obs10", "Obs. 10: thermal tier ceiling", formatter=format_obs10)
def obs10_experiment(
    ctx: ExperimentContext,
    powers: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0),
    stack: ThermalStack | None = None,
) -> tuple[Obs10Row, ...]:
    """Obs. 10: tier ceiling vs per-tier power at HPC-class dissipation.

    Obs. 10 is analytical (Eq. 17 only) — the context is unused.
    """
    stack = stack if stack is not None else ThermalStack()
    rows: list[Obs10Row] = []
    for power in powers:
        pairs = max_tier_pairs(power, stack)
        rise = temperature_rise([power] * pairs, stack) if pairs else float("inf")
        rows.append(Obs10Row(power_per_pair=power, max_pairs=pairs,
                             rise_at_max=rise))
    return tuple(rows)
