"""Programmatic validation: every headline paper claim, PASS/FAIL.

``python -m repro validate`` runs the same checks the integration test
suite (:mod:`tests.test_paper_claims`) enforces, but as a self-contained
report — the thing you run after touching any calibration constant.

Each check compares a measured quantity against the paper's value at an
explicit tolerance and reports PASS/FAIL; the exit code is the number of
failures.  The last checks run the independent references (event
simulator, RRAM mat model, gate-level placer) against the model
assumptions they back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tech.pdk import PDK, foundry_m3d_pdk


@dataclass(frozen=True)
class Check:
    """One validated claim.

    Attributes:
        name: Short claim identifier.
        paper: The paper's value (for a reference check, the assumed
            value it backs), as text.
        measured: Our measured value, as text.
        passed: Whether the claim holds at its tolerance.
    """

    name: str
    paper: str
    measured: str
    passed: bool


def _within(measured: float, target: float, rel: float) -> bool:
    return abs(measured - target) <= rel * abs(target)


def run_validation(pdk: PDK | None = None) -> tuple[Check, ...]:
    """Run every headline check and return the results.

    Experiments run through their registry drivers with **one** shared
    :class:`~repro.experiments.registry.ExperimentContext`, so the whole
    validation shares a result cache and memo tables (the deprecated
    ``run_*`` shims would rebuild both per call).
    """
    from repro.experiments.registry import ExperimentContext

    pdk = pdk if pdk is not None else foundry_m3d_pdk()
    ctx = ExperimentContext.create(pdk=pdk)
    checks: list[Check] = []

    def add(name: str, paper: str, measured: str, passed: bool) -> None:
        checks.append(Check(name=name, paper=paper, measured=measured,
                            passed=passed))

    # Table I total.
    from repro.experiments.table1 import table1_experiment
    total = table1_experiment(ctx)[-1]
    add("Table I total speedup", "5.64x", f"{total.speedup:.2f}x",
        _within(total.speedup, 5.64, 0.05))
    add("Table I total EDP", "5.66x", f"{total.edp_benefit:.2f}x",
        _within(total.edp_benefit, 5.66, 0.05))

    # Fig. 5 range.
    from repro.experiments.fig5 import fig5_experiment
    rows = fig5_experiment(ctx)
    lo = min(r.edp_benefit for r in rows)
    hi = max(r.edp_benefit for r in rows)
    add("Fig. 5 EDP range", "5.7x-7.5x", f"{lo:.2f}x-{hi:.2f}x",
        _within(lo, 5.7, 0.05) and _within(hi, 7.5, 0.10))

    # Fig. 7 agreement and range.
    from repro.experiments.fig7 import fig7_experiment
    f7 = fig7_experiment(ctx)
    worst = max(r.edp_disagreement for r in f7)
    lo7 = min(r.analytic_edp for r in f7)
    hi7 = max(r.analytic_edp for r in f7)
    add("Fig. 7 model agreement", "<10%", f"{worst * 100:.1f}%",
        worst < 0.10)
    add("Fig. 7 EDP range", "5.3x-11.5x", f"{lo7:.2f}x-{hi7:.2f}x",
        _within(lo7, 5.3, 0.20) and _within(hi7, 11.5, 0.15))

    # Fig. 9 endpoints.
    from repro.experiments.fig9 import fig9_experiment
    from repro.units import MEGABYTE
    points = {round(p.spec.arch.capacity_bits / MEGABYTE): p
              for p in fig9_experiment(ctx)}
    add("Fig. 9 @ 12 MB", "1.0x", f"{points[12].edp_benefit:.2f}x",
        _within(points[12].edp_benefit, 1.0, 0.02))
    add("Fig. 9 @ 128 MB", "6.8x", f"{points[128].edp_benefit:.2f}x",
        _within(points[128].edp_benefit, 6.8, 0.05))

    # Obs. 7 / Obs. 8 thresholds and the Obs. 9 second pair: single-knob
    # points of the case study.
    from repro.spec.evaluate import evaluate_specs
    reoptimized = {"arch.baseline": "reoptimized"}
    nominal, flat, retained, beta_ok, beta_dead, y2 = (
        evaluation.edp_benefit for evaluation in evaluate_specs([
            ctx.design_spec({**reoptimized, "tech.delta": 1.0}),
            ctx.design_spec({**reoptimized, "tech.delta": 1.6}),
            ctx.design_spec({**reoptimized, "tech.delta": 2.5}),
            ctx.design_spec({**reoptimized, "tech.beta": 1.3}),
            ctx.design_spec({**reoptimized, "tech.beta": 1.6}),
            ctx.design_spec({"arch.tier_pairs": 2}),
        ], pdk=ctx.pdk, engine=ctx.engine))
    add("Obs. 7 flat to delta=1.6", "no loss",
        f"{flat / nominal:.3f}x of nominal", _within(flat, nominal, 0.02))
    add("Obs. 7 retained at delta=2.5", ">1x", f"{retained:.2f}x",
        1.0 < retained < 2.0)
    add("Obs. 8 unchanged at beta=1.3", "no loss",
        f"{beta_ok / nominal:.3f}x of nominal",
        _within(beta_ok, nominal, 0.02))
    add("Obs. 8 limited at beta=1.6", "~1x", f"{beta_dead:.2f}x",
        beta_dead < 2.0)

    # Obs. 9 tiers.
    add("Obs. 9 second tier pair", "6.9x", f"{y2:.2f}x",
        _within(y2, 6.9, 0.05))

    # Obs. 2 physical power.
    from repro.experiments.casestudy import casestudy_experiment
    case = casestudy_experiment(ctx)
    add("Obs. 2 upper-tier power", "<1%",
        f"{case.upper_tier_fraction * 100:.2f}%",
        case.upper_tier_fraction < 0.01)
    add("Obs. 2 peak density", "+1%",
        f"+{(case.peak_density_ratio - 1) * 100:.2f}%",
        case.peak_density_ratio < 1.02)

    # Obs. 3 SRAM baseline.
    from repro.experiments.obs3 import obs3_experiment
    sram = next(r for r in obs3_experiment(ctx) if r.density_ratio == 2.0)
    add("Obs. 3 SRAM baseline", "16 CS / 6.8x",
        f"{sram.n_cs} CS / {sram.edp_benefit:.2f}x",
        sram.n_cs == 16 and _within(sram.edp_benefit, 6.8, 0.05))

    # Intro contrast: folding-only prior work.
    from repro.experiments.folding import folding_experiment
    folded = folding_experiment(ctx)
    add("Folding-only EDP ([3-4])", "1.1x-1.4x",
        f"{folded.folded_edp_benefit:.2f}x",
        1.05 <= folded.folded_edp_benefit <= 1.5)

    # The references behind the model's assumptions (DESIGN.md Sec. 6).
    from repro.perf.simulator import simulate
    from repro.perf.tilesim import tile_simulate
    from repro.spec.resolve import resolve
    point = resolve(ctx.design_spec({}), ctx.pdk)
    misses = [abs(tile_simulate(design, point.network, point.pdk).cycles
                  / simulate(design, point.network, point.pdk).cycles - 1)
              for design in (point.baseline, point.m3d)]
    add("Event sim vs closed form", "<2%",
        " / ".join(f"{miss * 100:.2f}%" for miss in misses),
        max(misses) < 0.02)

    from repro.tech.array_internals import organize_bank
    m3d = point.m3d
    bank = organize_bank(m3d.bank_plan.bank_capacity_bits, m3d.frequency_hz,
                         m3d.bank_width_bits)
    cycles = bank.read_latency_cycles(m3d.frequency_hz)
    add("Bank read per cycle", f"{m3d.bank_width_bits}b/1 cycle",
        f"{m3d.bank_width_bits}b/{cycles} cycle at "
        f"{m3d.frequency_hz / 1e6:.0f} MHz (access "
        f"{bank.mat.access_time() * 1e9:.1f} of "
        f"{m3d.cycle_time * 1e9:.0f} ns)", cycles == 1)

    from repro.physical.cellplace import (
        clustered_netlist,
        clustered_placement,
        refine_by_swaps,
    )
    from repro.physical.routing import intra_block_wirelength
    netlist = clustered_netlist()
    placed = refine_by_swaps(clustered_placement(netlist, 16), passes=2)
    cells = netlist.cell_count
    # Unit site pitch: the Rent estimate's mean net length in pitches.
    rent = intra_block_wirelength(cells, float(cells)) / cells
    length = placed.average_net_length()
    add("Placed net length vs Rent", f"{rent:.2f} pitch",
        f"{length:.2f} ({(length / rent - 1) * 100:+.1f}%)",
        _within(length, rent, 0.10))

    return tuple(checks)


def format_validation(checks: tuple[Check, ...]) -> str:
    """Render the PASS/FAIL report."""
    lines = ["paper-claim validation"]
    width = max(len(check.name) for check in checks)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"  [{status}] {check.name.ljust(width)}  "
                     f"paper: {check.paper:12s} measured: {check.measured}")
    failures = sum(1 for check in checks if not check.passed)
    lines.append(f"{len(checks) - failures}/{len(checks)} claims reproduced")
    return "\n".join(lines)


def main(pdk: PDK | None = None) -> int:
    """Run and print the validation; returns the failure count."""
    checks = run_validation(pdk)
    print(format_validation(checks))
    return sum(1 for check in checks if not check.passed)
