"""Obs. 2: per-tier power and peak power density of the M3D design."""

from _reporting import report_table

from repro.arch import m3d_design
from repro.experiments.reporting import format_table, percent
from repro.physical import run_staged_flow
from repro.tech import foundry_m3d_pdk
from repro.units import to_mw


def _power_breakdown(pdk):
    return run_staged_flow(m3d_design(pdk), pdk, strict=True).power


def test_bench_obs2_power(benchmark):
    pdk = foundry_m3d_pdk()
    power = benchmark(_power_breakdown, pdk)
    assert power.upper_tier_fraction < 0.01
    rows = [[tier, f"{to_mw(watts):.3f}",
             percent(watts / power.total, 2)]
            for tier, watts in sorted(power.per_tier.items())]
    table = format_table(
        "Obs. 2 — M3D per-tier power (paper: upper layers < 1%)",
        ["tier", "power mW", "share"], rows)
    report_table("obs2", table)
