"""Per-tier power analysis and the full flow (Obs. 2)."""

import pytest

from repro.errors import ConfigurationError
from repro.physical.flow import run_staged_flow
from repro.physical.power import ActivityFactors, analyze_power
from repro.physical.floorplan import build_floorplan
from repro.physical.netlist import synthesize
from repro.units import to_mw


@pytest.fixture(scope="module")
def flow_2d(pdk, baseline, legacy_flow):
    return run_staged_flow(baseline, pdk, flow=legacy_flow, strict=True)


@pytest.fixture(scope="module")
def flow_m3d(pdk, m3d, legacy_flow):
    return run_staged_flow(m3d, pdk, flow=legacy_flow, strict=True)


def test_flow_iso_footprint(flow_2d, flow_m3d):
    assert flow_2d.footprint == pytest.approx(flow_m3d.footprint)


def test_both_designs_close_timing(flow_2d, flow_m3d):
    assert flow_2d.closed_timing
    assert flow_m3d.closed_timing


def test_m3d_upper_tier_power_below_1pct(flow_m3d):
    """Obs. 2: power in the CNFET + RRAM tiers is < 1% of chip power."""
    assert flow_m3d.power.upper_tier_fraction < 0.01


def test_peak_power_density_within_1pct(flow_2d, flow_m3d):
    """Obs. 2: peak power density increases by just ~1%."""
    ratio = (flow_m3d.power.peak_power_density
             / flow_2d.power.peak_power_density)
    assert 1.0 <= ratio < 1.02


def test_m3d_total_power_higher_but_comparable(flow_2d, flow_m3d):
    """8 active CSs raise average power roughly with throughput."""
    assert flow_m3d.power.total > flow_2d.power.total
    assert flow_m3d.power.total < 10 * flow_2d.power.total


def test_chip_power_is_milliwatts(flow_2d):
    assert 1.0 < to_mw(flow_2d.power.total) < 1000.0


def test_per_tier_sums_to_total(flow_m3d):
    power = flow_m3d.power
    assert power.total == pytest.approx(sum(power.per_tier.values()))


def test_2d_has_no_cnfet_power(flow_2d):
    assert flow_2d.power.per_tier["cnfet"] == 0.0


def test_m3d_has_cnfet_power(flow_m3d):
    assert flow_m3d.power.per_tier["cnfet"] > 0.0


def test_per_block_covers_all_blocks(flow_m3d):
    assert set(flow_m3d.power.per_block) == set(flow_m3d.netlist.blocks)


def test_density_regions_group_cs_slots(flow_m3d):
    density = flow_m3d.power.block_density
    assert "cs0" in density
    assert "cs0_buf" not in density  # folded into the cs0 slot region


def test_higher_activity_more_power(pdk, m3d):
    netlist = synthesize(m3d, pdk)
    plan = build_floorplan(netlist, m3d, pdk)
    lazy = analyze_power(plan, netlist, m3d, pdk,
                         ActivityFactors(cs_compute=0.1))
    busy = analyze_power(plan, netlist, m3d, pdk,
                         ActivityFactors(cs_compute=0.9))
    assert busy.total > lazy.total


def test_activity_validation():
    with pytest.raises(ConfigurationError):
        ActivityFactors(cs_compute=1.5)


def test_flow_quality_metrics(flow_m3d):
    assert flow_m3d.quality["hpwl_metre_bits"] > 0


def test_m3d_inter_block_wl_larger_but_distributed(flow_2d, flow_m3d):
    """The M3D chip wires 8 CS slots and 8 banks; total metre-bits grow,
    while each weight channel stays short (CS under its bank)."""
    assert flow_m3d.routing.inter_block_wirelength \
        > flow_2d.routing.inter_block_wirelength


def test_flow_rejects_timing_failure(pdk, baseline, legacy_flow):
    from dataclasses import replace
    fast = replace(baseline, frequency_hz=10e9)
    with pytest.raises(ConfigurationError, match="failed timing"):
        run_staged_flow(fast, pdk, flow=legacy_flow, strict=True)
