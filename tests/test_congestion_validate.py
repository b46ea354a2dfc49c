"""Congestion analysis and the paper-claim validator."""

import pytest

from repro.physical.congestion import congestion_report
from repro.physical.flow import run_staged_flow
from repro.arch import m3d_design
from repro.validate import Check, format_validation


@pytest.fixture(scope="module")
def flows(pdk, baseline, m3d, legacy_flow):
    return tuple(run_staged_flow(design, pdk, flow=legacy_flow, strict=True)
                 for design in (baseline, m3d))


@pytest.fixture(scope="module")
def reports(flows):
    return tuple(congestion_report(flow.floorplan, flow.routing, flow.design)
                 for flow in flows)


def test_both_designs_routable(reports):
    for report in reports:
        assert report.routable


def test_track_utilization_low(reports):
    """Block-level wiring is nowhere near the metal capacity."""
    for report in reports:
        assert report.track_utilization < 0.2


def test_m3d_ilv_utilization_high_but_feasible(reports):
    """At fine pitch the memory cells consume most — but not all — of the
    via sites over the array: the design sits exactly where Case 2 says it
    should (barely FET-limited)."""
    _, m3d_report = reports
    assert 0.8 < m3d_report.ilv_utilization <= 1.0


def test_2d_ilv_utilization_negligible(reports):
    report_2d, _ = reports
    assert report_2d.ilv_utilization < 0.01


def test_coarse_pitch_saturates_ilvs(pdk, legacy_flow):
    """Coarsening the ILV pitch pushes the array into the via-limited
    regime: utilization pegs at 1 (every site used)."""
    coarse = pdk.with_ilv_pitch_factor(1.5)
    flow = run_staged_flow(m3d_design(coarse), coarse, flow=legacy_flow,
                           strict=True)
    report = congestion_report(flow.floorplan, flow.routing, flow.design)
    assert report.ilv_utilization == pytest.approx(1.0, abs=0.01)


def test_m3d_ilv_demand_dominated_by_cells(reports, m3d):
    _, m3d_report = reports
    cell_vias = m3d.rram_capacity_bits * 2  # two ILVs per bit
    assert m3d_report.ilv_demand >= cell_vias


# --- validator ----------------------------------------------------------------

def test_format_validation_pass_fail():
    checks = (
        Check(name="a", paper="1x", measured="1x", passed=True),
        Check(name="b", paper="2x", measured="9x", passed=False),
    )
    text = format_validation(checks)
    assert "[PASS] a" in text
    assert "[FAIL] b" in text
    assert "1/2 claims reproduced" in text


def test_validator_subset_runs(pdk):
    """Spot-run two cheap validator sections end to end."""
    from repro.validate import run_validation
    checks = run_validation(pdk)
    by_name = {check.name: check for check in checks}
    assert by_name["Table I total speedup"].passed
    assert by_name["Obs. 2 upper-tier power"].passed
    assert len(checks) >= 14
    assert all(check.passed for check in checks)
