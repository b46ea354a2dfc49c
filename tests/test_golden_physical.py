"""Golden values of the physical flow: ``physical_summary`` of fixed chips.

Each entry pins the ``repr`` of one chip's :class:`PhysicalSummary` as the
flow printed it before its geometry layer (name index, overlap sweep,
memoized net HPWL) was rewritten, so any change to a flow value fails
tier-1.  The chips cover both sweep clocks (100 and 228 MHz), two die
aspect ratios, a re-optimized 12-CS 2D baseline next to a 20-CS M3D chip, a
400 MHz chip whose 2D baseline misses timing, and a chip whose M3D
floorplan leaves the die.

Booleans and strings compare exactly and floats to 1e-12 relative: the
pinned text is CPython 3.11's, and CPython 3.12's compensated ``sum``
moves the last bit of a few sums.  ``thermal_residual`` is the rounding
noise of the thermal solve, so it is only held under 1e-9.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.spec import DesignSpec, PhysicalSummary
from repro.spec.evaluate import physical_summary

#: (spec overrides, the pinned repr of the chip's summary).
GOLDEN: list[tuple[dict, str]] = [
    ({"flow.frequency_mhz": 100.0, "flow.aspect_ratio": 0.9},
     "PhysicalSummary(feasible=True, failed_stage=None, "
     "timing_met=True, timing_slack=5.310675620859902e-09, "
     "achieved_frequency=213250336.11417055, routable=True, "
     "track_utilization=0.036327253778507394, "
     "ilv_utilization=0.9409123797858727, "
     "total_power=0.491510291076051, "
     "peak_power_density=7703.071738820574, power_density_ok=True, "
     "power_density_ratio=1.0012224434150045, "
     "upper_tier_fraction=0.006250123457790779, "
     "hotspot_rise_k=0.206005488846561, "
     "thermal_headroom_k=59.793994511153436, thermal_ok=True, "
     "thermal_residual=1.189702609170049e-12)"),
    ({"flow.frequency_mhz": 228.0, "flow.aspect_ratio": 1.13},
     "PhysicalSummary(feasible=False, failed_stage=None, "
     "timing_met=False, timing_slack=-3.595334765425092e-10, "
     "achieved_frequency=210726022.44587, routable=True, "
     "track_utilization=0.0356644026553467, "
     "ilv_utilization=0.9409123797858727, "
     "total_power=1.1197585949250424, "
     "peak_power_density=17552.336897844245, power_density_ok=True, "
     "power_density_ratio=1.0012231872103254, "
     "upper_tier_fraction=0.006255062503421877, "
     "hotspot_rise_k=0.4277022027893419, "
     "thermal_headroom_k=59.57229779721066, thermal_ok=True, "
     "thermal_residual=1.2290077735548758e-12)"),
    ({"arch.capacity_mb": 32,
      "flow.frequency_mhz": 228.0, "flow.aspect_ratio": 0.9},
     "PhysicalSummary(feasible=True, failed_stage=None, "
     "timing_met=True, timing_slack=1.3272473781563888e-10, "
     "achieved_frequency=235114867.48471043, routable=True, "
     "track_utilization=0.03396717090098038, "
     "ilv_utilization=0.9409123797858727, "
     "total_power=0.6390441425111034, "
     "peak_power_density=17552.336897844245, power_density_ok=True, "
     "power_density_ratio=1.0012231872103254, "
     "upper_tier_fraction=0.005480184805761131, "
     "hotspot_rise_k=0.2877586303415696, "
     "thermal_headroom_k=59.71224136965843, thermal_ok=True, "
     "thermal_residual=1.4252124680342129e-12)"),
    ({"arch.baseline": "reoptimized", "tech.delta": 3.0,
      "flow.frequency_mhz": 100.0, "flow.aspect_ratio": 1.13},
     "PhysicalSummary(feasible=True, failed_stage=None, "
     "timing_met=True, timing_slack=4.294985516044107e-09, "
     "achieved_frequency=175284392.8463778, routable=True, "
     "track_utilization=0.04328540559027155, "
     "ilv_utilization=0.31363835725088335, "
     "total_power=1.1240730684466205, "
     "peak_power_density=7701.504226678135, power_density_ok=True, "
     "power_density_ratio=1.0010187028306574, "
     "upper_tier_fraction=0.006832296062935792, "
     "hotspot_rise_k=0.4092603586221545, "
     "thermal_headroom_k=59.590739641377844, thermal_ok=True, "
     "thermal_residual=1.8943715961620858e-12)"),
    ({"flow.frequency_mhz": 400.0},
     "PhysicalSummary(feasible=False, failed_stage=None, "
     "timing_met=False, timing_slack=-2.224581682935952e-09, "
     "achieved_frequency=211658950.38110113, routable=True, "
     "track_utilization=0.036006190555200636, "
     "ilv_utilization=0.9409123797858727, "
     "total_power=1.9639444524675977, "
     "peak_power_density=30787.286955282296, power_density_ok=True, "
     "power_density_ratio=1.0012234372822133, "
     "upper_tier_fraction=0.006256796104676354, "
     "hotspot_rise_k=0.8829129217146601, "
     "thermal_headroom_k=59.11708707828534, thermal_ok=True, "
     "thermal_residual=1.9966978522607837e-12)"),
    ({"tech.delta": 4.0},
     "PhysicalSummary(feasible=False, failed_stage='floorplan', "
     "timing_met=False, timing_slack=0.0, achieved_frequency=0.0, "
     "routable=False, track_utilization=0.0, ilv_utilization=0.0, "
     "total_power=0.0, peak_power_density=0.0, "
     "power_density_ok=False, power_density_ratio=0.0, "
     "upper_tier_fraction=0.0, hotspot_rise_k=0.0, "
     "thermal_headroom_k=0.0, thermal_ok=False, "
     "thermal_residual=5.554501348895511e-13)"),
]


def pinned(text: str) -> PhysicalSummary:
    return eval(text, {"__builtins__": {}, "PhysicalSummary": PhysicalSummary})


@pytest.mark.parametrize("overrides, text", GOLDEN,
                         ids=[str(i) for i in range(len(GOLDEN))])
def test_physical_summary_matches_its_pinned_repr(overrides, text):
    spec = DesignSpec().updated(overrides)
    summary = physical_summary(spec.tech, spec.arch, spec.flow)
    expected = pinned(text)
    for field in dataclasses.fields(PhysicalSummary):
        got = getattr(summary, field.name)
        want = getattr(expected, field.name)
        if field.name == "thermal_residual":
            assert 0.0 <= got < 1e-9, field.name
        elif isinstance(want, float):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), \
                (field.name, got, want)
        else:
            assert got == want, field.name
