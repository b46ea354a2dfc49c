"""Case 3 (Sec. III-F): multiple interleaved M3D compute & memory tiers.

Stacking Y pairs of compute and memory tiers multiplies the parallel CS
count (each pair brings its own memory banks, peripherals and therefore its
own bandwidth): N(Y) = Y * N(1).  Benefits grow with Y but plateau once the
total CS count exceeds the workload's parallelizable partitions (Fig. 10d),
and Eq. 17's thermal stack puts a hard ceiling on Y (Obs. 10).

The benefit is the ``arch.tier_pairs`` knob of a design spec, evaluated
like any other point (the ``fig10d`` experiment); this module holds the
Eq. 17 side, which needs the M3D chip's average power.
"""

from __future__ import annotations

from repro.tech.pdk import PDK
from repro.perf.simulator import simulate
from repro.spec.design import DesignSpec
from repro.spec.resolve import resolve
from repro.core.thermal import ThermalStack, temperature_rise


def stack_temperature_rise(spec: DesignSpec, pdk: PDK | None = None) -> float:
    """Eq. 17 rise, K, of the spec's M3D chip with its average power split
    uniformly across its ``arch.tier_pairs`` pairs.

    Simulates the M3D design once; the simulator memoizes per layer, so
    after ``evaluate_spec`` of the same spec in this process every layer
    is a memo hit.
    """
    point = resolve(spec, pdk)
    report = simulate(point.m3d, point.network, point.pdk,
                      batch=spec.workload.batch)
    pairs = spec.arch.tier_pairs
    return temperature_rise([report.average_power / pairs] * pairs,
                            ThermalStack())
