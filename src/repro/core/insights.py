"""Design-space sweeps behind Obs. 5 (Fig. 8).

* :func:`sweep_bandwidth_vs_cs` — Fig. 8: EDP benefit over a grid of
  (per-design bandwidth, parallel CS count) for an abstract workload of a
  given arithmetic intensity.  Reproduces the Obs. 5 rules of thumb:
  compute-bound workloads want CSs, memory-bound workloads want bandwidth.

Fig. 9 (Obs. 6) varies one spec knob, ``arch.capacity_bits``, and is
evaluated like any other design point by the ``fig9`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import require
from repro.tech.pdk import PDK, foundry_m3d_pdk
from repro.arch.accelerator import baseline_2d_design
from repro.core.framework import DesignPoint, Workload, edp_benefit


@dataclass(frozen=True)
class BandwidthCSPoint:
    """One Fig. 8 grid point.

    Attributes:
        n_cs: Parallel CSs in the M3D design point.
        bandwidth_factor: Total bandwidth relative to the 2D baseline's B.
        edp_benefit: EDP benefit over the 2D baseline (Eq. 8).
    """

    n_cs: int
    bandwidth_factor: float
    edp_benefit: float


def reference_design_point(pdk: PDK | None = None) -> DesignPoint:
    """The 2D case-study design expressed as a framework design point."""
    from repro.core.params import design_point  # local import avoids a cycle

    pdk = pdk if pdk is not None else foundry_m3d_pdk()
    return design_point(baseline_2d_design(pdk), pdk)


def m3d_point(base: DesignPoint, n_cs: int, per_cs_bandwidth_factor: float) -> DesignPoint:
    """An M3D design point with ``n_cs`` CSs, each with ``factor`` times the
    baseline's per-CS bandwidth (total B = N * factor * B_2D — banking
    scales with the CS count, per the case study)."""
    require(per_cs_bandwidth_factor > 0, "bandwidth factor must be positive")
    total = n_cs * per_cs_bandwidth_factor * base.bandwidth_bits_per_cycle
    return base.with_n_cs(n_cs).with_bandwidth(total)


def sweep_bandwidth_vs_cs(
    intensity_ops_per_bit: float,
    n_cs_values: tuple[int, ...] = (1, 2, 4, 8, 16),
    bandwidth_factors: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    base: DesignPoint | None = None,
    data_bits: float = 1e9,
) -> tuple[BandwidthCSPoint, ...]:
    """Fig. 8 grid: EDP benefit vs (per-CS bandwidth, CS count).

    The workload is abstract: ``data_bits`` of broadcast traffic and
    ``intensity * data_bits`` operations, perfectly partitionable — which
    isolates the bandwidth/parallelism trade-off the way the paper does.
    ``bandwidth_factors`` scale the *per-CS* bandwidth relative to the 2D
    baseline's B (Obs. 5 reasons in per-CS terms).
    """
    require(intensity_ops_per_bit > 0, "intensity must be positive")
    base = base if base is not None else reference_design_point()
    workload = Workload(
        compute_ops=intensity_ops_per_bit * data_bits,
        data_bits=data_bits,
    )
    pairs = [(n_cs, factor)
             for n_cs in n_cs_values
             for factor in bandwidth_factors]
    grid: list[BandwidthCSPoint] = []
    for n_cs, factor in pairs:
        candidate = m3d_point(base, n_cs, factor)
        grid.append(BandwidthCSPoint(
            n_cs=n_cs,
            bandwidth_factor=factor,
            edp_benefit=edp_benefit(workload, base, candidate),
        ))
    return tuple(grid)


def obs5_compute_bound_ratio(
    intensity_ops_per_bit: float = 16.0,
    base: DesignPoint | None = None,
    n_cs: int = 8,
    data_bits: float = 1e9,
) -> float:
    """Obs. 5, compute-bound example: EDP gain from doubling the CS count
    at unchanged per-CS bandwidth (the paper reports ~2.1x at 16 ops/bit)."""
    base = base if base is not None else reference_design_point()
    workload = Workload(compute_ops=intensity_ops_per_bit * data_bits,
                        data_bits=data_bits)
    reference = m3d_point(base, n_cs, 1.0)
    doubled = m3d_point(base, 2 * n_cs, 1.0)
    return (edp_benefit(workload, base, doubled)
            / edp_benefit(workload, base, reference))


def obs5_memory_bound_ratio(
    intensity_bits_per_op: float = 16.0,
    base: DesignPoint | None = None,
    n_cs: int = 8,
    compute_ops: float = 1e9,
) -> float:
    """Obs. 5, memory-bound example: EDP gain from halving the CS count but
    doubling per-CS bandwidth (the paper reports ~2.1x at 16 bits/op)."""
    base = base if base is not None else reference_design_point()
    workload = Workload(compute_ops=compute_ops,
                        data_bits=intensity_bits_per_op * compute_ops)
    reference = m3d_point(base, n_cs, 1.0)
    rebalanced = m3d_point(base, n_cs // 2, 2.0)
    return (edp_benefit(workload, base, rebalanced)
            / edp_benefit(workload, base, reference))
