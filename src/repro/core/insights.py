"""Design-space sweeps behind Obs. 5 and Obs. 6 (Figs. 8 and 9).

* :func:`sweep_bandwidth_vs_cs` — Fig. 8: EDP benefit over a grid of
  (per-design bandwidth, parallel CS count) for an abstract workload of a
  given arithmetic intensity.  Reproduces the Obs. 5 rules of thumb:
  compute-bound workloads want CSs, memory-bound workloads want bandwidth.
* :func:`sweep_rram_capacity` — Fig. 9: EDP benefit of the case-study M3D
  design as the baseline RRAM capacity scales from 12 MB to 128 MB with the
  DNN compute held fixed (ResNet-18).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import require
from repro.tech.pdk import PDK, foundry_m3d_pdk
from repro.arch.accelerator import baseline_2d_design
from repro.core.framework import DesignPoint, Workload, edp_benefit
from repro.perf.compare import compare_designs
from repro.perf.simulator import simulate
from repro.runtime.engine import EvaluationEngine, default_engine
from repro.runtime.serialize import from_jsonable, to_jsonable
from repro.spec.design import ArchSpec, DesignSpec
from repro.spec.resolve import ResolvedPoint, resolve
from repro.units import MEGABYTE
from repro.workloads.models import Network


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


@dataclass(frozen=True)
class CapacityPoint:
    """One Fig. 9 sweep point.

    Attributes:
        capacity_bits: Baseline on-chip RRAM capacity.
        n_cs: Parallel CSs the M3D design derives at this capacity (Eq. 2).
        speedup: Network speedup at this capacity.
        edp_benefit: Network EDP benefit at this capacity.
    """

    capacity_bits: int
    n_cs: int
    speedup: float
    edp_benefit: float

    @property
    def capacity_megabytes(self) -> float:
        """Capacity in MB for display."""
        return self.capacity_bits / MEGABYTE

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (used by the disk result cache)."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CapacityPoint":
        """Inverse of :meth:`to_dict`."""
        point = from_jsonable(data)
        require(isinstance(point, cls),
                f"expected a serialized {cls.__name__}")
        return point


def resolve_capacity_point(pdk: PDK | None, capacity_bits: int) -> ResolvedPoint:
    """The design pair for one Fig. 9 capacity (no simulation).

    A thin wrapper over :func:`repro.spec.resolve.resolve`, which memoizes
    on the spec's content fingerprint.
    """
    spec = DesignSpec(arch=ArchSpec(capacity_bits=capacity_bits))
    return resolve(spec, pdk)


def capacity_point(
    pdk: PDK,
    network: Network,
    capacity_bits: int,
) -> CapacityPoint:
    """Evaluate one Fig. 9 capacity point with the simulator pipeline."""
    point = resolve_capacity_point(pdk, capacity_bits)
    benefit = compare_designs(
        simulate(point.baseline, network, point.pdk),
        simulate(point.m3d, network, point.pdk),
    )
    return CapacityPoint(
        capacity_bits=capacity_bits,
        n_cs=point.n_cs_m3d,
        speedup=benefit.speedup,
        edp_benefit=benefit.edp_benefit,
    )


def sweep_rram_capacity(
    capacities_bits: tuple[int, ...] = tuple(
        mb * MEGABYTE for mb in (12, 16, 24, 32, 48, 64, 96, 128)),
    pdk: PDK | None = None,
    network: Network | None = None,
    engine: EvaluationEngine | None = None,
    jobs: int | None = None,
) -> tuple[CapacityPoint, ...]:
    """Fig. 9: benefit vs baseline RRAM capacity at fixed DNN compute.

    Larger baseline memories free more silicon under the arrays in M3D,
    admitting more parallel CSs (Obs. 6); the workload must fit at the
    smallest capacity (ResNet-18's ~12 M parameters at 12 MB).  The sweep
    is resolved up front through the spec layer and the resulting
    ``simulate`` calls dispatch through ``engine`` (default: the
    process-wide engine) in one deduplicated batch; ``jobs`` applies to
    this sweep only.
    """
    engine = engine if engine is not None else default_engine()
    points_resolved = [resolve_capacity_point(pdk, capacity)
                       for capacity in capacities_bits]
    sim_calls = []
    for point in points_resolved:
        workload = network if network is not None else point.network
        sim_calls.append({"design": point.baseline, "network": workload,
                          "pdk": point.pdk})
        sim_calls.append({"design": point.m3d, "network": workload,
                          "pdk": point.pdk})
    reports = engine.map(simulate, sim_calls, stage="insights.simulate",
                         jobs=jobs)
    points = []
    for index, (capacity, point) in enumerate(
            zip(capacities_bits, points_resolved)):
        benefit = compare_designs(reports[2 * index], reports[2 * index + 1])
        points.append(CapacityPoint(
            capacity_bits=capacity,
            n_cs=point.n_cs_m3d,
            speedup=benefit.speedup,
            edp_benefit=benefit.edp_benefit,
        ))
    return tuple(points)
