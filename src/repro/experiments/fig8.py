"""Fig. 8 / Obs. 5: EDP benefit over the (bandwidth x CS count) plane.

Two abstract workloads bracket the space the paper discusses:

* compute-bound — 16 operations per bit of memory traffic; adding CSs at
  unchanged per-CS bandwidth improves EDP (~2.1x for a doubling);
* memory-bound — 16 bits of traffic per operation; spending the freed
  silicon on bandwidth (memory peripherals) instead of CSs wins (~2.1x for
  halving CSs at doubled per-CS bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.insights import (
    BandwidthCSPoint,
    obs5_compute_bound_ratio,
    obs5_memory_bound_ratio,
    sweep_bandwidth_vs_cs,
)
from repro.experiments.registry import ExperimentContext, experiment
from repro.experiments.reporting import format_table, times


@dataclass(frozen=True)
class Fig8Result:
    """The Fig. 8 grids plus the two Obs. 5 headline ratios.

    Attributes:
        compute_bound: Grid for the 16 ops/bit workload.
        memory_bound: Grid for the 16 bits/op workload.
        compute_bound_doubling: EDP gain from 2x CSs (paper ~2.1x).
        memory_bound_rebalance: EDP gain from 2x per-CS bandwidth at half
            the CSs (paper ~2.1x).
    """

    compute_bound: tuple[BandwidthCSPoint, ...]
    memory_bound: tuple[BandwidthCSPoint, ...]
    compute_bound_doubling: float
    memory_bound_rebalance: float


def _grid_table(title: str, grid: tuple[BandwidthCSPoint, ...]) -> str:
    n_values = sorted({p.n_cs for p in grid})
    bw_values = sorted({p.bandwidth_factor for p in grid})
    lookup = {(p.n_cs, p.bandwidth_factor): p.edp_benefit for p in grid}
    rows = []
    for n_cs in n_values:
        rows.append([f"N={n_cs}"] + [
            times(lookup[(n_cs, bw)]) for bw in bw_values])
    headers = ["", *[f"B/CS x{bw:g}" for bw in bw_values]]
    return format_table(title, headers, rows)


def format_fig8(result: Fig8Result) -> str:
    """Render both grids and the headline Obs. 5 ratios."""
    parts = [
        _grid_table("Fig. 8a — EDP benefit vs 2D, compute-bound workload "
                    "(16 ops/bit)", result.compute_bound),
        "",
        _grid_table("Fig. 8b — EDP benefit vs 2D, memory-bound workload "
                    "(16 bits/op)", result.memory_bound),
        "",
        f"Obs. 5: compute-bound, 2x CSs at same per-CS bandwidth -> "
        f"{times(result.compute_bound_doubling)} better EDP (paper ~2.1x)",
        f"Obs. 5: memory-bound, half CSs at 2x per-CS bandwidth -> "
        f"{times(result.memory_bound_rebalance)} better EDP (paper ~2.1x)",
    ]
    return "\n".join(parts)


@experiment("fig8", "Fig. 8 / Obs. 5: bandwidth vs CS count",
            formatter=format_fig8)
def fig8_experiment(ctx: ExperimentContext) -> Fig8Result:
    """Both Fig. 8 grids and the Obs. 5 ratios.

    Fig. 8 is analytical (abstract workloads) — the context is unused.
    """
    return Fig8Result(
        compute_bound=sweep_bandwidth_vs_cs(intensity_ops_per_bit=16.0),
        memory_bound=sweep_bandwidth_vs_cs(intensity_ops_per_bit=1.0 / 16.0),
        compute_bound_doubling=obs5_compute_bound_ratio(),
        memory_bound_rebalance=obs5_memory_bound_ratio(),
    )
