"""Vectorized Eqs. 1-8: the analytical framework over packed arrays.

:mod:`repro.core.framework` evaluates one (workload, design point) pair
per call; these functions evaluate whole sequences at once.  Sequences
broadcast like numpy: a length-1 sequence pairs with every element of
the longer one (Fig. 8's shape — one workload, one baseline, a grid of
candidates).  The math runs as numpy float64 arrays and agrees with the
scalar framework within 1e-9 (same formulas, same operation order —
only the max/min/floor ops turn elementwise).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.framework import DesignPoint, Workload
from repro.errors import require

__all__ = [
    "edp_benefit_batch",
    "energy_batch",
    "energy_benefit_batch",
    "execution_time_batch",
    "speedup_batch",
]


def _check_broadcast(*sequences: Sequence) -> None:
    """Require every sequence to share one length, or have length 1."""
    length = 1
    for sequence in sequences:
        size = len(sequence)
        require(size >= 1, "batch sequences must be non-empty")
        if length == 1:
            length = size
        else:
            require(size in (1, length),
                    f"cannot broadcast batch of {size} against {length}")


def _workload_columns(workloads: Sequence[Workload]):
    ops = np.array([w.compute_ops for w in workloads], dtype=np.float64)
    bits = np.array([w.data_bits for w in workloads], dtype=np.float64)
    partitions = np.array([w.max_partitions for w in workloads],
                          dtype=np.float64)
    return ops, bits, partitions


def _design_columns(designs: Sequence[DesignPoint]):
    return tuple(
        np.array([getattr(d, name) for d in designs], dtype=np.float64)
        for name in ("n_cs", "peak_ops_per_cycle", "bandwidth_bits_per_cycle",
                     "memory_energy_per_bit", "compute_energy_per_op",
                     "cs_idle_energy_per_cycle",
                     "memory_idle_energy_per_cycle"))


def _time_terms(workload_columns, design_columns):
    """(transfer, compute, total, n_max) arrays — Eqs. 1/4 vectorized."""
    ops, bits, partitions = workload_columns
    n_cs, peak, bandwidth = design_columns[:3]
    # int(min(N#, N)) truncates toward zero == floor for N >= 1.
    n_max = np.floor(np.minimum(partitions, n_cs))
    transfer = bits * n_cs / bandwidth
    compute = ops / (n_max * peak)
    return transfer, compute, np.maximum(transfer, compute), n_max


def execution_time_batch(workloads: Sequence[Workload],
                         designs: Sequence[DesignPoint]) -> "list[float]":
    """Eq. 1/4 over pairs; length-1 sequences broadcast."""
    _check_broadcast(workloads, designs)
    _, _, total, _ = _time_terms(_workload_columns(workloads),
                                 _design_columns(designs))
    return total.tolist()


def energy_batch(workloads: Sequence[Workload],
                 designs: Sequence[DesignPoint]) -> "list[float]":
    """Eq. 6/7 over pairs; length-1 sequences broadcast."""
    _check_broadcast(workloads, designs)
    workload_columns = _workload_columns(workloads)
    design_columns = _design_columns(designs)
    ops, bits, _ = workload_columns
    n_cs, _, _, alpha, per_op, cs_idle, memory_idle = design_columns
    transfer, compute, total, n_max = _time_terms(workload_columns,
                                                  design_columns)
    access = alpha * bits
    memory_stall = memory_idle * (total - transfer)
    unused_cs = (n_cs - n_max) * cs_idle * total
    stalled_cs = n_cs * cs_idle * (total - compute)
    ops_energy = per_op * ops
    return (access + memory_stall + unused_cs + stalled_cs
            + ops_energy).tolist()


def speedup_batch(workloads: Sequence[Workload],
                  baselines: Sequence[DesignPoint],
                  m3ds: Sequence[DesignPoint]) -> "list[float]":
    """Eq. 5 over triples; length-1 sequences broadcast."""
    _check_broadcast(workloads, baselines, m3ds)
    baseline_t = execution_time_batch(workloads, baselines)
    m3d_t = execution_time_batch(workloads, m3ds)
    return (np.array(baseline_t) / np.array(m3d_t)).tolist()


def energy_benefit_batch(workloads: Sequence[Workload],
                         baselines: Sequence[DesignPoint],
                         m3ds: Sequence[DesignPoint]) -> "list[float]":
    """E_2D / E_3D over triples; length-1 sequences broadcast."""
    _check_broadcast(workloads, baselines, m3ds)
    baseline_e = energy_batch(workloads, baselines)
    m3d_e = energy_batch(workloads, m3ds)
    return (np.array(baseline_e) / np.array(m3d_e)).tolist()


def edp_benefit_batch(workloads: Sequence[Workload],
                      baselines: Sequence[DesignPoint],
                      m3ds: Sequence[DesignPoint]) -> "list[float]":
    """Eq. 8 over triples: speedup x energy benefit, elementwise."""
    gains = speedup_batch(workloads, baselines, m3ds)
    savings = energy_benefit_batch(workloads, baselines, m3ds)
    return [gain * saving for gain, saving in zip(gains, savings)]
