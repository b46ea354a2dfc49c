"""Joint design-space exploration over the paper's four knobs.

Sections III-D/E/F study one knob at a time (FET width delta, via pitch
beta, tier pairs Y) around the capacity sweep of Obs. 6.  This module
declares the *joint* space: a full-factorial grid over
(capacity, delta, beta, Y) as a :class:`~repro.spec.sweep.SweepSpec`
(:func:`joint_grid_sweep`), whose every point equals
:func:`design_point_spec` for the same knobs.

The grid is evaluated like any other sweep, by
:func:`repro.sweep.stream.run_streaming_sweep`, which also maintains the
(footprint, EDP benefit) Pareto frontier — the "which chips are worth
building" view.  The engine content-hashes each ``evaluate_spec`` call,
so re-runs are served from the result cache, and resolution memoizes on
the spec's content fingerprint (see :mod:`repro.spec.resolve`).
"""

from __future__ import annotations

from typing import Iterable

from repro.spec.design import ArchSpec, DesignSpec, TechSpec, WorkloadSpec
from repro.spec.sweep import SweepSpec
from repro.units import MEGABYTE


def design_point_spec(
    capacity_bits: int,
    delta: float = 1.0,
    beta: float = 1.0,
    tier_pairs: int = 1,
) -> DesignSpec:
    """The :class:`DesignSpec` for one joint grid point.

    DSE compares against the re-optimized 2D baseline (Eq. 9), matching
    the single-knob Case 1/2 studies.
    """
    return DesignSpec(
        tech=TechSpec(delta=delta, beta=beta),
        arch=ArchSpec(capacity_bits=capacity_bits, tier_pairs=tier_pairs,
                      baseline="reoptimized"),
    )


def joint_grid_sweep(
    capacities_bits: Iterable[int] = (32 * MEGABYTE, 64 * MEGABYTE,
                                      128 * MEGABYTE),
    deltas: Iterable[float] = (1.0, 1.6, 2.0),
    betas: Iterable[float] = (1.0, 1.3),
    tier_pairs: Iterable[int] = (1, 2),
    workload: WorkloadSpec | None = None,
) -> SweepSpec:
    """The joint grid as a declarative :class:`SweepSpec`.

    Expansion order is capacity outermost, tier pairs innermost, and each
    expanded point equals :func:`design_point_spec` for the same knobs.
    """
    base = DesignSpec(arch=ArchSpec(baseline="reoptimized"),
                      workload=workload if workload is not None
                      else WorkloadSpec())
    return SweepSpec(base=base, grid={
        "arch.capacity_bits": tuple(capacities_bits),
        "tech.delta": tuple(deltas),
        "tech.beta": tuple(betas),
        "arch.tier_pairs": tuple(tier_pairs),
    })
