"""Vectorized Eqs. 1-8: agreement with the scalar framework."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.analytical import (
    edp_benefit_batch,
    energy_batch,
    energy_benefit_batch,
    execution_time_batch,
    speedup_batch,
)
from repro.core.framework import (
    DesignPoint,
    Workload,
    edp_benefit,
    energy,
    energy_benefit,
    execution_time,
    speedup,
)
from repro.core.insights import sweep_bandwidth_vs_cs
from repro.errors import ConfigurationError

REL = 1e-9

_FLOATS = st.floats(min_value=1e-3, max_value=1e9,
                    allow_nan=False, allow_infinity=False)

_WORKLOADS = st.builds(
    Workload,
    compute_ops=_FLOATS,
    data_bits=_FLOATS,
    max_partitions=st.floats(min_value=1.0, max_value=1e6,
                             allow_nan=False, allow_infinity=False),
)

_DESIGNS = st.builds(
    DesignPoint,
    n_cs=st.integers(min_value=1, max_value=64),
    peak_ops_per_cycle=_FLOATS,
    bandwidth_bits_per_cycle=_FLOATS,
    memory_energy_per_bit=_FLOATS,
    compute_energy_per_op=_FLOATS,
    cs_idle_energy_per_cycle=_FLOATS,
    memory_idle_energy_per_cycle=_FLOATS,
)


@settings(max_examples=60, deadline=None)
@given(workloads=st.lists(_WORKLOADS, min_size=1, max_size=8),
       designs=st.lists(_DESIGNS, min_size=1, max_size=8))
def test_time_and_energy_parity(workloads, designs):
    if len(workloads) != len(designs):
        # Exercise broadcasting instead: one of the two is length 1.
        workloads = workloads[:1]
    times = execution_time_batch(workloads, designs)
    energies = energy_batch(workloads, designs)
    assert len(times) == len(energies) == len(designs)
    for i, design in enumerate(designs):
        workload = workloads[0] if len(workloads) == 1 else workloads[i]
        assert times[i] == pytest.approx(
            execution_time(workload, design), rel=REL)
        assert energies[i] == pytest.approx(energy(workload, design), rel=REL)


@settings(max_examples=40, deadline=None)
@given(workload=_WORKLOADS, baseline=_DESIGNS,
       m3ds=st.lists(_DESIGNS, min_size=1, max_size=8))
def test_benefit_parity(workload, baseline, m3ds):
    gains = speedup_batch([workload], [baseline], m3ds)
    savings = energy_benefit_batch([workload], [baseline], m3ds)
    edps = edp_benefit_batch([workload], [baseline], m3ds)
    for i, m3d in enumerate(m3ds):
        assert gains[i] == pytest.approx(
            speedup(workload, baseline, m3d), rel=REL)
        assert savings[i] == pytest.approx(
            energy_benefit(workload, baseline, m3d), rel=REL)
        assert edps[i] == pytest.approx(
            edp_benefit(workload, baseline, m3d), rel=REL)


def test_broadcast_rejects_incompatible_lengths():
    workload = Workload(compute_ops=1e9, data_bits=1e9)
    design = DesignPoint(
        n_cs=1, peak_ops_per_cycle=512, bandwidth_bits_per_cycle=256,
        memory_energy_per_bit=1e-12, compute_energy_per_op=1e-13,
        cs_idle_energy_per_cycle=1e-11, memory_idle_energy_per_cycle=1e-11)
    with pytest.raises(ConfigurationError, match="broadcast"):
        execution_time_batch([workload] * 2, [design] * 3)
    with pytest.raises(ConfigurationError, match="non-empty"):
        execution_time_batch([], [design])


def test_fig8_sweep_batch_matches_scalar():
    scalar = sweep_bandwidth_vs_cs(16.0)
    batched = sweep_bandwidth_vs_cs(16.0, batch=True)
    assert len(batched) == len(scalar) == 25
    for b, s in zip(batched, scalar):
        assert (b.n_cs, b.bandwidth_factor) == (s.n_cs, s.bandwidth_factor)
        assert b.edp_benefit == pytest.approx(s.edp_benefit, rel=REL)
