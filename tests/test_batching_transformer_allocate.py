"""Batched simulation, transformer workloads, and the silicon allocator."""

import pytest

from repro.errors import ConfigurationError
from repro.core.allocate import Allocation, optimize_freed_silicon
from repro.core.framework import Workload
from repro.core.insights import reference_design_point
from repro.experiments import run_experiment
from repro.perf.simulator import AcceleratorSimulator, simulate
from repro.units import MEGABYTE
from repro.workloads.layers import FCLayer
from repro.workloads.models import Network
from repro.workloads.transformer import (
    base_encoder,
    tiny_encoder,
    transformer_encoder,
)


# --- transformer workloads ------------------------------------------------------

def test_tiny_encoder_parameter_count():
    # 4 layers x (4 * 512^2 + 2 * 512 * 2048) = ~12.6 M
    assert tiny_encoder().total_weights == 4 * (4 * 512 ** 2 + 2 * 512 * 2048)


def test_base_encoder_is_bert_base_class():
    assert base_encoder().total_weights == pytest.approx(85e6, rel=0.01)


def test_encoder_layer_naming():
    net = transformer_encoder(layers=2, d_model=64, d_ff=256)
    names = [layer.name for layer in net.layers]
    assert "L0.Q" in names and "L1.FFN2" in names
    assert len(names) == 12


def test_encoder_all_fc():
    for layer in tiny_encoder().layers:
        assert isinstance(layer, FCLayer)


def test_encoder_rejects_zero_layers():
    with pytest.raises(ConfigurationError):
        transformer_encoder(layers=0)


# --- batched simulation ------------------------------------------------------------

@pytest.fixture(scope="module")
def fc_net():
    return Network(name="fc", layers=(
        FCLayer("FC", in_features=512, out_features=512),))


def test_batch_one_matches_default(pdk, m3d, fc_net):
    default = simulate(m3d, fc_net, pdk)
    explicit = simulate(m3d, fc_net, pdk, batch=1)
    assert default.cycles == explicit.cycles
    assert default.energy == explicit.energy


def test_batching_amortizes_fill(pdk, m3d, fc_net):
    """Per-token cycles drop with the batch (slab setup amortized)."""
    one = simulate(m3d, fc_net, pdk, batch=1)
    many = simulate(m3d, fc_net, pdk, batch=64)
    assert many.cycles / 64 < one.cycles / 4


def test_batching_sublinear_cycles(pdk, m3d, fc_net):
    """Total cycles grow sublinearly in the batch."""
    one = simulate(m3d, fc_net, pdk, batch=1)
    many = simulate(m3d, fc_net, pdk, batch=16)
    assert one.cycles < many.cycles < 16 * one.cycles


def test_batching_weight_energy_constant(pdk, m3d, fc_net):
    """Weight-read energy does not scale with the batch (the point of
    keeping weights stationary)."""
    read = m3d.bank_plan.array.cell.read_energy_per_bit
    weight_energy = fc_net.total_weights * 8 * read
    one = simulate(m3d, fc_net, pdk, batch=1).energy
    many = simulate(m3d, fc_net, pdk, batch=16).energy
    # Removing one copy of the (batch-independent) weight energy from both
    # still leaves 'many' under 16x 'one' only if weights were not scaled.
    assert many - weight_energy < 16 * (one - weight_energy)


def test_conv_batching_scales_stream(pdk, baseline, resnet18_network):
    one = simulate(baseline, resnet18_network, pdk, batch=1)
    two = simulate(baseline, resnet18_network, pdk, batch=2)
    assert two.cycles < 2 * one.cycles
    assert two.cycles > 1.5 * one.cycles


def test_invalid_batch_rejected(pdk, m3d):
    with pytest.raises(ConfigurationError):
        AcceleratorSimulator(m3d, pdk, batch=0)


def test_batching_study_rows(ctx):
    rows = run_experiment("ext-batching", ctx, batches=(1, 16),
                          capacity_bits=64 * MEGABYTE)
    assert rows[0].utilization_2d < 0.1
    assert rows[1].utilization_2d > 2 * rows[0].utilization_2d
    assert all(row.speedup > 6.0 for row in rows)


# --- silicon allocator ----------------------------------------------------------------

@pytest.fixture(scope="module")
def base_point():
    return reference_design_point()


def test_compute_bound_prefers_cs(base_point):
    result = optimize_freed_silicon(
        Workload(compute_ops=16e9, data_bits=1e9), base_point, 7.0)
    assert result.prefers_compute
    assert result.best.extra_cs >= 4


def test_memory_bound_prefers_channels(base_point):
    result = optimize_freed_silicon(
        Workload(compute_ops=1e9, data_bits=16e9), base_point, 7.0)
    assert not result.prefers_compute
    assert result.best.extra_cs == 0


def test_best_is_argmax(base_point):
    result = optimize_freed_silicon(
        Workload(compute_ops=4e9, data_bits=4e9), base_point, 4.0)
    assert result.best.edp_benefit == max(
        c.edp_benefit for c in result.candidates)


def test_zero_area_keeps_baseline(base_point):
    result = optimize_freed_silicon(
        Workload(compute_ops=1e9, data_bits=1e9), base_point, 0.0)
    assert result.best == Allocation(0, 0, pytest.approx(1.0))


def test_candidates_respect_budget(base_point):
    budget = 5.0
    result = optimize_freed_silicon(
        Workload(compute_ops=1e9, data_bits=1e9), base_point, budget,
        channel_area_cost=0.5)
    for candidate in result.candidates:
        assert candidate.extra_cs + 0.5 * candidate.extra_channels \
            <= budget + 1e-9


def test_more_area_never_worse(base_point):
    workload = Workload(compute_ops=8e9, data_bits=2e9)
    small = optimize_freed_silicon(workload, base_point, 3.0)
    large = optimize_freed_silicon(workload, base_point, 7.0)
    assert large.best.edp_benefit >= small.best.edp_benefit


def test_negative_area_rejected(base_point):
    with pytest.raises(ConfigurationError):
        optimize_freed_silicon(
            Workload(compute_ops=1e9, data_bits=1e9), base_point, -1.0)
