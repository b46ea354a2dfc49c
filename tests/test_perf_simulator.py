"""Cycle-level simulator behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.perf.simulator import AcceleratorSimulator, simulate
from repro.workloads.layers import FCLayer
from repro.workloads.models import Network, resnet18, vgg16


@pytest.fixture(scope="module")
def base_report(pdk, baseline, resnet18_network):
    return simulate(baseline, resnet18_network, pdk)


@pytest.fixture(scope="module")
def m3d_report(pdk, m3d, resnet18_network):
    return simulate(m3d, resnet18_network, pdk)


def test_report_covers_all_layers(base_report, resnet18_network):
    assert len(base_report.layers) == len(resnet18_network.layers)


def test_cycles_positive(base_report):
    for layer in base_report.layers:
        assert layer.cycles > 0


def test_baseline_uses_single_cs(base_report):
    for layer in base_report.layers:
        assert layer.used_cs == 1


def test_m3d_partitioning_caps_at_k_tiles(m3d_report):
    assert m3d_report.layer_result("L1.0 CONV1").used_cs == 4
    assert m3d_report.layer_result("L3.0 CONV2").used_cs == 8


def test_stem_row_packing_reduces_slabs(base_report, resnet18_network):
    """CONV1 (C=3) must not pay for 16-row slabs per kernel position."""
    stem = base_report.layer_result("CONV1")
    # 4 K-tiles x 2 packed row-tiles x 7 S-passes x (112^2 + 32) streaming.
    expected = 4 * 2 * 7 * (112 * 112 + 32)
    assert stem.compute_cycles == pytest.approx(expected)


def test_writeback_shared_not_parallelized(base_report, m3d_report):
    for name in ("L2.0 CONV2", "L4.1 CONV2"):
        assert (m3d_report.layer_result(name).writeback_cycles
                == pytest.approx(base_report.layer_result(name).writeback_cycles))


def test_l2_conv2_cycles_closed_form(base_report, baseline):
    """T = slabs * (OXOY + fill) + outputs / bus."""
    result = base_report.layer_result("L2.0 CONV2")
    slabs = 8 * 8 * 9
    expected = slabs * (784 + 32) + 128 * 784 * 8 / 128
    assert result.cycles == pytest.approx(expected)


def test_fc_weight_load_bound(pdk, baseline):
    """A huge FC layer on one CS is limited by weight streaming."""
    fc = FCLayer("FC", in_features=9216, out_features=4096)
    net = Network(name="fc_only", layers=(fc,))
    report = simulate(baseline, net, pdk)
    # Weight-load per slab (2048 bits / 256 bits-per-cycle = 8) is below
    # the 33-cycle fill-bound stream: the layer is fill-bound, not
    # bandwidth-bound, on a 256-bit channel.
    slabs = 256 * 576
    assert report.layers[0].compute_cycles == pytest.approx(slabs * 33)


def test_shared_channel_slows_weight_load(pdk, baseline):
    """A 4-CS 2D design shares the single 256-bit weight channel."""
    four_cs = baseline.with_n_cs(4)
    sim = AcceleratorSimulator(four_cs, pdk)
    fc = FCLayer("FC", in_features=4096, out_features=4096)
    result = sim.run_layer(fc)
    assert result.used_cs == 4
    # Per-CS channel is 64 bits -> 32 cycles per slab load, close to the
    # 33-cycle stream; the max() keeps streaming dominant (33).
    slabs_per_cs = 64 * 256
    assert result.compute_cycles == pytest.approx(slabs_per_cs * 33)


def test_pool_partitioned_across_cs(base_report, m3d_report):
    pool_2d = base_report.layer_result("POOL")
    pool_3d = m3d_report.layer_result("POOL")
    assert pool_3d.used_cs == 4  # 64 channels / 16 lanes
    assert pool_3d.compute_cycles == pytest.approx(pool_2d.compute_cycles / 4)


def test_energy_components_positive(base_report):
    for layer in base_report.layers:
        assert layer.dynamic_energy > 0
        assert layer.leakage_energy >= 0


def test_dynamic_energy_equal_across_designs(base_report, m3d_report):
    """Compute + weight-read energy is work-proportional, so dynamic energy
    differs only by the output-broadcast term (small)."""
    e2 = sum(l.dynamic_energy for l in base_report.layers)
    e3 = sum(l.dynamic_energy for l in m3d_report.layers)
    assert e3 == pytest.approx(e2, rel=0.05)


def test_m3d_static_power_higher(pdk, baseline, m3d):
    sim2 = AcceleratorSimulator(baseline, pdk)
    sim3 = AcceleratorSimulator(m3d, pdk)
    assert sim3.static_power > sim2.static_power


def test_report_totals_consistent(base_report):
    assert base_report.cycles == pytest.approx(
        sum(l.cycles for l in base_report.layers))
    assert base_report.energy == pytest.approx(
        sum(l.energy for l in base_report.layers))


def test_runtime_uses_cycle_time(base_report, baseline):
    assert base_report.runtime == pytest.approx(
        base_report.cycles * baseline.cycle_time)


def test_edp_product(base_report):
    assert base_report.edp == pytest.approx(
        base_report.energy * base_report.runtime)


def test_average_power_sane(base_report):
    """A 130 nm edge accelerator at 20 MHz burns milliwatts, not watts."""
    assert 1e-4 < base_report.average_power < 1.0


def test_oversized_network_rejected(pdk, baseline):
    with pytest.raises(ConfigurationError, match="do not fit"):
        simulate(baseline, vgg16(), pdk)


def test_layer_result_unknown_raises(base_report):
    with pytest.raises(KeyError):
        base_report.layer_result("L9.9")
