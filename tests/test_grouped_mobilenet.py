"""Grouped/depthwise convolutions and MobileNetV1."""

import pytest

from repro.errors import ConfigurationError
from repro.arch.systolic import default_systolic_array
from repro.mapper.loopnest import loop_nest_of
from repro.perf import compare_designs, simulate
from repro.perf.tilesim import tile_simulate
from repro.workloads.layers import ConvLayer
from repro.workloads.models import build_network, mobilenet_v1


def _depthwise(channels=64, in_size=28):
    return ConvLayer("dw", in_channels=channels, out_channels=channels,
                     kernel=3, stride=1, in_size=in_size, padding=1,
                     groups=channels)


def test_depthwise_weights():
    layer = _depthwise(64)
    assert layer.weights == 64 * 9  # one 3x3 filter per channel


def test_depthwise_macs():
    layer = _depthwise(64, in_size=28)
    assert layer.macs == 64 * 9 * 28 * 28


def test_grouped_conv_weights():
    layer = ConvLayer("g", in_channels=64, out_channels=128, kernel=3,
                      stride=1, in_size=28, padding=1, groups=4)
    assert layer.weights == 128 * 16 * 9


def test_groups_must_divide_channels():
    with pytest.raises(ConfigurationError):
        ConvLayer("bad", in_channels=64, out_channels=100, kernel=3,
                  stride=1, in_size=28, padding=1, groups=8)


def test_dense_layer_groups_default():
    layer = ConvLayer("d", in_channels=64, out_channels=64, kernel=3,
                      stride=1, in_size=28, padding=1)
    assert layer.channel_groups == 1


def test_depthwise_tiles_per_group():
    """Each depthwise group is its own tile: N# = channel count."""
    layer = _depthwise(512)
    assert default_systolic_array().k_tiles(layer) == 512


def test_depthwise_row_packing_applies():
    array = default_systolic_array()
    layer = _depthwise(64)
    assert array.uses_row_packing(layer)  # C_g = 1 < 16 rows
    assert array.row_tiles(layer) == 1
    assert array.kernel_passes(layer) == 3


def test_depthwise_slab_count():
    array = default_systolic_array()
    layer = _depthwise(64)
    assert array.slab_count(layer) == 64 * 1 * 3


def test_mapper_rejects_grouped():
    with pytest.raises(ConfigurationError, match="dense convolutions"):
        loop_nest_of(_depthwise())


def test_mobilenet_parameter_count():
    assert mobilenet_v1().total_weights == pytest.approx(4.2e6, rel=0.02)


def test_mobilenet_registered():
    assert build_network("mobilenet_v1").name == "mobilenet_v1"


def test_mobilenet_block_structure():
    net = mobilenet_v1()
    dw = net.layer("B7.DW")
    pw = net.layer("B7.PW")
    assert dw.channel_groups == dw.in_channels == 512
    assert pw.channel_groups == 1
    assert pw.kernel == 1


def test_mobilenet_m3d_benefit(pdk, baseline, m3d):
    """The M3D benefit survives the depthwise-hostile workload."""
    net = mobilenet_v1()
    benefit = compare_designs(
        simulate(baseline, net, pdk), simulate(m3d, net, pdk))
    assert 5.0 < benefit.edp_benefit < 8.0


def test_mobilenet_depthwise_parallelizes_fully(pdk, m3d):
    """512 groups -> every CS busy even though each tile is tiny."""
    report = simulate(m3d, mobilenet_v1(), pdk)
    assert report.layer_result("B7.DW").used_cs == m3d.n_cs


def test_mobilenet_event_sim_agreement_2d(pdk, baseline):
    net = mobilenet_v1()
    closed = simulate(baseline, net, pdk).cycles
    event = tile_simulate(baseline, net, pdk).cycles
    assert event == pytest.approx(closed, rel=0.02)


def test_mobilenet_event_sim_never_slower_m3d(pdk, m3d):
    """Tiny depthwise drains pipeline across CSs: the event model may run
    up to ~10% under the additive closed form, never over it."""
    net = mobilenet_v1()
    closed = simulate(m3d, net, pdk).cycles
    event = tile_simulate(m3d, net, pdk).cycles
    assert event <= closed * 1.001
    assert event == pytest.approx(closed, rel=0.12)
