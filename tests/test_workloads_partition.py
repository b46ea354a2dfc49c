"""Workload partitioning (the paper's N#).

A layer partitions along output-channel tiles:
:meth:`~repro.arch.systolic.SystolicArrayConfig.k_tiles` is its N#, and
the simulator spreads the tiles over min(N, N#) CSs, the busiest taking
ceil(N# / used) of them.
"""

import pytest

from repro.arch.systolic import SystolicArrayConfig, default_systolic_array
from repro.core.network_model import _layer_quantities
from repro.errors import ConfigurationError
from repro.perf.simulator import AcceleratorSimulator
from repro.workloads.layers import ConvLayer, FCLayer, PoolLayer
from repro.workloads.models import resnet18

k_tiles = default_systolic_array().k_tiles


def _conv(out_channels, in_channels=64, in_size=28):
    return ConvLayer("c", in_channels=in_channels, out_channels=out_channels,
                     kernel=3, stride=1, in_size=in_size, padding=1)


def _run(design, n_cs, layer, pdk):
    """The simulator's layer result on ``design`` rebuilt with ``n_cs``."""
    return AcceleratorSimulator(design.with_n_cs(n_cs), pdk).run_layer(layer)


def test_k_tiles_exact_multiple():
    assert k_tiles(_conv(128)) == 8


def test_k_tiles_rounds_up():
    assert k_tiles(_conv(100)) == 7


def test_k_tiles_minimum_one():
    assert k_tiles(_conv(8)) == 1


def test_resnet18_stage1_partitions_to_4():
    """K = 64 with a 16-wide array -> only 4 partitions: the reason the
    paper's Table I shows ~3.7x for stage-1 layers at N = 8."""
    layer = resnet18().layer("L1.0 CONV1")
    assert k_tiles(layer) == 4


def test_resnet18_stage4_partitions_to_32():
    layer = resnet18().layer("L4.1 CONV2")
    assert k_tiles(layer) == 32


def test_fc_partitions_along_outputs():
    fc = FCLayer("fc", in_features=512, out_features=1000)
    assert k_tiles(fc) == 63


def test_pool_partitions_along_channels(m3d):
    """Pooling has no weights: it partitions along channels over the
    vector lanes (16 per CS), so 64 channels use 4 of 8 CSs."""
    pool = PoolLayer("p", channels=64, kernel=3, stride=2, in_size=112)
    assert m3d.pool_lanes == 16
    n_max, _, _ = _layer_quantities(m3d, pool)
    assert n_max == 4


def test_partition_plan_uses_min_of_n_and_tiles(pdk, m3d):
    assert _run(m3d, 8, _conv(64), pdk).used_cs == 4


def test_partition_plan_all_cs_when_wide(pdk, m3d):
    """32 tiles on 8 CSs: all busy, 4 tiles each."""
    wide = _run(m3d, 8, _conv(512), pdk)
    assert wide.used_cs == 8
    assert wide.compute_cycles == 4 * _run(m3d, 8, _conv(128),
                                           pdk).compute_cycles


def test_partition_plan_ceil_imbalance(pdk, m3d):
    """17 tiles over 8 CSs: the busiest CS takes 3 tiles."""
    one_each = _run(m3d, 8, _conv(128), pdk).compute_cycles
    assert _run(m3d, 8, _conv(17 * 16), pdk).compute_cycles == 3 * one_each


def test_partition_plan_perfect_balance(pdk, m3d):
    """8 tiles over 8 CSs: exactly an eighth of the one-CS time."""
    spread = _run(m3d, 8, _conv(128), pdk).compute_cycles
    alone = _run(m3d, 1, _conv(128), pdk).compute_cycles
    assert spread * 8 == pytest.approx(alone)


def test_partition_plan_single_cs(pdk, m3d):
    """One CS runs every tile."""
    alone = _run(m3d, 1, _conv(512), pdk)
    assert alone.used_cs == 1
    assert alone.compute_cycles == 32 * _run(m3d, 1, _conv(16),
                                             pdk).compute_cycles


def test_partition_plan_rejects_zero_cs(m3d):
    with pytest.raises(ConfigurationError):
        m3d.with_n_cs(0)


def test_k_tiles_rejects_zero_columns():
    with pytest.raises(ConfigurationError):
        SystolicArrayConfig(cols=0)
