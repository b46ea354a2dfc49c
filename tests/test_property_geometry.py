"""Property-based tests on geometry: bit-cells, rectangles, partitions."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.arch.systolic import SystolicArrayConfig, scalar_ops
from repro.perf.layer_cost import layer_cost, layer_row
from repro.perf.simulator import design_row
from repro.physical.floorplan import Rect
from repro.tech.ilv import ILVModel
from repro.tech.node import NODE_130NM
from repro.tech.rram import RRAMArray, default_rram_cell
from repro.workloads.layers import ConvLayer

rects = st.builds(
    Rect,
    x=st.floats(min_value=-1e3, max_value=1e3),
    y=st.floats(min_value=-1e3, max_value=1e3),
    width=st.floats(min_value=1e-6, max_value=1e3),
    height=st.floats(min_value=1e-6, max_value=1e3),
)


@given(rects, rects)
def test_overlap_is_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(rects)
def test_rect_overlaps_itself(rect):
    assert rect.overlaps(rect)


@given(rects)
def test_rect_contains_itself(rect):
    assert rect.contains(rect)


@given(rects, rects)
def test_containment_implies_overlap(a, b):
    if a.contains(b) and b.width > 1e-3 and b.height > 1e-3:
        assert a.overlaps(b)


@given(st.floats(min_value=1.0, max_value=10.0),
       st.floats(min_value=1.0, max_value=10.0))
def test_cell_area_monotone_in_delta(d1, d2):
    cell = default_rram_cell(NODE_130NM)
    lo, hi = sorted((d1, d2))
    assert cell.with_access_width_factor(lo).area(None) \
        <= cell.with_access_width_factor(hi).area(None) + 1e-30


@given(st.floats(min_value=1e-8, max_value=1e-5),
       st.floats(min_value=1.0, max_value=10.0))
def test_cell_area_monotone_in_pitch(pitch, factor):
    cell = default_rram_cell(NODE_130NM)
    fine = ILVModel(pitch=pitch)
    coarse = fine.scaled(factor)
    assert cell.area(fine) <= cell.area(coarse) + 1e-30


@given(st.integers(min_value=1, max_value=int(1e9)))
def test_array_area_linear_in_bits(bits):
    cell = default_rram_cell(NODE_130NM)
    one = RRAMArray(cell=cell, capacity_bits=1).area
    many = RRAMArray(cell=cell, capacity_bits=bits).area
    assert math.isclose(many, bits * one, rel_tol=1e-9)


conv_layers = st.builds(
    ConvLayer,
    name=st.just("c"),
    in_channels=st.integers(min_value=1, max_value=512),
    out_channels=st.integers(min_value=1, max_value=512),
    kernel=st.sampled_from([1, 3, 5, 7]),
    stride=st.sampled_from([1, 2]),
    in_size=st.integers(min_value=8, max_value=224),
    padding=st.integers(min_value=0, max_value=3),
)


@given(conv_layers)
def test_conv_macs_identity(layer):
    assert layer.macs == layer.weights * layer.out_size ** 2


@given(conv_layers)
def test_conv_out_size_bounds(layer):
    assert 1 <= layer.out_size <= layer.in_size + 2 * layer.padding


def _partition(layer, n_cs, columns):
    """(used CSs, busiest CS's compute cycles) in the cost model, for
    ``n_cs`` CSs with ``columns``-wide arrays and a private 256-bit
    weight channel each."""
    row = design_row(n_cs, 256 * n_cs, 8, 0.0,
                     SystolicArrayConfig(cols=columns), 0.0, 0.0, 1)
    used, compute, *_ = layer_cost(scalar_ops, row, layer_row(layer))
    return used, compute


@given(conv_layers, st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=64))
def test_partition_plan_invariants(layer, n_cs, columns):
    tiles = SystolicArrayConfig(cols=columns).k_tiles(layer)
    used, compute = _partition(layer, n_cs, columns)
    assert used == min(n_cs, tiles)
    # The busiest CS covers its share: per-CS load x used >= total load.
    _, alone = _partition(layer, 1, columns)
    assert compute * used >= alone * (1 - 1e-12)
    assert compute <= alone


@given(conv_layers, st.integers(min_value=1, max_value=32),
       st.integers(min_value=1, max_value=32))
def test_more_cs_never_increases_per_cs_load(layer, n_cs, columns):
    _, small = _partition(layer, n_cs, columns)
    _, large = _partition(layer, n_cs + 1, columns)
    assert large <= small
