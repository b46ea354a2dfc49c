"""Weight-stationary systolic array configuration and tiling rules.

The case-study computing sub-system is a 16x16 systolic array of PEs using a
weight-stationary dataflow ([10]): a 16 (input-channel rows) x 16 (output-
channel columns) slab of weights is loaded, inputs stream through for the
whole output feature map, partial sums accumulate down the columns, then the
next (r, s) kernel position / channel tile is loaded.

The tiling arithmetic here is what the performance model consumes:

* ``k_tiles`` — output-channel tiles; also the layer's partitioning limit
  across parallel CSs (the paper's N#).  :func:`output_tiles` (and
  :func:`pool_tiles` for pooling layers) state that limit once, over the
  :class:`ArrayOps` op set, so the per-layer cost model
  (:mod:`repro.perf.layer_cost`) runs the same rule on numpy arrays.
* ``slab_count`` — total weight slabs streamed, including the first-layer
  optimization of packing C x R weight rows onto the array rows when the
  input-channel count is shallow (C < rows), which is what keeps the
  7x7 / 3-channel stem layer from wasting 13/16 of the array.
  :func:`row_packing` states that rule once, over :class:`ArrayOps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.errors import require
from repro.arch.pe import PEConfig, default_pe
from repro.workloads.layers import Layer, LayerKind


class ArrayOps(NamedTuple):
    """The element-wise ops the tiling rules and the per-layer cost model
    (:func:`repro.perf.layer_cost.layer_cost`) are written against."""

    maximum: Callable[[Any, Any], Any]
    minimum: Callable[[Any, Any], Any]
    where: Callable[[Any, Any, Any], Any]
    ceil: Callable[[Any], Any]


#: Plain-number ops over one (design, layer) pair.
scalar_ops = ArrayOps(
    maximum=max,
    minimum=min,
    where=lambda condition, then, otherwise: then if condition else otherwise,
    ceil=math.ceil,
)


def output_tiles(ops: ArrayOps, out_channels, groups, cols):
    """Output-channel tiles of a conv/FC layer on ``cols`` array columns:
    its partition limit N#.

    Grouped convolutions tile per group: a tile cannot mix output
    channels whose input channels differ.
    """
    return groups * ops.maximum(1, ops.ceil(out_channels / groups / cols))


def pool_tiles(ops: ArrayOps, out_channels, pool_lanes):
    """Channel tiles of a pooling layer on ``pool_lanes`` vector lanes:
    its partition limit across CSs."""
    return ops.maximum(1, ops.ceil(out_channels / pool_lanes))


def row_packing(ops: ArrayOps, enabled, is_conv, group_in, kernel, rows):
    """``(packs, row_tiles, passes)`` of a layer on ``rows`` array rows.

    A convolution whose per-group input channels are fewer than the rows
    (``group_in < rows``, ``kernel > 1``; the stem layer and every
    depthwise group) packs C x R weight rows onto the array rows when
    row packing is ``enabled``: ``row_tiles`` then covers C x R rows and
    the R dimension is spatial, leaving S ``passes`` per tile.  Otherwise
    a conv takes R x S passes and any other layer one.
    """
    packs = enabled & is_conv & (group_in < rows) & (kernel > 1)
    row_tiles = ops.where(packs,
                          ops.maximum(1, ops.ceil(group_in * kernel / rows)),
                          ops.maximum(1, ops.ceil(group_in / rows)))
    passes = ops.where(is_conv, ops.where(packs, kernel, kernel * kernel), 1)
    return packs, row_tiles, passes


@dataclass(frozen=True)
class SystolicArrayConfig:
    """A rows x cols weight-stationary systolic array.

    Attributes:
        rows: Input-channel dimension of the array.
        cols: Output-channel dimension of the array.
        pe: Processing element configuration.
        enable_row_packing: Apply the first-layer C x R row-packing mapping
            for shallow-channel convolutions (disable for ablation).
    """

    rows: int = 16
    cols: int = 16
    pe: PEConfig = default_pe()
    enable_row_packing: bool = True

    def __post_init__(self) -> None:
        require(self.rows >= 1, "rows must be >= 1")
        require(self.cols >= 1, "cols must be >= 1")

    @property
    def pe_count(self) -> int:
        """Total PEs in the array."""
        return self.rows * self.cols

    @property
    def peak_macs_per_cycle(self) -> int:
        """P_peak of one array: MACs per cycle at full utilization."""
        return self.pe_count

    @property
    def fill_drain_cycles(self) -> int:
        """Pipeline fill + drain overhead per weight slab."""
        return self.rows + self.cols

    def k_tiles(self, layer: Layer) -> int:
        """Output-channel tiles — the layer's partition limit N#
        (:func:`output_tiles`)."""
        return output_tiles(scalar_ops, layer.out_channels,
                            layer.channel_groups, self.cols)

    def _row_packing(self, layer: Layer) -> tuple:
        """:func:`row_packing` of ``layer`` on this array."""
        return row_packing(
            scalar_ops, self.enable_row_packing, layer.kind == LayerKind.CONV,
            layer.in_channels // layer.channel_groups, layer.kernel,
            self.rows)

    def uses_row_packing(self, layer: Layer) -> bool:
        """True when the shallow-channel C x R row-packing mapping applies
        (the stem layer, and every depthwise group)."""
        return self._row_packing(layer)[0]

    def row_tiles(self, layer: Layer) -> int:
        """Input-side tiles per output-channel tile (within one group)."""
        return self._row_packing(layer)[1]

    def kernel_passes(self, layer: Layer) -> int:
        """Weight-slab passes per (K-tile, row-tile) pair.

        Normally R * S kernel positions; with row packing the R dimension is
        spatial on the array, leaving S passes.
        """
        return self._row_packing(layer)[2]

    def slab_count(self, layer: Layer) -> int:
        """Total weight slabs streamed for the layer on one array."""
        return self.k_tiles(layer) * self.row_tiles(layer) * self.kernel_passes(layer)

    def stream_cycles_per_slab(self, layer: Layer) -> int:
        """Input-streaming cycles per slab (one per output pixel) + fill."""
        if layer.kind == LayerKind.FC:
            positions = 1
        else:
            positions = layer.out_size * layer.out_size
        return positions + self.fill_drain_cycles

    def weight_bits_per_slab(self) -> int:
        """Weight bits loaded per slab."""
        return self.pe_count * self.pe.precision_bits


def default_systolic_array() -> SystolicArrayConfig:
    """The case-study 16x16 weight-stationary array."""
    return SystolicArrayConfig()
