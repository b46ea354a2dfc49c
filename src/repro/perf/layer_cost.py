"""The per-layer cost model: one formula for the simulator and the batch kernel.

:func:`layer_cost` prices one layer on one design — systolic tiling, the
weight-load vs streaming max, the shared writeback bus, and dynamic plus
leakage energy (see :mod:`repro.perf.simulator` for the model).  Its
inputs are two flat rows: a :class:`DesignRow` holding every scalar the
model reads from a design, and a :class:`LayerRow` holding every scalar
it reads from a layer.  The formula is written against the tiny op set
of :class:`~repro.arch.systolic.ArrayOps` (defined beside the tiling
rules it shares with the scalar architecture code: N# and the pool-lane
limit), so the same body runs in two ways:

* with :data:`~repro.arch.systolic.scalar_ops` on one (design, layer) pair of plain numbers —
  :meth:`AcceleratorSimulator.run_layer
  <repro.perf.simulator.AcceleratorSimulator.run_layer>`;
* with numpy ops on broadcast arrays, one row per design and one column
  per layer — the batch kernel's numpy path (:mod:`repro.batch.kernel`),
  which builds its op set beside its numpy import so the scalar path
  never loads numpy.  The kernel's other path runs the scalar ops
  through the simulator's layer memo.

``where`` replaces control flow and evaluates both branches in either
mode; every branch is total (no division by zero on the untaken side).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from repro.arch.systolic import (
    ArrayOps,
    output_tiles,
    pool_tiles,
    row_packing,
)
from repro.tech.constants import SRAM_ENERGY_PER_BIT, WIRE_ENERGY_PER_BIT_MM
from repro.workloads.layers import Layer, LayerKind

__all__ = [
    "DesignRow",
    "LayerRow",
    "WRITEBACK_WIRE_LENGTH",
    "layer_cost",
    "layer_row",
]

#: Average on-chip distance for writeback-bus transfers, metres.
WRITEBACK_WIRE_LENGTH = 5e-3

_WIRE_MM = WRITEBACK_WIRE_LENGTH / 1e-3


class DesignRow(NamedTuple):
    """One design as a flat parameter row — the batch matrix schema.

    Every field is a scalar the per-layer cost model reads, and nothing
    else, so two equal rows are interchangeable: the row is the
    simulator's layer-memo fingerprint, and stacked rows form the batch
    kernel's design matrix.

    Attributes:
        n_cs: Parallel CS count N.
        bandwidth_bits: Total weight-read bandwidth, bits/cycle.
        precision_bits: Operand precision.
        read_energy: RRAM read energy, J/bit.
        mac_energy: PE MAC energy, J/op.
        static_power: Chip static power, W.
        cycle_time: Clock period, s.
        rows: Systolic-array input-channel dimension.
        cols: Systolic-array output-channel dimension.
        fill_cycles: Pipeline fill+drain cycles per slab.
        weight_bits_per_slab: Weight bits loaded per slab.
        pool_lanes: Post-processing vector lanes per CS.
        bus_bits: Shared writeback bus width, bits/cycle.
        row_packing: Shallow-channel row-packing mapping enabled.
        batch: Inference batch size.
    """

    n_cs: int
    bandwidth_bits: int
    precision_bits: int
    read_energy: float
    mac_energy: float
    static_power: float
    cycle_time: float
    rows: int
    cols: int
    fill_cycles: int
    weight_bits_per_slab: int
    pool_lanes: int
    bus_bits: int
    row_packing: bool
    batch: int


class LayerRow(NamedTuple):
    """One workload layer as a feature row (one column per layer).

    Attributes:
        is_pool: Pooling layer (vector-unit timing path).
        is_conv: Convolution (kernel passes / row packing apply).
        positions: Output positions streamed per slab (1 for FC).
        out_channels: Output channels K.
        kernel: Square kernel size.
        groups: Channel groups.
        group_in: Input channels per group.
        macs: MAC count.
        weights: Weight count.
        output_elements: Output feature-map elements.
    """

    is_pool: bool
    is_conv: bool
    positions: int
    out_channels: int
    kernel: int
    groups: int
    group_in: int
    macs: int
    weights: int
    output_elements: int


@lru_cache(maxsize=4096)
def layer_row(layer: Layer) -> LayerRow:
    """The features of ``layer`` the cost model reads (cached per layer:
    every design a network runs on reads the same rows)."""
    kind = layer.kind
    positions = 1 if kind == LayerKind.FC else layer.out_size * layer.out_size
    groups = layer.channel_groups
    return LayerRow(
        is_pool=kind == LayerKind.POOL,
        is_conv=kind == LayerKind.CONV,
        positions=positions,
        out_channels=layer.out_channels,
        kernel=layer.kernel,
        groups=groups,
        group_in=layer.in_channels // groups,
        macs=layer.macs,
        weights=layer.weights,
        output_elements=layer.output_elements,
    )


def layer_cost(ops: ArrayOps, d, f):
    """``(used_cs, compute, writeback, cycles, dynamic, leakage)`` of
    design x layer pairs.

    ``d`` carries :class:`DesignRow` fields and ``f`` carries
    :class:`LayerRow` fields: plain numbers with :data:`scalar_ops`, or
    broadcastable vectors with numpy ops (``d.*`` (R, 1), ``f.*`` (1, L),
    every result (R, L)).  ``compute`` is the parallelized per-CS
    critical path, ``writeback`` the serial shared-bus term, ``cycles``
    their sum; energies are in joules.
    """
    # Timing: a conv/FC layer tiles into weight slabs on each CS's
    # systolic array, partitioned across min(N, K-tiles) CSs.
    k_tiles = output_tiles(ops, f.out_channels, f.groups, d.cols)
    _, row_tiles, passes = row_packing(ops, d.row_packing, f.is_conv,
                                       f.group_in, f.kernel, d.rows)
    conv_used = ops.minimum(d.n_cs, k_tiles)
    slabs_per_cs = ops.ceil(k_tiles / conv_used) * row_tiles * passes
    stream = f.positions * d.batch + d.fill_cycles
    # Each CS's weight channel: private bank in M3D, a share of the
    # single channel in (possibly enlarged, Case 1) 2D baselines.  Slab
    # loads are double-buffered, so they cost time only past streaming.
    channel_bits = d.bandwidth_bits / d.n_cs
    weight_load = d.weight_bits_per_slab / channel_bits
    per_slab = ops.maximum(stream, weight_load)
    conv_compute = slabs_per_cs * per_slab
    # Timing: pooling on the per-CS vector lanes, channel-partitioned.
    pool_used = ops.minimum(d.n_cs,
                            pool_tiles(ops, f.out_channels, d.pool_lanes))
    pool_compute = f.macs * d.batch / d.pool_lanes / pool_used
    used_cs = ops.where(f.is_pool, pool_used, conv_used)
    compute = ops.where(f.is_pool, pool_compute, conv_compute)
    writeback = f.output_elements * d.batch * d.precision_bits / d.bus_bits
    cycles = compute + writeback
    # Energy.  Weight slabs are loaded once regardless of the batch size.
    compute_e = f.macs * d.batch * d.mac_energy
    weights_e = f.weights * d.precision_bits * d.read_energy
    # Input streaming: `rows` operands enter each array per cycle while
    # `rows * cols` MACs retire, so SRAM read traffic is macs / cols.
    input_reads = f.macs * d.batch / d.cols
    inputs_e = input_reads * d.precision_bits * SRAM_ENERGY_PER_BIT
    # Outputs: one SRAM write at the producer, a bus transfer, and one
    # SRAM write into each consumer CS's input buffer.
    output_bits = f.output_elements * d.batch * d.precision_bits
    wire_e = output_bits * WIRE_ENERGY_PER_BIT_MM * _WIRE_MM
    outputs_e = output_bits * SRAM_ENERGY_PER_BIT * (1 + d.n_cs)
    dynamic = compute_e + weights_e + inputs_e + outputs_e + wire_e
    # Idle CSs keep leaking over the whole layer.
    leakage = d.static_power * cycles * d.cycle_time
    return used_cs, compute, writeback, cycles, dynamic, leakage
