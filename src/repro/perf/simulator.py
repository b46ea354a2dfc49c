"""Layer-by-layer execution model for the case-study accelerator.

Timing model (validated against the paper's Table I, see DESIGN.md Sec. 5):

* A conv/FC layer is tiled into weight slabs on each CS's systolic array;
  each slab streams the output feature map plus a pipeline fill/drain
  overhead; slab weight loading is double-buffered and only costs time when
  it exceeds the streaming time (which makes FC layers weight-load-bound).
* Across CSs the layer partitions along output-channel tiles: with N CSs
  and Kt tiles, min(N, Kt) CSs are used (the paper's N_max = min(N, N#)).
* Output writeback shares a single chip-level bus in both designs, so it
  does **not** parallelize — this serial term is why the paper's per-layer
  speedups saturate below N (e.g. 7.8x, not 8x, for ResNet-18 stage 4).
* Pooling runs on the per-CS post-processing vector units, partitioned
  channel-wise.

Energy model (Eqs. 6-7 structure): compute energy per MAC, RRAM weight-read
energy per bit, SRAM streaming energy per bit, output writeback (SRAM +
bus wire), and leakage of every CS and the memory peripherals over the
layer's runtime — idle CSs keep leaking, which is how the M3D energy stays
~1.0x the 2D baseline's despite the 5.7x shorter runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import require
from repro.obs.trace import span as _span
from repro.tech.pdk import PDK, foundry_m3d_pdk
from repro.arch.accelerator import (
    DEFAULT_FREQUENCY_HZ,
    DEFAULT_POOL_LANES,
    DEFAULT_WRITEBACK_BUS_BITS,
    AcceleratorDesign,
    peripheral_leakage,
)
from repro.arch.systolic import SystolicArrayConfig, scalar_ops
from repro.runtime.cache import MISSING
from repro.runtime.memo import memo_table
from repro.perf.layer_cost import DesignRow, layer_cost, layer_row, ordered_sum
from repro.workloads.layers import Layer, shape_key
from repro.workloads.models import Network

#: Layer-level memo: (design row, layer shape) -> numeric results.
_LAYER_MEMO = memo_table("simulator.layer")


@dataclass(frozen=True)
class LayerExecution:
    """Result of executing one layer on one design.

    Attributes:
        layer: The executed layer.
        used_cs: CSs actually used, min(N, N#).
        compute_cycles: Parallelized compute/streaming cycles (per-CS
            critical path).
        writeback_cycles: Serial shared-bus output writeback cycles.
        cycles: Total layer latency in cycles.
        dynamic_energy: Dynamic energy in joules.
        leakage_energy: Static energy over the layer's runtime in joules.
    """

    layer: Layer
    used_cs: int
    compute_cycles: float
    writeback_cycles: float
    cycles: float
    dynamic_energy: float
    leakage_energy: float

    @property
    def energy(self) -> float:
        """Total layer energy in joules."""
        return self.dynamic_energy + self.leakage_energy


@dataclass(frozen=True)
class ExecutionReport:
    """Result of executing a full network on one design.

    Attributes:
        design: The design executed on.
        network: The workload.
        layers: Per-layer execution results, in order.
    """

    design: AcceleratorDesign
    network: Network
    layers: tuple[LayerExecution, ...] = field(default_factory=tuple)

    @property
    def cycles(self) -> float:
        """Total cycles for one inference."""
        return ordered_sum(item.cycles for item in self.layers)

    @property
    def runtime(self) -> float:
        """Total runtime in seconds."""
        return self.cycles * self.design.cycle_time

    @property
    def energy(self) -> float:
        """Total energy in joules."""
        return ordered_sum(item.energy for item in self.layers)

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.energy * self.runtime

    @property
    def average_power(self) -> float:
        """Average power in watts."""
        return self.energy / self.runtime

    def layer_result(self, name: str) -> LayerExecution:
        """Look up a per-layer result by layer name."""
        for item in self.layers:
            if item.layer.name == name:
                return item
        raise KeyError(f"no layer named {name!r} in report")


def design_row(
    n_cs: int,
    bandwidth_bits: int,
    precision_bits: int,
    read_energy: float,
    array: SystolicArrayConfig,
    cs_leakage: float,
    peripheral_leakage: float,
    batch: int,
    cycle_time: float = 1.0 / DEFAULT_FREQUENCY_HZ,
    pool_lanes: int = DEFAULT_POOL_LANES,
    bus_bits: int = DEFAULT_WRITEBACK_BUS_BITS,
) -> DesignRow:
    """The :class:`~repro.perf.layer_cost.DesignRow` of one design.

    The row stage of design construction, shared by
    :class:`AcceleratorSimulator` and the batch packer.  Chip static
    power is every CS's leakage plus the memory peripherals'
    (``cs_leakage`` is one CS's).
    """
    # Positional construction (field order of the NamedTuple): a kwargs
    # call costs ~30% of batch pack time at scale.
    return DesignRow(
        n_cs, bandwidth_bits, precision_bits, read_energy,
        array.pe.mac_energy, n_cs * cs_leakage + peripheral_leakage,
        cycle_time, array.rows, array.cols, array.fill_drain_cycles,
        array.weight_bits_per_slab(), pool_lanes, bus_bits,
        array.enable_row_packing, batch)


def row_layer_cost(row: DesignRow, layer: Layer) -> tuple:
    """:func:`~repro.perf.layer_cost.layer_cost` of one design row on one
    layer with scalar ops, memoized on ``(row, layer shape)`` — equal
    rows are interchangeable whichever design (or relaxation of one, see
    :func:`repro.sweep.bounds.relaxed_rows`) they came from."""
    key = (row, shape_key(layer))
    costs = _LAYER_MEMO.get(key)
    if costs is MISSING:
        costs = layer_cost(scalar_ops, row, layer_row(layer))
        _LAYER_MEMO.put(key, costs)
    return costs


class AcceleratorSimulator:
    """Executes DNN workloads on an :class:`AcceleratorDesign`.

    ``batch`` amortizes each stationary weight slab over multiple inputs:
    per-slab streaming grows with the batch while the slab load happens
    once, so weight-bound layers (FC, transformer projections) move toward
    the compute-bound regime.  Reports cover the whole batch.

    ``row`` is the design as a :class:`~repro.perf.layer_cost.DesignRow`:
    everything :meth:`run_layer` reads beyond the layer itself.
    """

    def __init__(self, design: AcceleratorDesign, pdk: PDK | None = None,
                 batch: int = 1) -> None:
        require(batch >= 1, "batch must be >= 1")
        self.design = design
        self.pdk = pdk if pdk is not None else foundry_m3d_pdk()
        self.batch = batch
        # Equal rows make layer results interchangeable — including
        # across *different* designs (e.g. 2D baselines that differ only
        # in footprint).  Documented in DESIGN.md ("Layer memoization").
        self.row = design_row(
            design.n_cs, design.total_weight_bandwidth,
            design.precision_bits,
            design.bank_plan.array.cell.read_energy_per_bit,
            design.cs.array, design.cs.leakage(self.pdk),
            peripheral_leakage(self.pdk), batch, design.cycle_time,
            design.pool_lanes, design.writeback_bus_bits)

    @property
    def static_power(self) -> float:
        """Chip static power in watts: all CSs + memory peripherals."""
        return self.row.static_power

    # --- execution -----------------------------------------------------------

    def run_layer(self, layer: Layer) -> LayerExecution:
        """Execute one layer and return its timing/energy breakdown.

        The breakdown is :func:`~repro.perf.layer_cost.layer_cost` over
        this simulator's :attr:`row` and the layer's features.  Results
        memoize on ``(design row, layer shape)``: the numeric breakdown
        of a repeated shape (ResNet residual blocks, identical layers
        across sweep points) is computed once and re-attached to each
        requesting layer.
        """
        with _span("simulator.run_layer") as sp:
            hits = _LAYER_MEMO.hits
            used_cs, compute, writeback, cycles, dynamic, leakage = \
                row_layer_cost(self.row, layer)
            if sp:
                sp.set(layer=layer.name,
                       memo="hit" if _LAYER_MEMO.hits > hits else "miss")
        return LayerExecution(
            layer=layer,
            used_cs=used_cs,
            compute_cycles=compute,
            writeback_cycles=writeback,
            cycles=cycles,
            dynamic_energy=dynamic,
            leakage_energy=leakage,
        )

    def run(self, network: Network) -> ExecutionReport:
        """Execute a full network, one inference."""
        require_weights_fit(self.design, network)
        with _span("simulator.run", network=network.name,
                   n_cs=self.design.n_cs):
            results = tuple(self.run_layer(layer) for layer in network.layers)
        return ExecutionReport(design=self.design, network=network, layers=results)


def require_weights_fit(design: AcceleratorDesign, network: Network) -> None:
    """Raise unless ``network``'s weights fit in ``design``'s RRAM."""
    bits = network.weight_bits(design.precision_bits)
    require(bits <= design.rram_capacity_bits,
            f"{network.name} weights do not fit in on-chip RRAM "
            f"({bits} bits > {design.rram_capacity_bits} bits)")


def simulate(design: AcceleratorDesign, network: Network,
             pdk: PDK | None = None, batch: int = 1) -> ExecutionReport:
    """Convenience wrapper: simulate ``network`` on ``design``."""
    return AcceleratorSimulator(design, pdk, batch=batch).run(network)

