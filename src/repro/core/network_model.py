"""Layer-level analytical evaluation of a DNN on a 2D/M3D design pair.

This is the model behind the paper's Obs. 4: applying the Sec. III roofline
equations *per layer* and summing.  For each layer:

* compute time  = F0 / (N_max * P_eff), where N_max = min(N, N#) partitions
  along output-channel tiles and P_eff is the closed-form effective
  throughput of the weight-stationary array on that layer's shape
  (P_peak derated by slab fill/drain and shallow-channel utilization);
* transfer time = output bits / writeback-bus width — the bus is a shared
  chip-level resource, so this term does **not** scale with N (it is what
  caps the paper's per-layer speedups below N);
* T = max(compute, transfer) per the roofline Eqs. 1/4, and energies follow
  Eqs. 6/7 with the memory-access term alpha * D0 over the weight bits.

The model is intentionally coarser than :mod:`repro.perf.simulator` (max
instead of sum, no weight-load double-buffering boundary); the paper's
claim — and our test — is agreement within 10% on network-level benefits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import require
from repro.tech.pdk import PDK, foundry_m3d_pdk
from repro.arch.accelerator import AcceleratorDesign
from repro.arch.systolic import pool_tiles, scalar_ops
from repro.perf.layer_cost import ordered_sum
from repro.core.params import (
    _compute_energy_per_op,
    _cs_idle_energy_per_cycle,
    _memory_idle_energy_per_cycle,
)
from repro.workloads.layers import Layer, LayerKind
from repro.workloads.models import Network


@dataclass(frozen=True)
class AnalyticalLayerResult:
    """Roofline result for one layer on one design.

    Attributes:
        layer: The layer.
        used_cs: N_max.
        compute_cycles: F0 / (N_max * P_eff).
        transfer_cycles: Shared-bus transfer time.
        cycles: max(compute, transfer).
        energy: Layer energy in joules (Eqs. 6/7 structure).
    """

    layer: Layer
    used_cs: int
    compute_cycles: float
    transfer_cycles: float
    cycles: float
    energy: float


@dataclass(frozen=True)
class AnalyticalNetworkResult:
    """Roofline result for a full network on one design.

    Attributes:
        design: The design evaluated.
        network: The workload.
        layers: Per-layer results.
    """

    design: AcceleratorDesign
    network: Network
    layers: tuple[AnalyticalLayerResult, ...] = field(default_factory=tuple)

    @property
    def cycles(self) -> float:
        """Total cycles."""
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
        """Energy-delay product, joule-seconds."""
        return self.energy * self.runtime


def effective_throughput(design: AcceleratorDesign, layer: Layer) -> float:
    """P_eff: ops/cycle of one CS on this layer's shape (closed form).

    Derates P_peak by the slab fill/drain overhead and by shallow-channel
    under-utilization, using the same tiling arithmetic as the architecture
    definition (no cycle simulation involved).
    """
    array = design.cs.array
    if layer.kind == LayerKind.POOL:
        return float(design.pool_lanes)
    slabs = array.slab_count(layer)
    stream = array.stream_cycles_per_slab(layer)
    return layer.macs / (slabs * stream)


def _layer_quantities(design: AcceleratorDesign, layer: Layer) -> tuple[int, float, float]:
    """(n_max, compute_cycles, transfer_cycles) for one layer."""
    array = design.cs.array
    if layer.kind == LayerKind.POOL:
        tiles = pool_tiles(scalar_ops, layer.out_channels, design.pool_lanes)
    else:
        tiles = array.k_tiles(layer)
    n_max = min(design.n_cs, tiles)
    p_eff = effective_throughput(design, layer)
    compute = layer.macs / (n_max * p_eff)
    transfer = (layer.output_elements * design.precision_bits
                / design.writeback_bus_bits)
    return n_max, compute, transfer


def analyze_layer(design: AcceleratorDesign, layer: Layer,
                  pdk: PDK | None = None) -> AnalyticalLayerResult:
    """Evaluate one layer analytically on ``design``."""
    pdk = pdk if pdk is not None else foundry_m3d_pdk()
    n_max, compute, transfer = _layer_quantities(design, layer)
    cycles = max(compute, transfer)
    # Eq. 6/7 energy structure; alpha comes from the design's memory cell.
    alpha_d0 = (layer.weights * design.precision_bits
                * design.bank_plan.array.cell.read_energy_per_bit)
    e_compute = _compute_energy_per_op(design) * layer.macs
    cs_idle = _cs_idle_energy_per_cycle(design, pdk)
    mem_idle = _memory_idle_energy_per_cycle(design, pdk)
    unused = (design.n_cs - n_max) * cs_idle * cycles
    stalled = n_max * cs_idle * (cycles - compute)
    memory_stall = mem_idle * max(0.0, cycles - transfer)
    total_energy = alpha_d0 + e_compute + unused + stalled + memory_stall
    return AnalyticalLayerResult(
        layer=layer,
        used_cs=n_max,
        compute_cycles=compute,
        transfer_cycles=transfer,
        cycles=cycles,
        energy=total_energy,
    )


def analyze_network(design: AcceleratorDesign, network: Network,
                    pdk: PDK | None = None) -> AnalyticalNetworkResult:
    """Evaluate a full network analytically on ``design``."""
    pdk = pdk if pdk is not None else foundry_m3d_pdk()
    require(network.weight_bits(design.precision_bits) <= design.rram_capacity_bits,
            f"{network.name} weights do not fit in on-chip RRAM")
    layers = tuple(analyze_layer(design, layer, pdk) for layer in network.layers)
    return AnalyticalNetworkResult(design=design, network=network, layers=layers)
