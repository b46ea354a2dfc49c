"""Tile-level event simulation: the cross-check for the closed-form model.

:mod:`repro.perf.simulator` computes layer latency in closed form
(per-CS compute plus the serial shared-bus writeback).  This module
*simulates* the same microarchitecture tile by tile:

* K-tiles are assigned round-robin to the used CSs;
* each tile streams its weight slabs (double-buffered loads after the
  first) and accumulates a full output tile;
* output buffers are single-buffered: a CS cannot start its next K-tile
  until its output tile has drained over the **shared** writeback bus,
  which serves drain requests in arrival order (FIFO arbitration);
* layers are barriers (a layer's outputs feed the next layer's inputs).

With the CSs naturally synchronized, every round of tiles produces a
back-to-back burst of drains and the bus backlog re-serializes — which is
exactly why the closed form's additive writeback term is accurate.  The
test suite asserts the two models agree within a few percent on every
evaluated network; when they diverge, the event log (:class:`TileEvent`)
says where the cycles went.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import require
from repro.tech.pdk import PDK, foundry_m3d_pdk
from repro.arch.accelerator import AcceleratorDesign
from repro.arch.systolic import pool_tiles, scalar_ops
from repro.workloads.layers import Layer, LayerKind
from repro.workloads.models import Network


@dataclass(frozen=True)
class TileEvent:
    """One simulated activity interval.

    Attributes:
        layer: Layer name.
        cs: CS index (-1 for the shared bus).
        kind: "load", "compute", or "drain".
        start: Start cycle.
        end: End cycle.
    """

    layer: str
    cs: int
    kind: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TileSimLayerResult:
    """Per-layer outcome of the tile-level simulation.

    Attributes:
        layer: The simulated layer.
        cycles: Layer latency (start of layer to last drain), cycles.
        used_cs: CSs that received tiles.
        bus_busy_cycles: Total bus occupancy for the layer.
        cs_wait_cycles: Total cycles CSs spent blocked on their drains.
    """

    layer: Layer
    cycles: float
    used_cs: int
    bus_busy_cycles: float
    cs_wait_cycles: float


@dataclass(frozen=True)
class TileSimReport:
    """Whole-network outcome.

    Attributes:
        design: The design simulated.
        network: The workload.
        layers: Per-layer results.
        events: Full event log (optional; empty when tracing is off).
    """

    design: AcceleratorDesign
    network: Network
    layers: tuple[TileSimLayerResult, ...]
    events: tuple[TileEvent, ...] = field(default_factory=tuple)

    @property
    def cycles(self) -> float:
        """Total network latency in cycles."""
        return sum(item.cycles for item in self.layers)

    @property
    def runtime(self) -> float:
        """Total runtime in seconds."""
        return self.cycles * self.design.cycle_time


class TileLevelSimulator:
    """Simulates tile-by-tile execution with shared-bus arbitration."""

    def __init__(self, design: AcceleratorDesign, pdk: PDK | None = None,
                 batch: int = 1, trace: bool = False) -> None:
        require(batch >= 1, "batch must be >= 1")
        self.design = design
        self.pdk = pdk if pdk is not None else foundry_m3d_pdk()
        self.batch = batch
        self.trace = trace

    # --- per-layer simulation ---------------------------------------------------

    def _tile_parameters(self, layer: Layer) -> dict[str, float]:
        design = self.design
        array = design.cs.array
        fill = array.fill_drain_cycles
        stream = ((array.stream_cycles_per_slab(layer) - fill) * self.batch
                  + fill)
        channel_bits = design.total_weight_bandwidth / design.n_cs
        load = array.weight_bits_per_slab() / channel_bits
        slabs = array.row_tiles(layer) * array.kernel_passes(layer)
        positions = 1 if layer.kind == LayerKind.FC \
            else layer.out_size * layer.out_size
        # Drain cost per output channel; each tile drains exactly the
        # channels it produced (partial last tiles, grouped layers).
        drain_per_channel = (positions * self.batch
                             * design.precision_bits
                             / design.writeback_bus_bits)
        return {"stream": stream, "load": load, "slabs": slabs,
                "drain_per_channel": drain_per_channel}

    def run_layer(self, layer: Layer, start: float = 0.0) -> TileSimLayerResult:
        """Simulate one conv/FC layer starting at cycle ``start``."""
        design = self.design
        if layer.kind == LayerKind.POOL:
            return self._run_pool(layer, start)
        array = design.cs.array
        params = self._tile_parameters(layer)
        k_tiles = array.k_tiles(layer)
        used = min(design.n_cs, k_tiles)

        # Tile i goes to CS (i mod used); compute per tile: first slab's
        # load is exposed, subsequent loads double-buffer under streaming.
        per_slab = max(params["stream"], params["load"])
        tile_compute = params["load"] + params["stream"] \
            + (params["slabs"] - 1) * per_slab

        # Channels per tile: full array columns except a partial last tile
        # in each group.
        group_out = layer.out_channels // layer.channel_groups
        tiles_per_group = max(1, math.ceil(group_out / array.cols))
        tile_channels: list[int] = []
        for _ in range(layer.channel_groups):
            remaining = group_out
            for _ in range(tiles_per_group):
                tile_channels.append(min(array.cols, remaining))
                remaining -= min(array.cols, remaining)

        cs_time = [start] * used
        bus_free = start
        bus_busy = 0.0
        cs_wait = 0.0
        events: list[TileEvent] = []
        for tile in range(k_tiles):
            cs = tile % used
            compute_start = cs_time[cs]
            compute_end = compute_start + tile_compute
            drain_len = params["drain_per_channel"] * tile_channels[tile]
            drain_start = max(bus_free, compute_end)
            drain_end = drain_start + drain_len
            bus_free = drain_end
            bus_busy += drain_len
            # Single-buffered outputs: the CS blocks until its drain ends.
            cs_wait += drain_end - compute_end
            cs_time[cs] = drain_end
            if self.trace:
                events.append(TileEvent(layer.name, cs, "compute",
                                        compute_start, compute_end))
                events.append(TileEvent(layer.name, -1, "drain",
                                        drain_start, drain_end))
        end = max(cs_time)
        result = TileSimLayerResult(
            layer=layer,
            cycles=end - start,
            used_cs=used,
            bus_busy_cycles=bus_busy,
            cs_wait_cycles=cs_wait,
        )
        self._last_events = events
        return result

    def _run_pool(self, layer: Layer, start: float) -> TileSimLayerResult:
        """Pooling uses the closed-form vector-unit model (no tiles)."""
        design = self.design
        lanes = design.pool_lanes
        tiles = pool_tiles(scalar_ops, layer.out_channels, lanes)
        used = min(design.n_cs, tiles)
        compute = layer.macs * self.batch / lanes / used
        drain = (layer.output_elements * self.batch
                 * design.precision_bits / design.writeback_bus_bits)
        self._last_events = []
        return TileSimLayerResult(
            layer=layer, cycles=compute + drain, used_cs=used,
            bus_busy_cycles=drain, cs_wait_cycles=drain)

    def run(self, network: Network) -> TileSimReport:
        """Simulate a full network with layer barriers."""
        require(network.weight_bits(self.design.precision_bits)
                <= self.design.rram_capacity_bits,
                f"{network.name} weights do not fit in on-chip RRAM")
        time = 0.0
        results: list[TileSimLayerResult] = []
        events: list[TileEvent] = []
        for layer in network.layers:
            result = self.run_layer(layer, time)
            results.append(result)
            events.extend(self._last_events)
            time += result.cycles
        return TileSimReport(design=self.design, network=network,
                             layers=tuple(results), events=tuple(events))


def tile_simulate(design: AcceleratorDesign, network: Network,
                  pdk: PDK | None = None, batch: int = 1) -> TileSimReport:
    """Convenience wrapper for :class:`TileLevelSimulator`."""
    return TileLevelSimulator(design, pdk, batch=batch).run(network)
