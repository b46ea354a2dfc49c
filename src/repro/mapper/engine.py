"""Mapping search engine: best tiling per layer, chip-level accounting.

For each conv/FC layer the engine:

1. partitions the layer's output channels across the chip's parallel CSs
   (min(N, ceil(K / K_spatial)) used, as in the performance simulator);
2. enumerates loop-order templates and power-of-two tile sizes for the
   slice owned by the busiest CS, keeping only tilings whose operand tiles
   fit the local buffers;
3. picks the candidate with the lowest slice EDP;
4. adds the chip-level serial output writeback and leakage.

Pooling layers bypass the mapper (no MAC loop nest) and use the same
vector-unit model as the performance simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import MappingError, require
from repro.obs.trace import span as _span
from repro.tech import constants
from repro.tech.pdk import PDK, foundry_m3d_pdk
from repro.arch.accelerator import (
    DEFAULT_BANK_WIDTH_BITS,
    DEFAULT_FREQUENCY_HZ,
    DEFAULT_POOL_LANES,
    DEFAULT_WRITEBACK_BUS_BITS,
)
from repro.arch.memory import MemoryKind
from repro.arch.systolic import pool_tiles, scalar_ops
from repro.arch.table2 import ArchitectureSpec
from repro.mapper.cost import CostModel, LoopOrder, MappingCost, Tiling
from repro.mapper.loopnest import LoopNest, loop_nest_of
from repro.runtime.cache import MISSING
from repro.runtime.memo import add_counts, memo_table
from repro.workloads.layers import Layer, LayerKind, shape_key
from repro.workloads.models import Network

#: Slice-search memo: (arch fingerprint, nest, prune flag) -> MappingCost.
_SLICE_MEMO = memo_table("mapper.slice")

#: Layer-level memo: (chip fingerprint, layer shape) -> mapping numbers.
_LAYER_MEMO = memo_table("mapper.layer")


def arch_static_power(arch: ArchitectureSpec, pdk: PDK, n_cs: int = 1) -> float:
    """Static power of ``n_cs`` CSs of this architecture, watts."""
    require(n_cs >= 1, "need at least one CS")
    pe_gates = arch.spatial.pe_count * constants.PE_GATE_COUNT
    logic = pdk.silicon_library.leakage_for_gates(pe_gates)
    sram_bits = arch.hierarchy.on_chip_sram_bits()
    sram = sram_bits * constants.SRAM_LEAKAGE_PER_BIT
    regs = arch.hierarchy.register_bits() * constants.SRAM_LEAKAGE_PER_BIT
    return n_cs * (logic + sram + regs)


@dataclass(frozen=True)
class LayerMapping:
    """Best mapping found for one layer at chip level.

    Attributes:
        layer: The mapped layer.
        used_cs: CSs used for this layer.
        slice_cost: Cost of the busiest CS's slice (None for pooling).
        cycles: Total chip-level latency in cycles.
        dynamic_energy: Chip-level dynamic energy in joules.
        leakage_energy: Static energy over the layer runtime in joules.
    """

    layer: Layer
    used_cs: int
    slice_cost: MappingCost | None
    cycles: float
    dynamic_energy: float
    leakage_energy: float

    @property
    def energy(self) -> float:
        """Total layer energy in joules."""
        return self.dynamic_energy + self.leakage_energy


@dataclass(frozen=True)
class MappingReport:
    """Chip-level mapping result for a full network.

    Attributes:
        arch: The architecture mapped onto.
        network: The workload.
        n_cs: Parallel CS count of the chip.
        cycle_time: Clock period, seconds.
        layers: Per-layer mappings.
    """

    arch: ArchitectureSpec
    network: Network
    n_cs: int
    cycle_time: float
    layers: tuple[LayerMapping, ...] = field(default_factory=tuple)

    @property
    def cycles(self) -> float:
        """Total cycles for one inference."""
        return sum(item.cycles for item in self.layers)

    @property
    def runtime(self) -> float:
        """Total runtime in seconds."""
        return self.cycles * self.cycle_time

    @property
    def energy(self) -> float:
        """Total energy in joules."""
        return sum(item.energy for item in self.layers)

    @property
    def edp(self) -> float:
        """Energy-delay product, joule-seconds."""
        return self.energy * self.runtime

    def describe(self) -> str:
        """Human-readable per-layer mapping summary (chosen tilings)."""
        lines = [f"mapping of {self.network.name} on {self.arch.name} "
                 f"(N = {self.n_cs})"]
        for item in self.layers:
            if item.slice_cost is None:
                lines.append(f"  {item.layer.name:12s} pooling on "
                             f"{item.used_cs} vector unit(s)")
                continue
            tiling = item.slice_cost.tiling
            lines.append(
                f"  {item.layer.name:12s} {tiling.order.value:12s} "
                f"Tk={tiling.tk:<4d} Tc={tiling.tc:<4d} Toy={tiling.toy:<3d} "
                f"util={item.slice_cost.utilization:4.0%} "
                f"cycles={item.cycles:,.0f}")
        return "\n".join(lines)


def _pow2_tiles(base: int, bound: int) -> list[int]:
    """Candidate tile sizes: base * 2^i capped at the loop bound."""
    tiles: list[int] = []
    tile = max(1, base)
    while tile < bound:
        tiles.append(tile)
        tile *= 2
    tiles.append(bound)
    return tiles


class MapperEngine:
    """Searches mappings of DNN layers onto one Table II architecture."""

    def __init__(
        self,
        arch: ArchitectureSpec,
        pdk: PDK | None = None,
        n_cs: int = 1,
        bank_width_bits: int = DEFAULT_BANK_WIDTH_BITS,
        writeback_bus_bits: int = DEFAULT_WRITEBACK_BUS_BITS,
        frequency_hz: float = DEFAULT_FREQUENCY_HZ,
        precision_bits: int = 8,
        shared_weight_channel: bool = False,
    ) -> None:
        require(n_cs >= 1, "need at least one CS")
        self.arch = arch
        self.pdk = pdk if pdk is not None else foundry_m3d_pdk()
        self.n_cs = n_cs
        self.writeback_bus_bits = writeback_bus_bits
        self.frequency_hz = frequency_hz
        self.precision_bits = precision_bits
        # M3D chips give each CS a private weight channel; a 2D chip (or an
        # enlarged 2D baseline) shares one channel among its CSs.
        if shared_weight_channel:
            self.rram_channel_bits = bank_width_bits / n_cs
        else:
            self.rram_channel_bits = float(bank_width_bits)
        self.cost_model = CostModel(arch, precision_bits)
        self._static_power = arch_static_power(arch, self.pdk, n_cs)
        # Everything best_slice_cost reads beyond the nest itself ...
        self._slice_fingerprint = (arch, precision_bits,
                                   self.rram_channel_bits)
        # ... and everything map_layer adds on top of the slice search
        # (chip-level writeback, leakage, CS partitioning).  Equal
        # fingerprints make per-layer mappings interchangeable; see
        # DESIGN.md ("Layer memoization").
        self._layer_fingerprint = self._slice_fingerprint + (
            n_cs, writeback_bus_bits, frequency_hz, self._static_power)

    @property
    def cycle_time(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.frequency_hz

    # --- candidate generation -------------------------------------------------

    def candidate_tilings(self, nest: LoopNest) -> Iterator[Tiling]:
        """Enumerate loop orders x power-of-two tile sizes for one slice."""
        spatial = self.arch.spatial
        for order in LoopOrder:
            for tk in _pow2_tiles(spatial.k, nest.k):
                for tc in _pow2_tiles(spatial.c, nest.c):
                    for toy in _pow2_tiles(spatial.oy, nest.oy):
                        yield Tiling(order=order, tk=tk, tc=tc, toy=toy)

    def best_slice_cost(self, nest: LoopNest,
                        prune: bool = True) -> MappingCost:
        """Lowest-EDP legal tiling for one CS's layer slice.

        With ``prune`` (the default) the search runs branch-and-bound:
        each candidate is first priced by the admissible lower bound of
        :meth:`repro.mapper.cost.CostModel.search_bounds`, and fully
        evaluated only when the bound does not exceed the incumbent's
        true EDP.  Because the bound never overestimates and candidates
        are visited in the same order, the pruned search returns the
        *identical* tiling and cost as ``prune=False`` (the exhaustive
        reference scan) — proven in DESIGN.md and exercised by
        ``tests/test_mapper_pruning.py``.  Results memoize on
        ``(architecture fingerprint, nest, prune)``.
        """
        key = (self._slice_fingerprint, nest, prune)
        memoized = _SLICE_MEMO.get(key)
        if memoized is not MISSING:
            with _span("mapper.best_slice_cost") as sp:
                if sp:
                    sp.set(arch=self.arch.name, memo="hit")
            return memoized
        with _span("mapper.best_slice_cost") as sp:
            if sp:
                sp.set(arch=self.arch.name, memo="miss", prune=prune)
            best = (self._search_pruned(nest) if prune
                    else self._search_exhaustive(nest))
        if best is None:
            raise MappingError(
                f"no legal tiling for nest {nest} on {self.arch.name}")
        _SLICE_MEMO.put(key, best)
        return best

    def _search_exhaustive(self, nest: LoopNest) -> MappingCost | None:
        """Reference scan: evaluate every fitting candidate in order."""
        best: MappingCost | None = None
        evaluated = 0
        candidates = 0
        for tiling in self.candidate_tilings(nest):
            candidates += 1
            if not self.cost_model.tile_fits(nest, tiling):
                continue
            cost = self.cost_model.evaluate(
                nest, tiling, rram_channel_bits=self.rram_channel_bits)
            evaluated += 1
            if best is None or cost.edp < best.edp:
                best = cost
        add_counts("mapper.search", candidates=candidates,
                   evaluated=evaluated)
        return best

    def _search_pruned(self, nest: LoopNest) -> MappingCost | None:
        """Branch-and-bound scan: same argmin, far fewer full evaluations.

        Pass 1 prices every candidate with the admissible lower bound of
        :meth:`repro.mapper.cost.CostModel.search_bounds` and fully
        evaluates only the minimum-bound candidate, whose true EDP seeds
        the incumbent *bound* (it never becomes the incumbent mapping, so
        first-candidate tie-breaking is untouched).  Pass 2 walks the
        candidates in the exhaustive scan's order and skips any whose
        bound exceeds the seed bound or the incumbent's true EDP.

        Why no skip can change the result: a skipped candidate ``c`` has
        ``lb(c) > min(seed, best.edp)`` with ``seed`` the true EDP of some
        candidate and ``best.edp`` only ever shrinking toward the final
        minimum; admissibility (``lb(c) <= edp(c)``) then forces
        ``edp(c)`` strictly above an EDP some other candidate achieves,
        so under the strict ``<`` incumbent update (ties keep the
        earliest candidate) ``c`` can never be the exhaustive argmin.
        A ``None`` bound is exactly ``tile_fits`` failing, which the
        exhaustive scan skips too.
        """
        bounds = self.cost_model.search_bounds(nest, self.rram_channel_bits)
        spatial = self.arch.spatial
        tiles_k = _pow2_tiles(spatial.k, nest.k)
        tiles_c = _pow2_tiles(spatial.c, nest.c)
        tiles_oy = _pow2_tiles(spatial.oy, nest.oy)
        evaluate = self.cost_model.evaluate
        lower_bound = bounds.lower_bound
        priced: list[tuple[float | None, LoopOrder, int, int, int]] = []
        seed_index = -1
        seed_bound = math.inf
        for order in LoopOrder:
            for tk in tiles_k:
                for tc in tiles_c:
                    for toy in tiles_oy:
                        bound = lower_bound(order, tk, tc, toy)
                        if bound is not None and bound < seed_bound:
                            seed_bound = bound
                            seed_index = len(priced)
                        priced.append((bound, order, tk, tc, toy))
        if seed_index < 0:
            add_counts("mapper.search", candidates=len(priced))
            return None
        _, order, tk, tc, toy = priced[seed_index]
        seed_cost = evaluate(
            nest, Tiling(order=order, tk=tk, tc=tc, toy=toy),
            rram_channel_bits=self.rram_channel_bits)
        seed_bound = seed_cost.edp
        best: MappingCost | None = None
        best_edp = math.inf
        pruned = 0
        evaluated = 1
        for index, (bound, order, tk, tc, toy) in enumerate(priced):
            if bound is None:
                continue
            if bound > seed_bound or bound > best_edp:
                pruned += 1
                continue
            if index == seed_index:
                cost = seed_cost
            else:
                cost = evaluate(
                    nest, Tiling(order=order, tk=tk, tc=tc, toy=toy),
                    rram_channel_bits=self.rram_channel_bits)
                evaluated += 1
            if best is None or cost.edp < best_edp:
                best = cost
                best_edp = cost.edp
        add_counts("mapper.search", candidates=len(priced), pruned=pruned,
                   evaluated=evaluated)
        return best

    # --- per-layer mapping -------------------------------------------------------

    def _used_cs(self, layer: Layer) -> int:
        """CSs usable for a layer: K partitions in units of the K-unroll."""
        k_tiles = max(1, math.ceil(layer.out_channels / self.arch.spatial.k))
        return min(self.n_cs, k_tiles)

    def _writeback_cycles(self, layer: Layer) -> float:
        """Chip-level serial output writeback over the shared bus."""
        return (layer.output_elements * self.precision_bits
                / self.writeback_bus_bits)

    def map_pool(self, layer: Layer) -> LayerMapping:
        """Pooling on the per-CS vector units (no MAC mapping involved)."""
        lanes = DEFAULT_POOL_LANES
        tiles = pool_tiles(scalar_ops, layer.out_channels, lanes)
        used = min(self.n_cs, tiles)
        cycles = max(layer.macs / lanes / used, self._writeback_cycles(layer))
        dynamic = (layer.input_elements + layer.output_elements) \
            * self.precision_bits * constants.SRAM_ENERGY_PER_BIT
        leakage = self._static_power * cycles * self.cycle_time
        return LayerMapping(
            layer=layer, used_cs=used, slice_cost=None, cycles=cycles,
            dynamic_energy=dynamic, leakage_energy=leakage)

    def map_layer(self, layer: Layer) -> LayerMapping:
        """Map one layer at chip level.

        Results memoize on ``(chip fingerprint, layer shape)``, so a
        network's repeated layer shapes — and identical shapes across
        networks on the same chip configuration — search once.
        """
        key = (self._layer_fingerprint, shape_key(layer))
        memoized = _LAYER_MEMO.get(key)
        if memoized is not MISSING:
            with _span("mapper.map_layer") as sp:
                if sp:
                    sp.set(layer=layer.name, memo="hit")
            used, slice_cost, cycles, dynamic, leakage = memoized
            return LayerMapping(
                layer=layer, used_cs=used, slice_cost=slice_cost,
                cycles=cycles, dynamic_energy=dynamic,
                leakage_energy=leakage)
        with _span("mapper.map_layer") as sp:
            if sp:
                sp.set(layer=layer.name, memo="miss")
            mapping = self._map_layer_uncached(layer)
        _LAYER_MEMO.put(key, (mapping.used_cs, mapping.slice_cost,
                              mapping.cycles, mapping.dynamic_energy,
                              mapping.leakage_energy))
        return mapping

    def _map_layer_uncached(self, layer: Layer) -> LayerMapping:
        if layer.kind == LayerKind.POOL:
            return self.map_pool(layer)
        nest = loop_nest_of(layer)
        used = self._used_cs(layer)
        k_slice = math.ceil(nest.k / used)
        slice_nest = LoopNest(k=k_slice, c=nest.c, ox=nest.ox, oy=nest.oy,
                              r=nest.r, s=nest.s, stride=nest.stride)
        slice_cost = self.best_slice_cost(slice_nest)
        # Output drain overlaps compute through the double-buffered local
        # output level, so the shared bus contributes as a roofline term.
        cycles = max(slice_cost.cycles, self._writeback_cycles(layer))
        # Energy scales with total work; the busiest slice's per-MAC energy
        # is representative of every slice.
        energy_scale = nest.macs / slice_nest.macs
        dynamic = slice_cost.dynamic_energy * energy_scale
        leakage = self._static_power * cycles * self.cycle_time
        return LayerMapping(
            layer=layer, used_cs=used, slice_cost=slice_cost, cycles=cycles,
            dynamic_energy=dynamic, leakage_energy=leakage)

    def map_network(self, network: Network) -> MappingReport:
        """Map every layer of ``network`` and aggregate chip-level totals."""
        require(network.weight_bits(self.precision_bits)
                <= self.arch.rram_capacity_bits,
                f"{network.name} weights do not fit this architecture's RRAM")
        with _span("mapper.map_network", network=network.name,
                   arch=self.arch.name, n_cs=self.n_cs):
            layers = tuple(self.map_layer(layer) for layer in network.layers)
        return MappingReport(
            arch=self.arch,
            network=network,
            n_cs=self.n_cs,
            cycle_time=self.cycle_time,
            layers=layers,
        )
