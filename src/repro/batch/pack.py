"""Packing: ``DesignSpec -> parameter rows`` for the batch kernel.

The scalar pipeline resolves every spec into live objects (PDK, two
:class:`~repro.arch.accelerator.AcceleratorDesign`\\ s, a
:class:`~repro.workloads.models.Network`) and walks them per layer.  The
batch kernel instead lowers each spec to two
:class:`~repro.perf.layer_cost.DesignRow`\\ s — flat parameter rows holding
exactly the scalars the per-layer cost model reads — plus a
:class:`WorkloadStage` of per-layer feature rows.  Stacking the
design rows (one row per design, one column per parameter) against the
layer features (one column per layer) is what lets the kernel evaluate a
whole batch as array operations.

Delta-evaluation lives in the stage tables here: a spec's sections
identify which intermediate stages its neighbors already computed.

* ``batch.design`` — keyed on the *tech x CS* section values (delta,
  beta, memory preset, CS preset, precision) plus the base PDK's
  identity: cell areas, CS area/leakage, peripheral area/leakage, array
  geometry.  Points that only vary arch/workload axes reuse it.
* ``batch.workload`` — keyed on (network, layer): per-layer feature rows
  and weight totals.  Points that only vary tech/arch axes reuse it.
* ``batch.rows`` — keyed on (DesignRow, workload key): the evaluated
  (cycles, energy) totals.  Equal rows are interchangeable by
  construction (the row *is* everything the cost model reads, and the
  scalar simulator keys its layer memo on the same row), so sweep
  neighbors whose knob changes are absorbed by the construction (e.g.
  a beta that doesn't change the derived CS count) skip even the
  vectorized math.  Hits count as ``batch.delta_hits``.

All three honor :func:`repro.runtime.memo.set_memoization` and show up
in :class:`~repro.runtime.engine.RunReport` memo stats.

The arithmetic mirrors :mod:`repro.spec.resolve` /
:mod:`repro.arch.accelerator` float-for-float (same operations, same
order), which is what lets the kernel meet its 1e-9 agreement bound —
see DESIGN.md's "Batch kernel" section for the invariants.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import NamedTuple

import numpy as np

from repro.arch.accelerator import (
    DEFAULT_BANK_WIDTH_BITS,
    DEFAULT_FREQUENCY_HZ,
    DEFAULT_POOL_LANES,
    DEFAULT_WRITEBACK_BUS_BITS,
    SYSTEM_BUS_IO_AREA,
    ComputingSubsystem,
    case_study_cs,
    peripheral_area,
    precision_scaled_cs,
)
from repro.perf.layer_cost import DesignRow, LayerRow, layer_row
from repro.runtime.cache import MISSING
from repro.runtime.keys import call_key
from repro.runtime.memo import memo_table
from repro.runtime.serialize import dumps, fingerprint_cache_enabled
from repro.spec.design import (
    ArchSpec,
    DesignSpec,
    FlowSpec,
    TechSpec,
    WorkloadSpec,
)
from repro.spec.resolve import build_workload, tech_pdk
from repro.tech.pdk import PDK

__all__ = [
    "DesignRow",
    "LayerRow",
    "PackedPoint",
    "UnsupportedSpec",
    "WorkloadStage",
    "clear_key_caches",
    "design_stage",
    "pack_point",
    "spec_call_key",
    "workload_stage",
]


class UnsupportedSpec(Exception):
    """Raised when a spec cannot take the vectorized path.

    The kernel answers by falling back to scalar ``evaluate_spec`` for
    that point, which either evaluates it correctly or raises the same
    diagnostic the scalar path always raised (e.g. for weights that do
    not fit on chip) — the batch layer never invents new behavior.
    """


class DesignStage(NamedTuple):
    """Tech x CS intermediates shared by every spec with equal sections.

    Attributes:
        cell_area_2d: 2D RRAM bit-cell area, m^2.
        cell_area_m3d: M3D bit-cell area at the tech's delta, m^2.
        cs_area: Single-CS silicon area, m^2.
        cs_leakage: Single-CS static power, W.
        peripheral: Memory-peripheral silicon area, m^2.
        peripheral_leakage: Memory-peripheral static power, W.
        read_energy: RRAM read energy, J/bit.
        mac_energy: PE MAC energy, J/op.
        rows: Array rows.
        cols: Array cols.
        fill_cycles: Array fill+drain cycles.
        weight_bits_per_slab: Weight bits per slab.
        row_packing: Row-packing mapping enabled.
    """

    cell_area_2d: float
    cell_area_m3d: float
    cs_area: float
    cs_leakage: float
    peripheral: float
    peripheral_leakage: float
    read_energy: float
    mac_energy: float
    rows: int
    cols: int
    fill_cycles: int
    weight_bits_per_slab: int
    row_packing: bool


class WorkloadStage:
    """Per-layer features of one (network, layer-restriction) workload."""

    __slots__ = ("network", "layers", "_weight_bits", "_columns")

    def __init__(self, network) -> None:
        self.network = network
        self.layers = tuple(layer_row(layer) for layer in network.layers)
        self._weight_bits: dict[int, int] = {}
        self._columns = None

    def weight_bits(self, precision_bits: int) -> int:
        """Total weight bits at a precision (cached per precision)."""
        bits = self._weight_bits.get(precision_bits)
        if bits is None:
            bits = self.network.weight_bits(precision_bits)
            self._weight_bits[precision_bits] = bits
        return bits

    def columns(self) -> LayerRow:
        """The layer features as (1, L) numpy row vectors, built lazily."""
        if self._columns is None:
            stacked = list(zip(*self.layers)) if self.layers else \
                [[] for _ in LayerRow._fields]
            self._columns = LayerRow._make(
                np.array(values, dtype=bool if name in ("is_pool", "is_conv")
                         else np.float64)[None, :]
                for name, values in zip(LayerRow._fields, stacked))
        return self._columns


class PackedPoint(NamedTuple):
    """One spec lowered to kernel inputs.

    Attributes:
        spec: The original spec.
        workload_key: ``(network, layer)`` — key into the workload stage.
        row_2d: The 2D baseline's parameter row.
        row_m3d: The M3D design's parameter row.
        footprint: Common chip footprint, m^2.
    """

    spec: DesignSpec
    workload_key: tuple
    row_2d: DesignRow
    row_m3d: DesignRow
    footprint: float


#: Tech x CS stage: (PDK key, delta, beta, memory, CS key) -> DesignStage.
_DESIGN_STAGE = memo_table("batch.design")

#: Workload stage: (network, layer) -> WorkloadStage.
_WORKLOAD_STAGE = memo_table("batch.workload")

#: Row results: (DesignRow, workload key) -> (cycles, energy).
ROW_RESULTS = memo_table("batch.rows")


def _cs_preset(arch: ArchSpec) -> ComputingSubsystem:
    if arch.cs == "case-study":
        return case_study_cs()
    return precision_scaled_cs(arch.precision_bits)


def design_stage(base: PDK, tech: TechSpec, arch: ArchSpec) -> DesignStage:
    """The tech x CS intermediates for one (tech section, CS choice).

    Keyed on section *values* plus the base PDK's identity — every spec
    of a sweep shares the base PDK object, so arch/workload-only grids
    hit one entry.
    """
    cs_key = arch.cs if arch.cs == "case-study" \
        else (arch.cs, arch.precision_bits)
    key = (id(base), tech.delta, tech.beta, tech.memory, cs_key)
    stage = _DESIGN_STAGE.get(key)
    if stage is MISSING:
        stage = _build_design_stage(base, tech, arch)
        # Keep the keyed object alive so id(base) cannot be recycled.
        _DESIGN_STAGE.put(key, (base, stage))
        return stage
    return stage[1]


def _build_design_stage(base: PDK, tech: TechSpec,
                        arch: ArchSpec) -> DesignStage:
    pdk = tech_pdk(tech, base)
    cs = _cs_preset(arch)
    array = cs.array
    perif = peripheral_area(pdk)
    perif_gates = perif / pdk.silicon_library.gate_equivalent.area
    return DesignStage(
        cell_area_2d=pdk.rram_cell.area(None),
        cell_area_m3d=pdk.m3d_rram_cell(tech.delta).area(pdk.ilv),
        cs_area=cs.silicon_area(pdk),
        cs_leakage=cs.leakage(pdk),
        peripheral=perif,
        peripheral_leakage=pdk.silicon_library.leakage_for_gates(perif_gates),
        read_energy=pdk.rram_cell.read_energy_per_bit,
        mac_energy=array.pe.mac_energy,
        rows=array.rows,
        cols=array.cols,
        fill_cycles=array.fill_drain_cycles,
        weight_bits_per_slab=array.weight_bits_per_slab(),
        row_packing=array.enable_row_packing,
    )


def workload_stage(network: str, layer: str | None) -> WorkloadStage:
    """The feature rows for one (network, layer-restriction) pair."""
    key = (network, layer)
    stage = _WORKLOAD_STAGE.get(key)
    if stage is MISSING:
        stage = WorkloadStage(
            build_workload(WorkloadSpec(network=network, layer=layer)))
        _WORKLOAD_STAGE.put(key, stage)
    return stage


def pack_point(spec: DesignSpec, base: PDK) -> PackedPoint:
    """Lower one spec to its two design rows + workload key.

    Mirrors :func:`repro.spec.resolve._resolve` +
    :mod:`repro.arch.accelerator` operation-for-operation on the float
    quantities (footprints, CS counts, leakage), so the derived rows
    equal the scalar pipeline's designs bit-for-bit.  Raises
    :class:`UnsupportedSpec` for anything the row schema cannot express
    or that the scalar path would reject.
    """
    tech, arch, workload = spec.tech, spec.arch, spec.workload
    if arch.precision_bits > DEFAULT_WRITEBACK_BUS_BITS:
        # AcceleratorDesign would reject the precision; let the scalar
        # path raise its diagnostic.
        raise UnsupportedSpec("precision exceeds the writeback bus")
    stage = design_stage(base, tech, arch)
    wstage = workload_stage(workload.network, workload.layer)
    capacity = arch.capacity_bits
    if wstage.weight_bits(arch.precision_bits) > capacity:
        raise UnsupportedSpec("weights do not fit in on-chip RRAM")

    # Geometry, in the exact float-op order of accelerator.py: the 2D
    # baseline footprint, the grown M3D footprint, Eq. 2's refined CS
    # count, and Eq. 9's re-optimized baseline refill.
    cells_2d = capacity * stage.cell_area_2d
    cells_m3d = capacity * stage.cell_area_m3d
    baseline_fp = cells_2d + stage.peripheral + 1 * stage.cs_area \
        + SYSTEM_BUS_IO_AREA
    grown_fp = max(baseline_fp, cells_m3d)
    extra_si = grown_fp - baseline_fp
    freed = cells_2d - stage.peripheral + extra_si
    n_single = 1 + max(0, math.floor(freed / stage.cs_area))
    n_m3d = arch.n_cs if arch.n_cs is not None \
        else n_single * arch.tier_pairs
    if arch.baseline == "reoptimized":
        n_2d = 1 if extra_si <= 0 else 1 + math.floor(extra_si / stage.cs_area)
    else:
        n_2d = 1
    if n_m3d > capacity or n_2d > capacity:
        # RRAMBankPlan rejects more banks than bits.
        raise UnsupportedSpec("more banks than capacity bits")

    cycle_time = 1.0 / DEFAULT_FREQUENCY_HZ
    # Positional DesignRow construction (field order of the NamedTuple);
    # building through a kwargs dict costs ~30% of pack time at scale.
    common = (arch.precision_bits, stage.read_energy, stage.mac_energy)
    tail = (cycle_time, stage.rows, stage.cols, stage.fill_cycles,
            stage.weight_bits_per_slab, DEFAULT_POOL_LANES,
            DEFAULT_WRITEBACK_BUS_BITS, stage.row_packing, workload.batch)
    row_2d = DesignRow(
        n_2d,
        # The (possibly enlarged) 2D baseline keeps its single channel.
        1 * DEFAULT_BANK_WIDTH_BITS,
        *common,
        n_2d * stage.cs_leakage + stage.peripheral_leakage,
        *tail)
    row_m3d = DesignRow(
        n_m3d,
        n_m3d * DEFAULT_BANK_WIDTH_BITS,
        *common,
        n_m3d * stage.cs_leakage + stage.peripheral_leakage,
        *tail)
    return PackedPoint(
        spec=spec,
        workload_key=(workload.network, workload.layer),
        row_2d=row_2d,
        row_m3d=row_m3d,
        footprint=grown_fp,
    )


# --- fast call keys ---------------------------------------------------------
#
# The engine's generic call_key canonicalizes the full call tree per call
# (~100us on a DesignSpec).  evaluate_spec calls have a fixed shape, and
# spec *sections* repeat heavily across a sweep, so the canonical text of
# each section is cached by its values and only the outer wrappers are
# assembled per call — producing byte-identical hashes, self-checked
# against call_key on first use.

_SECTION_TEXTS: dict = {}
_SECTION_TEXTS_MAX = 65536
_PDK_TEXTS: dict[int, tuple] = {}
_FAST_KEY_STATE = {"checked": False, "ok": True}
_SECTION_VERIFIED: set = set()

_SPEC_PREFIX = ('{"__dataclass__":"repro.spec.design:DesignSpec",'
                '"fields":{"arch":')


def _encode_section(section) -> str:
    """One-shot canonical text of a plain-leaf section dataclass.

    Spec sections hold only int/float/str/None leaves, so a single
    C-encoder ``json.dumps`` over the field dict reproduces the generic
    serializer's canonical text (~20x faster per distinct section —
    what keeps the fast key's cost flat on sweeps where an axis makes
    every section distinct).  The first section of each type verifies
    against :func:`~repro.runtime.serialize.dumps`; a mismatch pins
    that type to the generic path permanently.
    """
    cls = type(section)
    text = json.dumps(
        {"__dataclass__": f"{cls.__module__}:{cls.__qualname__}",
         "fields": {name: getattr(section, name)
                    for name in section.__dataclass_fields__}},
        sort_keys=True, separators=(",", ":"))
    if cls not in _SECTION_VERIFIED:
        generic = dumps(section)
        _SECTION_VERIFIED.add(cls)
        if text != generic:  # pragma: no cover - safety net
            _SECTION_VERIFIED.discard(cls)
            return generic
    return text


def _section_text(section) -> str:
    if isinstance(section, TechSpec):
        key = ("tech", section.delta, section.beta, section.memory)
    elif isinstance(section, ArchSpec):
        key = ("arch", section.capacity_bits, section.tier_pairs,
               section.n_cs, section.baseline, section.cs,
               section.precision_bits)
    elif isinstance(section, FlowSpec):
        key = ("flow", section.activity_cs, section.activity_channel,
               section.activity_bus, section.frequency_mhz,
               section.aspect_ratio, section.legalize, section.clock,
               section.congestion, section.thermal, section.thermal_grid,
               section.max_rise_k, section.max_power_density)
    else:
        key = ("workload", section.network, section.layer, section.batch)
    text = _SECTION_TEXTS.get(key)
    if text is None:
        text = _encode_section(section)
        if len(_SECTION_TEXTS) >= _SECTION_TEXTS_MAX:
            _SECTION_TEXTS.clear()
        _SECTION_TEXTS[key] = text
    return text


def _spec_text(spec: DesignSpec) -> str:
    return (_SPEC_PREFIX + _section_text(spec.arch)
            + ',"flow":' + _section_text(spec.flow)
            + ',"tech":' + _section_text(spec.tech)
            + ',"workload":' + _section_text(spec.workload) + "}}")


def _pdk_text(pdk: PDK) -> str:
    entry = _PDK_TEXTS.get(id(pdk))
    if entry is None or entry[0] is not pdk:
        entry = (pdk, dumps(pdk))
        if len(_PDK_TEXTS) >= 64:
            _PDK_TEXTS.clear()
        _PDK_TEXTS[id(pdk)] = entry
    return entry[1]


def clear_key_caches() -> None:
    """Drop the fast-key text caches (benchmarks' cold-state reset)."""
    _SECTION_TEXTS.clear()
    _PDK_TEXTS.clear()


def spec_call_key(fn, args: tuple, kwargs: dict) -> str:
    """Engine ``key_fn`` for ``evaluate_spec`` calls.

    Byte-identical to :func:`repro.runtime.keys.call_key` (verified at
    runtime on first use; permanent fallback to the generic key on any
    mismatch), but assembled from value-cached section texts so a sweep
    pays canonicalization once per distinct section, not once per spec.
    Calls outside the ``(spec[, pdk])`` shape — and runs with the
    fingerprint cache disabled, which benchmarks use to measure uncached
    behavior — take the generic path.
    """
    if (kwargs or not 1 <= len(args) <= 2
            or not isinstance(args[0], DesignSpec)
            or not fingerprint_cache_enabled()):
        return call_key(fn, args, kwargs)
    parts = [_spec_text(args[0])]
    if len(args) == 2:
        if not isinstance(args[1], PDK):
            return call_key(fn, args, kwargs)
        parts.append(_pdk_text(args[1]))
    name = f"{fn.__module__}.{fn.__qualname__}"
    payload = f'["{name}",[' + ",".join(parts) + "],{}]"
    key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if not _FAST_KEY_STATE["checked"]:
        _FAST_KEY_STATE["checked"] = True
        _FAST_KEY_STATE["ok"] = key == call_key(fn, args, kwargs)
    if not _FAST_KEY_STATE["ok"]:
        return call_key(fn, args, kwargs)
    return key
