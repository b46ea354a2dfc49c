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

:func:`pack_point` builds the rows from the same staged design
construction :func:`~repro.spec.resolve.resolve` and the simulator use,
skipping only the design objects: the memoized tech x CS stage
(:func:`~repro.spec.resolve.design_stage`), Eqs. 2 and 9's CS counts and
footprints (:func:`~repro.arch.accelerator.design_counts`) and the row
stage (:func:`~repro.perf.simulator.design_row`).  The rows therefore
equal the simulator's rows of the resolved designs by construction.

Delta-evaluation lives in the stage tables: a spec's sections identify
which intermediate stages its neighbors already computed.

* ``spec.design_stage`` — keyed on the *tech x CS* section values
  (delta, beta, memory preset, CS preset, precision) plus the base PDK's
  identity.  Points that only vary arch/workload axes reuse it.
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
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple

import numpy as np

from repro.arch.accelerator import (
    DEFAULT_BANK_WIDTH_BITS,
    DEFAULT_WRITEBACK_BUS_BITS,
    design_counts,
)
from repro.perf.layer_cost import DesignRow, LayerRow, layer_row
from repro.perf.simulator import design_row
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
from repro.spec.resolve import build_workload, design_stage
from repro.tech.pdk import PDK

__all__ = [
    "DesignRow",
    "LayerRow",
    "PackedPoint",
    "UnsupportedSpec",
    "WorkloadStage",
    "clear_key_caches",
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


#: Workload stage: (network, layer) -> WorkloadStage.
_WORKLOAD_STAGE = memo_table("batch.workload")

#: Row results: (DesignRow, workload key) -> (cycles, energy).
ROW_RESULTS = memo_table("batch.rows")


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

    The rows come from the stages :func:`~repro.spec.resolve.resolve`
    and :class:`~repro.perf.simulator.AcceleratorSimulator` build
    designs and rows from, so they equal the scalar pipeline's rows.
    Raises :class:`UnsupportedSpec` for anything the scalar path would
    reject, so that path raises its own diagnostic.
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
    n_2d, n_m3d, _, footprint = design_counts(
        stage, capacity, arch.tier_pairs, arch.n_cs, arch.baseline)
    if n_m3d > capacity or n_2d > capacity:
        # RRAMBankPlan rejects more banks than bits.
        raise UnsupportedSpec("more banks than capacity bits")

    # The 2D baseline keeps its single weight channel; the M3D design
    # gives each CS its own bank.
    read_energy = stage.pdk.rram_cell.read_energy_per_bit
    array = stage.cs.array
    return PackedPoint(
        spec=spec,
        workload_key=(workload.network, workload.layer),
        row_2d=design_row(
            n_2d, DEFAULT_BANK_WIDTH_BITS, arch.precision_bits, read_energy,
            array, stage.cs_leakage, stage.peripheral_leakage,
            workload.batch),
        row_m3d=design_row(
            n_m3d, n_m3d * DEFAULT_BANK_WIDTH_BITS, arch.precision_bits,
            read_energy, array, stage.cs_leakage, stage.peripheral_leakage,
            workload.batch),
        footprint=footprint,
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
