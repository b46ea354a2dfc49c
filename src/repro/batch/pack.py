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

Within one batch, points that share section objects share their
design: :class:`PackMemo` packs each ``(tech, arch, batch)`` design once
and interns its rows, so a point costs a weight-fit check and a
:class:`PackedPoint`.

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

Packing encodes no keys.  Batched and scalar calls share one key
encoder, :func:`repro.runtime.keys.call_key`; ``spec_call_key`` is that
same function under the name the batch layer has always exported.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.arch.accelerator import (
    DEFAULT_BANK_WIDTH_BITS,
    DEFAULT_WRITEBACK_BUS_BITS,
    TechCSStage,
    design_counts,
)
from repro.perf.layer_cost import DesignRow, LayerRow, layer_row
from repro.perf.simulator import design_row
from repro.runtime.cache import MISSING
from repro.runtime.keys import call_key as spec_call_key
from repro.runtime.memo import memo_table
from repro.spec.design import ArchSpec, DesignSpec, TechSpec, WorkloadSpec
from repro.spec.resolve import build_workload, design_stage
from repro.tech.pdk import PDK
from repro.workloads.layers import shape_key

__all__ = [
    "DesignRow",
    "LayerRow",
    "PackMemo",
    "PackedPoint",
    "UnsupportedSpec",
    "WorkloadStage",
    "pack_point",
    "spec_call_key",
    "workload_stage",
]


class UnsupportedSpec(Exception):
    """Raised when a spec cannot be lowered to design rows.

    Every such spec is one the scalar pipeline rejects (e.g. weights
    that do not fit on chip): ``evaluate_spec`` and ``spec_bounds``
    raise that pipeline's diagnostic — the batch layer never invents
    new behavior.
    """


class WorkloadStage:
    """Per-layer features of one (network, layer-restriction) workload.

    ``shapes`` counts the network's distinct layer shapes: the layer
    costs a new design row runs on the kernel's scalar path, where
    repeated shapes hit the simulator's layer memo.
    """

    __slots__ = ("key", "network", "layers", "shapes", "_columns")

    def __init__(self, key: tuple, network) -> None:
        self.key = key
        self.network = network
        self.layers = tuple(layer_row(layer) for layer in network.layers)
        self.shapes = len({shape_key(layer) for layer in network.layers})
        self._columns = None

    def weight_bits(self, precision_bits: int) -> int:
        """Total weight bits at a precision."""
        return self.network.weight_bits(precision_bits)

    def columns(self) -> LayerRow:
        """The layer features as (1, L) numpy row vectors, built lazily."""
        if self._columns is None:
            import numpy as np

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
        stage = WorkloadStage(key, build_workload(
            WorkloadSpec(network=network, layer=layer)))
        _WORKLOAD_STAGE.put(key, stage)
    return stage


class PackMemo:
    """What one batch's points share while they are packed.

    * ``designs``: ``(id(tech), id(arch), batch)`` -> the design's
      ``(row_2d, row_m3d, footprint)``, or the exception packing raised;
    * ``rows``: a design row's inputs (tech section id, CS preset,
      precision, batch, CS count, bandwidth) -> the row, so equal rows
      are one object (the iso 2D row is the same for every capacity);
    * ``workloads``: ``id(workload)`` -> its :class:`WorkloadStage`.

    Ids key the tables, so a memo lives only as long as the specs that
    pin them: one :meth:`~repro.batch.kernel.BatchKernel.evaluate_calls`
    or ``bound_calls`` call, at most one entry per point of it.
    """

    __slots__ = ("designs", "rows", "workloads")

    def __init__(self) -> None:
        self.designs: dict = {}
        self.rows: dict = {}
        self.workloads: dict = {}


def pack_point(spec: DesignSpec, base: PDK,
               memo: PackMemo | None = None) -> PackedPoint:
    """Lower one spec to its two design rows + workload key.

    The rows come from the stages :func:`~repro.spec.resolve.resolve`
    and :class:`~repro.perf.simulator.AcceleratorSimulator` build
    designs and rows from, so they equal the scalar pipeline's rows.
    With a ``memo``, a design the batch already packed is looked up, not
    rebuilt; only the weight-fit check and the point stay per spec.
    Raises :class:`UnsupportedSpec` for anything the scalar pipeline
    would reject, so callers can raise that pipeline's own diagnostic.
    """
    if memo is None:
        memo = PackMemo()
    tech, arch, workload = spec.tech, spec.arch, spec.workload
    wstage = memo.workloads.get(id(workload))
    if wstage is None:
        wstage = memo.workloads[id(workload)] = workload_stage(
            workload.network, workload.layer)
    if wstage.weight_bits(arch.precision_bits) > arch.capacity_bits:
        raise UnsupportedSpec("weights do not fit in on-chip RRAM")
    key = (id(tech), id(arch), workload.batch)
    design = memo.designs.get(key)
    if design is None:
        try:
            design = _pack_design(base, tech, arch, workload.batch, memo.rows)
        except Exception as error:
            design = error
        memo.designs[key] = design
    if isinstance(design, Exception):
        raise design.with_traceback(None)
    return PackedPoint(spec, wstage.key, *design)


def _pack_design(base: PDK, tech: TechSpec, arch: ArchSpec, batch: int,
                 rows: dict) -> "tuple[DesignRow, DesignRow, float]":
    """One design's ``(row_2d, row_m3d, footprint)``, rows interned."""
    if arch.precision_bits > DEFAULT_WRITEBACK_BUS_BITS:
        # AcceleratorDesign would reject the precision; let the scalar
        # path raise its diagnostic.
        raise UnsupportedSpec("precision exceeds the writeback bus")
    stage = design_stage(base, tech, arch)
    capacity = arch.capacity_bits
    n_2d, n_m3d, _, footprint = design_counts(
        stage, capacity, arch.tier_pairs, arch.n_cs, arch.baseline)
    if n_m3d > capacity or n_2d > capacity:
        # RRAMBankPlan rejects more banks than bits.
        raise UnsupportedSpec("more banks than capacity bits")
    # The 2D baseline keeps its single weight channel; the M3D design
    # gives each CS its own bank.
    return (_row(rows, stage, tech, arch, batch, n_2d,
                 DEFAULT_BANK_WIDTH_BITS),
            _row(rows, stage, tech, arch, batch, n_m3d,
                 n_m3d * DEFAULT_BANK_WIDTH_BITS),
            footprint)


def _row(rows: dict, stage: TechCSStage, tech: TechSpec, arch: ArchSpec,
         batch: int, n_cs: int, bandwidth_bits: int) -> DesignRow:
    """The design row of ``n_cs`` CSs at ``bandwidth_bits``, one object
    per batch.

    The tech section, the CS preset and the precision fix the stage, so
    they and the row's own inputs key it: equal keys are equal rows.
    """
    key = (id(tech), arch.cs, arch.precision_bits, batch, n_cs,
           bandwidth_bits)
    row = rows.get(key)
    if row is None:
        row = rows[key] = design_row(
            n_cs, bandwidth_bits, arch.precision_bits,
            stage.pdk.rram_cell.read_energy_per_bit, stage.cs.array,
            stage.cs_leakage, stage.peripheral_leakage, batch)
    return row
