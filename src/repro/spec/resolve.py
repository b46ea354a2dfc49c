"""The one resolver pipeline: ``DesignSpec -> ResolvedPoint``.

Every sweep and experiment used to hand-roll its own "apply knob, rebuild
the design pair" plumbing; :func:`resolve` is now the single construction
path.  The pipeline:

1. **Tech** — apply the memory-technology preset, then scale the ILV
   pitch by ``beta`` (``scaled_pdk``, the helper that deduplicates the
   former ``core/dse.py`` / ``core/via_pitch.py`` copies).
2. **Arch** — the staged design construction the batch packer shares:
   the memoized tech x CS stage (:func:`design_stage`: cell, CS and
   peripheral areas and leakages of the CS preset at ``delta``); the CS
   counts and footprints (:func:`~repro.arch.accelerator.design_counts`:
   Eq. 2's M3D count times ``tier_pairs``, or ``n_cs``; under the
   ``reoptimized`` policy the 2D baseline enlarged to the M3D footprint
   and refilled per Eq. 9); then each design, built once with its
   explicit count and footprint (:func:`resolve_chips`, which the
   physical flow calls on its own).  The last stage, the cost model's
   row, is :func:`repro.perf.simulator.design_row`.
3. **Workload** — build the named network, optionally restricted to one
   layer (:func:`build_workload`).

Resolution is deterministic and simulation-free, and memoizes on the
spec's content fingerprint plus the base PDK's content hash — *not* on
object identity — so equal specs share work no matter where they came
from, and the key scheme matches what the evaluation engine writes to
disk.  Both come from the one key encoder (:mod:`repro.runtime.keys`):
the fingerprint from cached section text, the PDK's hash from its
identity cache, so neither re-walks the PDK on a hit.  Only the tech x
CS stage below it keys on the base PDK's identity.  ``pdk=None`` means
the shared default PDK object (:func:`~repro.tech.pdk.foundry_m3d_pdk`
builds one per argument set), so every default resolve hits the same
stage and hash entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.accelerator import (
    AcceleratorDesign,
    TechCSStage,
    baseline_2d_design,
    case_study_cs,
    design_counts,
    m3d_design,
    precision_scaled_cs,
    tech_cs_stage,
)
from repro.errors import ConfigurationError
from repro.runtime.cache import MISSING
from repro.runtime.keys import stable_key
from repro.runtime.memo import memo_table
from repro.spec.design import ArchSpec, DesignSpec, TechSpec, WorkloadSpec
from repro.tech.memories import memory_technology
from repro.tech.pdk import PDK, foundry_m3d_pdk
from repro.workloads.models import Network, available_networks, build_network
from repro.workloads.transformer import base_encoder, tiny_encoder

__all__ = ["ResolvedPoint", "build_workload", "design_stage", "resolve",
           "resolve_chips", "scaled_pdk", "tech_pdk"]

#: Resolution memo: (spec fingerprint, PDK content hash) -> ResolvedPoint.
_RESOLVE_MEMO = memo_table("spec.resolve")

#: Scaled-PDK memo: (PDK content hash, beta) -> PDK.
_SCALED_PDK_MEMO = memo_table("spec.scaled_pdk")

#: Tech-section memo: (memory, beta, base PDK content) -> adjusted PDK.
_TECH_PDK_MEMO = memo_table("spec.tech_pdk")

#: Tech x CS stage memo: (id(base PDK), delta, beta, memory, CS key) ->
#: (base PDK, TechCSStage); the entry pins the base so its id stays unique.
_DESIGN_STAGE_MEMO = memo_table("spec.design_stage")

#: Workload memo: (network, layer) -> Network.
_WORKLOAD_MEMO = memo_table("spec.workload")

#: Transformer-encoder presets addressable by workload.network (the CNN
#: zoo resolves through repro.workloads.models.build_network).
_ENCODER_PRESETS = {
    "tiny_encoder": tiny_encoder,
    "base_encoder": base_encoder,
}


def scaled_pdk(pdk: PDK, beta: float) -> PDK:
    """``pdk.with_ilv_pitch_factor(beta)``, memoized on content.

    At ``beta == 1`` the PDK is returned unchanged (scaling by 1.0 is a
    bit-identical copy, so preserving identity is free and keeps
    identity-based sharing — e.g. worker invariant shipping — intact).
    This is the one scaled-PDK construction site; ``core/dse.py`` and
    ``core/via_pitch.py`` used to keep private copies.
    """
    if beta == 1.0:
        return pdk
    key = (stable_key(pdk), beta)
    scaled = _SCALED_PDK_MEMO.get(key)
    if scaled is MISSING:
        scaled = pdk.with_ilv_pitch_factor(beta)
        _SCALED_PDK_MEMO.put(key, scaled)
    return scaled


def tech_pdk(tech: TechSpec, base: PDK) -> PDK:
    """The tech-adjusted PDK a :class:`TechSpec` denotes against ``base``.

    Applies the memory-technology preset, then the ILV pitch factor —
    exactly the tech stage of :func:`resolve`.  Memoized per *distinct
    tech section* (keyed on the section's values plus the base PDK's
    content hash), so grids that only vary arch/workload axes build the
    adjusted PDK once instead of once per spec — and every point of such
    a grid shares one PDK *object*, which keeps identity-based sharing
    (fingerprint caching, worker invariant shipping) intact.
    """
    if tech.memory is None and tech.beta == 1.0:
        return base
    key = (tech.memory, tech.beta, stable_key(base))
    pdk = _TECH_PDK_MEMO.get(key)
    if pdk is MISSING:
        pdk = base
        if tech.memory is not None:
            pdk = pdk.with_memory_cell(
                memory_technology(tech.memory).cell(pdk.node))
        pdk = scaled_pdk(pdk, tech.beta)
        _TECH_PDK_MEMO.put(key, pdk)
    return pdk


def design_stage(base: PDK, tech: TechSpec, arch: ArchSpec) -> TechCSStage:
    """The tech x CS stage a (tech section, CS choice) denotes on ``base``.

    Keyed on the section *values* plus the base PDK's identity — every
    spec of a sweep, and every ``pdk=None`` call, shares the base PDK
    object, so grids that only vary capacity, tier, baseline or workload
    axes build it once, with no content hashing on a hit.
    """
    cs_key = arch.cs if arch.cs == "case-study" \
        else (arch.cs, arch.precision_bits)
    key = (id(base), tech.delta, tech.beta, tech.memory, cs_key)
    entry = _DESIGN_STAGE_MEMO.get(key)
    if entry is MISSING:
        cs = case_study_cs() if arch.cs == "case-study" \
            else precision_scaled_cs(arch.precision_bits)
        entry = (base, tech_cs_stage(tech_pdk(tech, base), cs, tech.delta))
        _DESIGN_STAGE_MEMO.put(key, entry)
    return entry[1]


def build_workload(workload: WorkloadSpec) -> Network:
    """The concrete :class:`Network` a workload spec names.

    ``network`` resolves through the CNN zoo or the transformer-encoder
    presets; ``layer`` (if set) restricts the network to that single
    layer, renamed ``<network>_<layer>`` with spaces underscored — the
    Fig. 10d parallel-layer convention.  Memoized on ``(network,
    layer)``, the only fields it reads, so every resolve of one workload
    shares one :class:`Network`.  A name that does not resolve stores
    nothing, so it raises every time.
    """
    key = (workload.network, workload.layer)
    network = _WORKLOAD_MEMO.get(key)
    if network is MISSING:
        network = _build_workload(workload)
        _WORKLOAD_MEMO.put(key, network)
    return network


def _build_workload(workload: WorkloadSpec) -> Network:
    name = workload.network
    if name in _ENCODER_PRESETS:
        network = _ENCODER_PRESETS[name]()
    elif name in available_networks():
        network = build_network(name)
    else:
        known = tuple(available_networks()) + tuple(_ENCODER_PRESETS)
        raise ConfigurationError(
            f"unknown workload network {name!r}; "
            f"choose from {', '.join(sorted(known))}")
    if workload.layer is not None:
        suffix = workload.layer.replace(" ", "_")
        network = Network(
            name=f"{network.name}_{suffix}",
            layers=(network.layer(workload.layer),))
    return network


@dataclass(frozen=True)
class ResolvedPoint:
    """The live objects one :class:`DesignSpec` denotes.

    Attributes:
        spec: The spec this point was resolved from.
        pdk: The tech-adjusted PDK both designs are built on.
        baseline: The 2D baseline (policy per ``spec.arch.baseline``).
        m3d: The M3D design.
        network: The workload network.
    """

    spec: DesignSpec
    pdk: PDK
    baseline: AcceleratorDesign
    m3d: AcceleratorDesign
    network: Network

    @property
    def n_cs_2d(self) -> int:
        """CS count of the 2D baseline."""
        return self.baseline.n_cs

    @property
    def n_cs_m3d(self) -> int:
        """CS count of the M3D design."""
        return self.m3d.n_cs

    @property
    def footprint(self) -> float:
        """Common chip footprint, m^2 (the M3D design's; under the
        ``reoptimized`` policy the baseline is enlarged to match)."""
        return self.m3d.area.footprint


def resolve(spec: DesignSpec, pdk: PDK | None = None) -> ResolvedPoint:
    """Resolve ``spec`` against ``pdk`` (default: the shared foundry M3D
    PDK).

    Memoized on ``(spec.fingerprint(), content hash of pdk)`` — equal
    specs resolve once per process however and wherever they were built.
    """
    base = pdk if pdk is not None else foundry_m3d_pdk()
    key = (spec.fingerprint(), stable_key(base))
    point = _RESOLVE_MEMO.get(key)
    if point is not MISSING:
        return point
    point = _resolve(spec, base)
    _RESOLVE_MEMO.put(key, point)
    return point


def resolve_chips(
    tech: TechSpec, arch: ArchSpec, base: PDK,
) -> tuple[PDK, AcceleratorDesign, AcceleratorDesign]:
    """The chip half of a point: ``(pdk, baseline, m3d)`` on ``base``.

    The designs depend on the tech and arch sections only, so every
    workload run on one chip shares them — which is what lets the
    physical flow run once per chip (:func:`~repro.spec.evaluate
    .physical_summary`).  :func:`resolve` builds its designs here.
    """
    stage = design_stage(base, tech, arch)
    counts = design_counts(stage, arch.capacity_bits, arch.tier_pairs,
                           arch.n_cs, arch.baseline)
    baseline = baseline_2d_design(
        stage.pdk, arch.capacity_bits, cs=stage.cs, n_cs=counts.n_2d,
        footprint=counts.footprint_2d)
    m3d = m3d_design(
        stage.pdk, arch.capacity_bits, cs=stage.cs,
        access_width_factor=tech.delta, n_cs=counts.n_m3d,
        footprint=counts.footprint_m3d)

    if arch.precision_bits != baseline.precision_bits:
        baseline = replace(baseline, precision_bits=arch.precision_bits)
    if arch.precision_bits != m3d.precision_bits:
        m3d = replace(m3d, precision_bits=arch.precision_bits)
    return stage.pdk, baseline, m3d


def _resolve(spec: DesignSpec, base: PDK) -> ResolvedPoint:
    pdk, baseline, m3d = resolve_chips(spec.tech, spec.arch, base)
    return ResolvedPoint(
        spec=spec,
        pdk=pdk,
        baseline=baseline,
        m3d=m3d,
        network=build_workload(spec.workload),
    )
