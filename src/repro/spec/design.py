"""Declarative, serializable design-point specifications.

A :class:`DesignSpec` is the *data* form of one paper design point: the
technology overrides (access-FET width relaxation delta, ILV pitch factor
beta, BEOL memory preset), the architecture knobs (RRAM capacity, tier
pairs Y, explicit CS-count override, baseline CS-count policy, CS preset,
operand precision) and the workload selection (network, optional single
layer, token batch).  It is frozen, validated on construction, and
round-trips through plain hand-writable JSON — no tagged-codec payloads,
so a ``spec.json`` can be written in an editor and shipped between
processes.

The spec deliberately contains **no live objects**: resolving it into a
``(PDK, baseline design, M3D design, Network)`` tuple is the job of
:func:`repro.spec.resolve.resolve`, the single construction path every
sweep and experiment routes through.  :meth:`DesignSpec.fingerprint`
content-hashes the canonical JSON form, which is what the runtime uses as
a cache key — stable across processes, unlike the identity-keyed memo
tables it replaced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError, require
from repro.units import MEGABYTE

__all__ = [
    "ArchSpec",
    "BASELINE_POLICIES",
    "CS_PRESETS",
    "DesignSpec",
    "FlowSpec",
    "TechSpec",
    "WorkloadSpec",
    "field_paths",
    "load_design_spec",
]

#: How the 2D baseline's CS count is chosen.  ``iso`` keeps the paper's
#: single-CS baseline (Fig. 2); ``reoptimized`` enlarges the baseline to
#: the M3D footprint and refills the extra silicon with CSs per Eq. 9
#: (the Case 1/2 comparisons of Sec. III-D/E).
BASELINE_POLICIES: tuple[str, ...] = ("iso", "reoptimized")

#: Which computing sub-system both designs replicate.  ``case-study`` is
#: the paper's Sec. II CS; ``precision-scaled`` rebuilds the registers
#: around ``precision_bits`` (the ext-precision study).
CS_PRESETS: tuple[str, ...] = ("case-study", "precision-scaled")


def _require_mapping(section: str, data: Any) -> None:
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"spec section {section!r} must be a JSON object, "
            f"got {type(data).__name__}")


def _check_keys(section: str, data: Mapping[str, Any],
                allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {section!r} spec: {', '.join(unknown)}; "
            f"allowed: {', '.join(allowed)}")


def _checked_float(name: str, value: Any, minimum: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    require(value >= minimum, f"{name} must be >= {minimum}, got {value!r}")
    return float(value)


def _checked_int(name: str, value: Any, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    require(value >= minimum, f"{name} must be >= {minimum}, got {value!r}")
    return value


def _checked_bool(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a boolean, got {value!r}")
    return value


def capacity_bits_of(megabytes: Any) -> int:
    """The ``arch.capacity_bits`` an ``arch.capacity_mb`` value denotes."""
    if isinstance(megabytes, bool) or not isinstance(megabytes, (int, float)):
        raise ConfigurationError(
            f"arch.capacity_mb must be a number, got {megabytes!r}")
    return int(megabytes * MEGABYTE)


def _checked_str(name: str, value: Any, choices: tuple[str, ...] | None = None,
                 optional: bool = False) -> str | None:
    if value is None and optional:
        return None
    if not isinstance(value, str) or not value:
        raise ConfigurationError(
            f"{name} must be a non-empty string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigurationError(
            f"{name} must be one of {', '.join(choices)}; got {value!r}")
    return value


@dataclass(frozen=True)
class TechSpec:
    """Technology overrides applied to the base PDK.

    Attributes:
        delta: Access-FET width relaxation factor (Case 1, >= 1).
        beta: ILV pitch scaling factor (Case 2, > 0).
        memory: BEOL memory-technology preset name from
            :data:`repro.tech.memories.MEMORY_TECHNOLOGIES`, or ``None``
            for the PDK's own RRAM cell.
    """

    delta: float = 1.0
    beta: float = 1.0
    memory: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta",
                           _checked_float("tech.delta", self.delta, 1.0))
        object.__setattr__(self, "beta",
                           _checked_float("tech.beta", self.beta, 0.0))
        require(self.beta > 0, "tech.beta must be positive")
        _checked_str("tech.memory", self.memory, optional=True)

    def to_jsonable(self) -> dict[str, Any]:
        """Plain-JSON form (no tagged-codec payloads)."""
        return {"delta": self.delta, "beta": self.beta, "memory": self.memory}

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "TechSpec":
        """Inverse of :meth:`to_jsonable`; rejects unknown keys."""
        _require_mapping("tech", data)
        _check_keys("tech", data, ("delta", "beta", "memory"))
        return cls(**dict(data))


@dataclass(frozen=True)
class ArchSpec:
    """Architecture knobs for the 2D/M3D design pair.

    Attributes:
        capacity_bits: On-chip RRAM capacity (both designs, iso-capacity).
        tier_pairs: Interleaved compute+memory tier pairs Y (Case 3); the
            M3D CS count is Y times the single-pair Eq. 2 count.
        n_cs: Explicit M3D CS-count override (wins over ``tier_pairs``);
            ``None`` derives the count from the freed silicon.
        baseline: 2D CS-count policy, one of
            :data:`BASELINE_POLICIES`.
        cs: Computing-sub-system preset, one of :data:`CS_PRESETS`.
        precision_bits: Operand precision of both designs.
    """

    capacity_bits: int = 64 * MEGABYTE
    tier_pairs: int = 1
    n_cs: int | None = None
    baseline: str = "iso"
    cs: str = "case-study"
    precision_bits: int = 8

    def __post_init__(self) -> None:
        _checked_int("arch.capacity_bits", self.capacity_bits, 1)
        _checked_int("arch.tier_pairs", self.tier_pairs, 1)
        if self.n_cs is not None:
            _checked_int("arch.n_cs", self.n_cs, 1)
        _checked_str("arch.baseline", self.baseline, BASELINE_POLICIES)
        _checked_str("arch.cs", self.cs, CS_PRESETS)
        _checked_int("arch.precision_bits", self.precision_bits, 1)

    def to_jsonable(self) -> dict[str, Any]:
        """Plain-JSON form (no tagged-codec payloads)."""
        return {
            "capacity_bits": self.capacity_bits,
            "tier_pairs": self.tier_pairs,
            "n_cs": self.n_cs,
            "baseline": self.baseline,
            "cs": self.cs,
            "precision_bits": self.precision_bits,
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "ArchSpec":
        """Inverse of :meth:`to_jsonable`; rejects unknown keys.

        Accepts ``capacity_mb`` as a hand-writing convenience (mutually
        exclusive with ``capacity_bits``).
        """
        _require_mapping("arch", data)
        _check_keys("arch", data, ("capacity_bits", "capacity_mb",
                                   "tier_pairs", "n_cs", "baseline", "cs",
                                   "precision_bits"))
        kwargs = dict(data)
        if "capacity_mb" in kwargs:
            if "capacity_bits" in kwargs:
                raise ConfigurationError(
                    "give either arch.capacity_bits or arch.capacity_mb, "
                    "not both")
            kwargs["capacity_bits"] = capacity_bits_of(kwargs.pop("capacity_mb"))
        return cls(**kwargs)


@dataclass(frozen=True)
class WorkloadSpec:
    """Workload selection.

    Attributes:
        network: Model name — any :func:`repro.workloads.models
            .available_networks` entry or a transformer-encoder preset
            (``tiny_encoder``, ``base_encoder``).
        layer: Optional single-layer restriction by paper layer name
            (e.g. ``"L4.1 CONV2"``); the resolved network then contains
            only that layer, named ``<network>_<layer>`` like the Fig. 10d
            parallel-layer study.
        batch: Inputs (images / tokens) per simulated pass.
    """

    network: str = "resnet18"
    layer: str | None = None
    batch: int = 1

    def __post_init__(self) -> None:
        _checked_str("workload.network", self.network)
        _checked_str("workload.layer", self.layer, optional=True)
        _checked_int("workload.batch", self.batch, 1)

    def to_jsonable(self) -> dict[str, Any]:
        """Plain-JSON form (no tagged-codec payloads)."""
        return {"network": self.network, "layer": self.layer,
                "batch": self.batch}

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Inverse of :meth:`to_jsonable`; rejects unknown keys."""
        _require_mapping("workload", data)
        _check_keys("workload", data, ("network", "layer", "batch"))
        return cls(**dict(data))


@dataclass(frozen=True)
class FlowSpec:
    """Physical-design flow knobs for the staged P&R pipeline.

    Everything :func:`repro.physical.flow.run_staged_flow` needs beyond
    the design itself: switching-activity factors, an optional target
    frequency override, die shaping, per-stage toggles, and the
    feasibility budgets the :class:`~repro.physical.flow.FlowOutcome`
    checks against.  The defaults reproduce the legacy ``run_flow``
    physical results bit-identically (plus the clock / congestion /
    thermal stages the legacy flow never ran).

    Attributes:
        activity_cs: CS compute-logic switching activity (Sec. III-C).
        activity_channel: Weight-channel switching activity.
        activity_bus: Writeback-bus switching activity.
        frequency_mhz: Target clock override for timing/clock/power;
            ``None`` uses each design's own architected frequency.
        aspect_ratio: Die width/height ratio the floorplanner shapes the
            die to (1.0 = the legacy square die).
        legalize: Run the CS legalization (detailed-placement) stage.
        clock: Run clock-tree synthesis.
        congestion: Run routing-track / ILV congestion analysis.
        thermal: Run the thermal-map solve.
        thermal_grid: Thermal solver grid resolution (cells per side).
        max_rise_k: Thermal feasibility budget — max tolerated hotspot
            temperature rise over ambient, in kelvin.
        max_power_density: Optional power-density feasibility cap in
            W/m^2 (``None`` = unchecked).
    """

    activity_cs: float = 0.85
    activity_channel: float = 0.05
    activity_bus: float = 0.10
    frequency_mhz: float | None = None
    aspect_ratio: float = 1.0
    legalize: bool = True
    clock: bool = True
    congestion: bool = True
    thermal: bool = True
    thermal_grid: int = 64
    max_rise_k: float = 60.0
    max_power_density: float | None = None

    def __post_init__(self) -> None:
        for name in ("activity_cs", "activity_channel", "activity_bus"):
            value = _checked_float(f"flow.{name}", getattr(self, name), 0.0)
            require(value <= 1.0, f"flow.{name} must be <= 1, got {value!r}")
            object.__setattr__(self, name, value)
        if self.frequency_mhz is not None:
            value = _checked_float("flow.frequency_mhz",
                                   self.frequency_mhz, 0.0)
            require(value > 0, "flow.frequency_mhz must be positive")
            object.__setattr__(self, "frequency_mhz", value)
        ratio = _checked_float("flow.aspect_ratio", self.aspect_ratio, 0.0)
        require(ratio > 0, "flow.aspect_ratio must be positive")
        object.__setattr__(self, "aspect_ratio", ratio)
        for name in ("legalize", "clock", "congestion", "thermal"):
            _checked_bool(f"flow.{name}", getattr(self, name))
        _checked_int("flow.thermal_grid", self.thermal_grid, 4)
        rise = _checked_float("flow.max_rise_k", self.max_rise_k, 0.0)
        require(rise > 0, "flow.max_rise_k must be positive")
        object.__setattr__(self, "max_rise_k", rise)
        if self.max_power_density is not None:
            cap = _checked_float("flow.max_power_density",
                                 self.max_power_density, 0.0)
            require(cap > 0, "flow.max_power_density must be positive")
            object.__setattr__(self, "max_power_density", cap)

    @property
    def frequency_hz(self) -> float | None:
        """The frequency override in hertz (``None`` = design default)."""
        if self.frequency_mhz is None:
            return None
        return self.frequency_mhz * 1e6

    def to_jsonable(self) -> dict[str, Any]:
        """Plain-JSON form (no tagged-codec payloads)."""
        return {
            "activity_cs": self.activity_cs,
            "activity_channel": self.activity_channel,
            "activity_bus": self.activity_bus,
            "frequency_mhz": self.frequency_mhz,
            "aspect_ratio": self.aspect_ratio,
            "legalize": self.legalize,
            "clock": self.clock,
            "congestion": self.congestion,
            "thermal": self.thermal,
            "thermal_grid": self.thermal_grid,
            "max_rise_k": self.max_rise_k,
            "max_power_density": self.max_power_density,
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "FlowSpec":
        """Inverse of :meth:`to_jsonable`; rejects unknown keys."""
        _require_mapping("flow", data)
        _check_keys("flow", data, tuple(f.name for f in fields(cls)))
        return cls(**dict(data))


_SECTIONS: tuple[tuple[str, type], ...] = (
    ("tech", TechSpec), ("arch", ArchSpec), ("workload", WorkloadSpec),
    ("flow", FlowSpec),
)

#: Each section class's field names, in declaration order.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)) for _, cls in _SECTIONS}


def field_paths() -> tuple[str, ...]:
    """Every valid dotted override path (``"tech.delta"``, ...)."""
    paths: list[str] = []
    for section, cls in _SECTIONS:
        paths.extend(f"{section}.{name}" for name in _FIELD_NAMES[cls])
    return tuple(paths)


def section_field(path: Any) -> tuple[int, str]:
    """``(section index, field name)`` of a dotted override path.

    The index is the section's position in :class:`DesignSpec` (tech,
    arch, workload, flow).  ``"arch.capacity_mb"`` keeps its name —
    :func:`build_section` converts it — and sets the same field as
    ``"arch.capacity_bits"``.  An unknown path raises
    :class:`~repro.errors.ConfigurationError`.
    """
    section, _, name = str(path).partition(".")
    for index, (candidate, cls) in enumerate(_SECTIONS):
        if candidate == section:
            if name in _FIELD_NAMES[cls] or (
                    cls is ArchSpec and name == "capacity_mb"):
                return index, name
            break
    raise ConfigurationError(
        f"unknown spec path {path!r}; valid paths: "
        f"{', '.join(field_paths())}")


def field_key(path: str) -> str:
    """The field a dotted path sets: ``arch.capacity_mb`` sets
    ``arch.capacity_bits``, every other path its own field."""
    return "arch.capacity_bits" if path == "arch.capacity_mb" else path


def build_section(section: Any, changes: Iterable[tuple[str, Any]]) -> Any:
    """``section`` with ``(field name, value)`` changes applied.

    The one way overrides become a spec section: the section's own
    constructor validates the result once, however many fields changed,
    and ``capacity_mb`` converts through :func:`capacity_bits_of` as in
    :meth:`ArchSpec.from_jsonable`.  Sections validate field by field, so
    whether a change is valid never depends on the section's other
    fields.
    """
    cls = type(section)
    kwargs = {name: getattr(section, name) for name in _FIELD_NAMES[cls]}
    for name, value in changes:
        if name == "capacity_mb":
            name, value = "capacity_bits", capacity_bits_of(value)
        kwargs[name] = value
    return cls(**kwargs)


#: What building a section from override values can raise: a validation
#: error, or ``int()`` of an infinite or NaN ``capacity_mb``.
SECTION_ERRORS = (ConfigurationError, OverflowError, ValueError)


def first_invalid_change(spec: "DesignSpec",
                         changes: Iterable[tuple[Any, Any]],
                         ) -> Exception | None:
    """The error of the first invalid ``(path, value)`` change, if any.

    Each change is tried alone over ``spec``, in order.  Because sections
    validate field by field, this is the error applying the changes one
    after another would raise, so a failed multi-field build reports the
    same error whatever order it built its sections in.
    """
    for path, value in changes:
        try:
            index, name = section_field(path)
            build_section(getattr(spec, _SECTIONS[index][0]),
                          ((name, value),))
        except SECTION_ERRORS as error:
            return error
    return None


@dataclass(frozen=True)
class DesignSpec:
    """One declarative design point: tech + arch + workload + flow.

    The default spec is exactly the paper's case study — 64 MB RRAM,
    delta = beta = 1, one tier pair, the Sec. II CS, ResNet-18 at batch 1
    against the plain single-CS 2D baseline.
    """

    tech: TechSpec = field(default_factory=TechSpec)
    arch: ArchSpec = field(default_factory=ArchSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    flow: FlowSpec = field(default_factory=FlowSpec)

    # --- serialization ----------------------------------------------------

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical plain-JSON form; inverse of :meth:`from_jsonable`."""
        return {
            "tech": self.tech.to_jsonable(),
            "arch": self.arch.to_jsonable(),
            "workload": self.workload.to_jsonable(),
            "flow": self.flow.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "DesignSpec":
        """Build a spec from a plain JSON object.

        Sections may be omitted (defaults apply); unknown sections or keys
        raise :class:`~repro.errors.ConfigurationError` so a typo'd knob
        fails loudly instead of silently sweeping the default.
        """
        _require_mapping("spec", data)
        _check_keys("spec", data, tuple(name for name, _ in _SECTIONS))
        kwargs: dict[str, Any] = {}
        for section, section_cls in _SECTIONS:
            if section in data:
                kwargs[section] = section_cls.from_jsonable(data[section])
        return cls(**kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_jsonable(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "DesignSpec":
        """Parse a spec from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid spec JSON: {error}") from error
        return cls.from_jsonable(data)

    def fingerprint(self) -> str:
        """Content hash of the canonical JSON form.

        Stable across processes and object identities — two specs with
        equal knobs share one fingerprint however they were built, which
        is what makes spec-keyed caches survive a restart.
        """
        from repro.runtime.keys import stable_key

        return stable_key("repro.spec.DesignSpec", self.to_jsonable())

    # --- derivation -------------------------------------------------------

    def updated(self, changes: Mapping[str, Any] | None = None,
                ) -> "DesignSpec":
        """A copy with dotted-path overrides applied.

        ``spec.updated({"tech.delta": 1.6, "arch.capacity_mb": 32})``
        returns a new validated spec; an unknown path raises
        :class:`~repro.errors.ConfigurationError`, and so does setting
        ``arch.capacity_mb`` and ``arch.capacity_bits`` together.  Each
        changed section is built once by :func:`build_section`, the same
        builder sweep expansion uses; unchanged sections are shared.  An
        invalid override raises the error of the first invalid path in
        ``changes`` order.
        """
        if not changes:
            return self
        items = tuple(changes.items())
        sections = [self.tech, self.arch, self.workload, self.flow]
        try:
            grouped: dict[int, dict[str, tuple[str, Any]]] = {}
            for path, value in items:
                index, name = section_field(path)
                section_changes = grouped.setdefault(index, {})
                key = field_key(str(path))
                if key in section_changes:
                    raise ConfigurationError(
                        "give either arch.capacity_bits or "
                        "arch.capacity_mb, not both")
                section_changes[key] = (name, value)
            for index, section_changes in grouped.items():
                sections[index] = build_section(sections[index],
                                                section_changes.values())
        except SECTION_ERRORS as error:
            first = first_invalid_change(self, items)
            raise (error if first is None else first) from None
        return DesignSpec(*sections)

    def with_capacity(self, capacity_bits: int) -> "DesignSpec":
        """A copy at a different RRAM capacity."""
        return self.updated({"arch.capacity_bits": capacity_bits})

    def with_network(self, network: str) -> "DesignSpec":
        """A copy targeting a different model."""
        return self.updated({"workload.network": network})


def load_design_spec(path: str) -> DesignSpec:
    """Read a :class:`DesignSpec` from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ConfigurationError(f"cannot read spec {path!r}: {error}") \
            from error
    return DesignSpec.from_json(text)
