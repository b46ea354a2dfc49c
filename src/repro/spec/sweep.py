"""Declarative sweeps over :class:`~repro.spec.design.DesignSpec` axes.

A :class:`SweepSpec` turns one base spec into many: ``grid`` axes expand
full-factorially (the joint-DSE shape), ``zip`` axes advance in lockstep
(paired knobs, e.g. a delta matched to each capacity), and ``points``
appends an explicit list of extra specs.  Axes name spec fields by dotted
path (``"tech.delta"``, ``"arch.capacity_mb"``) — an unknown path fails at
construction, not halfway through a sweep, and so do two axes that set one
field (``"arch.capacity_mb"`` sets ``"arch.capacity_bits"``), whether both
are grid axes, both zip axes, or one of each.

Like the design spec itself, a sweep is frozen, validated, and round-trips
through plain JSON::

    {
      "base": {"workload": {"network": "resnet18"}},
      "grid": {"arch.capacity_mb": [32, 64, 128], "tech.delta": [1.0, 2.0]},
      "zip":  {},
      "points": []
    }

Expansion order is deterministic: zip combinations outermost, then the
grid axes in declaration order (itertools.product semantics), then the
explicit points.  Expansion builds each spec section once per combination
of its own axis values and shares it between points, with memory bounded
by the axes, not by the points walked (see :meth:`SweepSpec.iter_specs`).
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.errors import ConfigurationError, require
from repro.spec.design import (
    SECTION_ERRORS,
    DesignSpec,
    build_section,
    field_key,
    field_paths,
    first_invalid_change,
    section_field,
)

__all__ = ["SweepSpec", "load_sweep_spec"]

Axes = tuple[tuple[str, tuple[Any, ...]], ...]


#: ``(path, values)`` grid axes whose duplicate warning already fired.
#: Axis normalization runs once per *construction*, but one logical sweep
#: is reconstructed many times along the streaming paths — wire decode on
#: the server, checkpoint resume, chunk replay — which used to re-warn
#: per reconstruction (once per chunk on streamed sweeps).  Keying the
#: warning on the axis content makes "warn once per sweep" structural
#: instead of relying on the process's ``warnings`` filters.
_warned_duplicate_axes: set = set()


def reset_duplicate_axis_warnings() -> None:
    """Forget which duplicated grid axes have warned (for tests)."""
    _warned_duplicate_axes.clear()


def _warn_duplicate_axis(path: str, values: tuple, dropped: int) -> None:
    try:
        fingerprint = (path, values)
        if fingerprint in _warned_duplicate_axes:
            return
        _warned_duplicate_axes.add(fingerprint)
    except TypeError:
        pass                       # unhashable values: always warn
    warnings.warn(
        f"grid axis {path!r} repeats {dropped} value(s); duplicates "
        "are dropped (first occurrence wins)",
        stacklevel=4)


def _normalized_axes(kind: str, axes: Any) -> Axes:
    """Validate and freeze one axis block (mapping or pair sequence).

    Grid axes deduplicate repeated values (first occurrence wins) with a
    warning: a duplicate grid value would silently expand the same spec
    twice, inflating every count derived from ``len(sweep)``.  The
    warning fires once per distinct ``(axis, values)`` content, however
    many times the sweep is re-normalized (streaming and serving decode
    the same sweep repeatedly); see
    :func:`reset_duplicate_axis_warnings`.  Zip axes keep duplicates —
    their values pair positionally with the other zip axes, so a
    repeated value can still denote a distinct combination.
    """
    if isinstance(axes, Mapping):
        pairs = list(axes.items())
    else:
        pairs = [tuple(pair) for pair in axes]
    valid = set(field_paths()) | {"arch.capacity_mb"}
    normalized: list[tuple[str, tuple[Any, ...]]] = []
    seen: set[str] = set()
    for path, values in pairs:
        if path not in valid:
            raise ConfigurationError(
                f"unknown {kind} axis {path!r}; valid paths: "
                f"{', '.join(sorted(valid))}")
        if path in seen:
            raise ConfigurationError(f"duplicate {kind} axis {path!r}")
        seen.add(path)
        values = tuple(values)
        if kind == "grid":
            unique = tuple(dict.fromkeys(values))
            if len(unique) != len(values):
                _warn_duplicate_axis(path, values,
                                     len(values) - len(unique))
                values = unique
        require(len(values) > 0, f"{kind} axis {path!r} must not be empty")
        normalized.append((path, values))
    return tuple(normalized)


def _require_one_axis_per_field(grid: Axes, zipped: Axes) -> None:
    """Reject two axes that set one field (``capacity_mb`` is
    ``capacity_bits``), within one axis kind or across kinds: one of them
    would silently override the other and every point would repeat."""
    named: dict[str, str] = {}
    for kind, axes in (("grid", grid), ("zip", zipped)):
        for path, _ in axes:
            target = field_key(path)
            if target in named:
                raise ConfigurationError(
                    f"{named[target]} and {kind} axis {path!r} both set "
                    f"{target}; give each field one axis")
            named[target] = f"{kind} axis {path!r}"


@dataclass(frozen=True)
class SweepSpec:
    """A base design spec plus grid / zip / explicit-point axes.

    Attributes:
        base: The spec every axis perturbs.
        grid: Full-factorial axes, ``((path, values), ...)``; also accepts
            a ``{path: values}`` mapping at construction.
        zipped: Lockstep axes (all the same length); JSON key ``"zip"``.
        points: Extra fully-formed specs appended after the expansion.

    Each spec field takes at most one axis, counting grid and zip axes
    together; a second axis on the same field raises
    :class:`~repro.errors.ConfigurationError` naming both paths.
    """

    base: DesignSpec = field(default_factory=DesignSpec)
    grid: Axes = ()
    zipped: Axes = ()
    points: tuple[DesignSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _normalized_axes("grid", self.grid))
        object.__setattr__(self, "zipped",
                           _normalized_axes("zip", self.zipped))
        _require_one_axis_per_field(self.grid, self.zipped)
        lengths = {len(values) for _, values in self.zipped}
        require(len(lengths) <= 1,
                "zip axes must all have the same length, got lengths "
                f"{sorted(lengths)}")
        object.__setattr__(self, "points", tuple(self.points))
        for point in self.points:
            require(isinstance(point, DesignSpec),
                    "sweep points must be DesignSpec instances")

    # --- expansion --------------------------------------------------------

    def iter_specs(self) -> Iterator[DesignSpec]:
        """Lazily yield every concrete :class:`DesignSpec`, in order.

        This is the streaming counterpart of :meth:`expand`: a
        million-point grid costs one spec of memory at a time, so the
        streaming executor (:mod:`repro.sweep.stream`) can walk grids far
        too large to materialize.  The order is identical to
        :meth:`expand`.

        Each section (tech, arch, workload, flow) is built only when one
        of its own axes moves, by the same validated
        :func:`~repro.spec.design.build_section` that
        :meth:`DesignSpec.updated` uses, and points share their sections.
        Memory stays bounded by the axes, never by the points walked: a
        section whose axes lead the product order keeps only its current
        value, and a section that cycles under an outer axis of another
        section keeps one entry per value of its innermost axis (keyed by
        position, so ``1``, ``1.0`` and ``True`` never share an entry),
        dropped whenever another of its own axes moves.  An invalid value
        raises at the first point that holds it, with the error of that
        point's first invalid path in zip-then-grid order, as if the
        point's overrides were applied one at a time.
        """
        if not (self.grid or self.zipped):
            yield self.base
        else:
            yield from _expand(self.base, self.zipped, self.grid)
        yield from self.points

    def chunks(self, size: int) -> Iterator[tuple[DesignSpec, ...]]:
        """Lazily yield the sweep's specs in chunks of ``size``.

        The last chunk may be shorter; no chunk is empty.  Backed by
        :meth:`iter_specs`, so only one chunk is ever materialized.
        """
        require(size >= 1, "chunk size must be >= 1")
        specs = self.iter_specs()
        while True:
            chunk = tuple(itertools.islice(specs, size))
            if not chunk:
                return
            yield chunk

    def expand(self) -> tuple[DesignSpec, ...]:
        """Every concrete :class:`DesignSpec` of the sweep, in order."""
        return tuple(self.iter_specs())

    def __len__(self) -> int:
        count = len(self.zipped[0][1]) if self.zipped else 1
        for _, values in self.grid:
            count *= len(values)
        return count + len(self.points)

    # --- serialization ----------------------------------------------------

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical plain-JSON form; inverse of :meth:`from_jsonable`."""
        return {
            "base": self.base.to_jsonable(),
            "grid": {path: list(values) for path, values in self.grid},
            "zip": {path: list(values) for path, values in self.zipped},
            "points": [point.to_jsonable() for point in self.points],
        }

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build a sweep from a plain JSON object.

        ``points`` entries are *partial* spec objects merged over ``base``
        (a full spec object therefore overrides everything, which is what
        :meth:`to_jsonable` emits — so the round trip is exact).
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"sweep spec must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - {"base", "grid", "zip", "points"})
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) in sweep spec: {', '.join(unknown)}; "
                "allowed: base, grid, zip, points")
        base = DesignSpec.from_jsonable(data.get("base", {}))
        points = []
        for overlay in data.get("points", ()):
            if not isinstance(overlay, Mapping):
                raise ConfigurationError(
                    "sweep points must be JSON objects")
            merged = _merge(base.to_jsonable(), overlay)
            points.append(DesignSpec.from_jsonable(merged))
        return cls(base=base, grid=data.get("grid", {}),
                   zipped=data.get("zip", {}), points=tuple(points))

    def to_json(self, indent: int | None = 2) -> str:
        """The sweep as a JSON document."""
        return json.dumps(self.to_jsonable(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a sweep from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"invalid sweep JSON: {error}") from error
        return cls.from_jsonable(data)

    def fingerprint(self) -> str:
        """Content hash of the canonical JSON form."""
        from repro.runtime.keys import stable_key

        return stable_key("repro.spec.SweepSpec", self.to_jsonable())


def _expand(base: DesignSpec, zipped: Axes, grid: Axes,
            ) -> Iterator[DesignSpec]:
    """The grid and zip points of a sweep, in order (see ``iter_specs``).

    Product order has one *level* for the whole zip block, then one per
    grid axis.  A level sets the fields its axes name, and a section is
    built at its innermost level: the last level that sets one of its
    fields.
    """
    levels: list[Axes] = ([zipped] if zipped else []) + [
        (axis,) for axis in grid]
    sets = [[(*section_field(path), values) for path, values in axes]
            for axes in levels]
    owned: dict[int, list[int]] = {}
    for depth, level_sets in enumerate(sets):
        for index, _, _ in level_sets:
            depths = owned.setdefault(index, [])
            if depth not in depths:
                depths.append(depth)
    # Per level: the memos it clears and the sections it builds, each
    # with its memo (None for a leading section, which keeps no memo).
    clears: list[list[dict]] = [[] for _ in levels]
    builds: list[list[tuple[int, dict | None]]] = [[] for _ in levels]
    for index, depths in owned.items():
        innermost = depths[-1]
        # Another section's level before the innermost one makes this
        # section cycle back to earlier values.
        memo: dict | None = {} if len(depths) <= innermost else None
        builds[innermost].append((index, memo))
        if memo is not None:
            for depth in depths[:-1]:
                clears[depth].append(memo)

    base_sections = (base.tech, base.arch, base.workload, base.flow)
    sections = list(base_sections)
    current: list[dict[str, Any]] = [{} for _ in sections]
    positions = [0] * len(levels)
    last = len(levels) - 1

    def build(index: int, depth: int) -> Any:
        try:
            return build_section(base_sections[index],
                                 current[index].items())
        except SECTION_ERRORS as error:
            # Levels past ``depth`` name later paths, so they never
            # hold the point's first invalid change.
            changes = [(path, values[positions[level]])
                       for level in range(depth + 1)
                       for path, values in levels[level]]
            first = first_invalid_change(base, changes)
            raise (error if first is None else first) from None

    def walk(depth: int) -> Iterator[DesignSpec]:
        for position in range(len(levels[depth][0][1])):
            positions[depth] = position
            for index, name, values in sets[depth]:
                current[index][name] = values[position]
            for memo in clears[depth]:
                memo.clear()
            for index, memo in builds[depth]:
                if memo is None:
                    sections[index] = build(index, depth)
                else:
                    section = memo.get(position)
                    if section is None:
                        section = memo[position] = build(index, depth)
                    sections[index] = section
            if depth == last:
                yield DesignSpec(*sections)
            else:
                yield from walk(depth + 1)

    yield from walk(0)


def _merge(base: dict[str, Any], overlay: Mapping[str, Any]) -> dict[str, Any]:
    """One-level-deep section merge of a partial spec over a full one."""
    merged = {section: dict(values) for section, values in base.items()}
    for section, values in overlay.items():
        if isinstance(values, Mapping) and section in merged:
            merged[section].update(values)
            if "capacity_mb" in merged[section]:
                merged[section].pop("capacity_bits", None)
        else:
            merged[section] = values
    return merged


def load_sweep_spec(path: str) -> SweepSpec:
    """Read a :class:`SweepSpec` from a JSON file.

    A file holding a plain :class:`DesignSpec` (``tech``/``arch``/
    ``workload`` sections, no axes) loads as a one-point sweep, so ``repro
    sweep --spec`` accepts both shapes.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read sweep {path!r}: {error}") \
            from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid sweep JSON: {error}") from error
    if isinstance(data, Mapping) and not (
            {"base", "grid", "zip", "points"} & set(data)):
        return SweepSpec(base=DesignSpec.from_jsonable(data))
    return SweepSpec.from_jsonable(data)
