"""Generic JSON codec for the repository's frozen result dataclasses.

Every result object in this codebase is a tree of frozen dataclasses whose
fields are primitives, enums, tuples, dicts, or further dataclasses — and
every field participates in ``__init__``.  That regularity lets one codec
serve the whole repo: :func:`to_jsonable` lowers any such tree to plain
JSON types (tagging dataclasses, enums, and tuples so the shape survives),
and :func:`from_jsonable` reconstructs the original objects, re-running
each dataclass's ``__post_init__`` validation on the way back up.

The codec powers the disk result cache (:mod:`repro.runtime.cache`) and
the stable content hashes (:mod:`repro.runtime.keys`); the ``to_dict`` /
``from_dict`` helpers on :class:`repro.spec.evaluate.SpecEvaluation`
and friends delegate here.

Reconstruction only resolves classes from ``repro.*`` modules — a cache
file cannot name arbitrary importable types.

Canonical text — the sorted, minimally separated JSON of the lowering —
is what :func:`dumps` writes and what every content key hashes; the
encoder that builds it, with its leaf table and identity text cache, is
:func:`repro.runtime.keys.canonical`.  :func:`to_jsonable` itself
always returns a fresh tree — callers of ``to_dict()`` may freely mutate
the result.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import json
from typing import Any

#: Tag keys used in the lowered representation.
DATACLASS_TAG = "__dataclass__"
ENUM_TAG = "__enum__"
TUPLE_TAG = "__tuple__"
SET_TAG = "__set__"
FROZENSET_TAG = "__frozenset__"
DICT_TAG = "__dict__"

TAGS = (DATACLASS_TAG, ENUM_TAG, TUPLE_TAG, SET_TAG, FROZENSET_TAG,
        DICT_TAG)

#: Module prefix reconstruction is restricted to.
TRUSTED_PREFIX = "repro"

def to_jsonable(obj: Any) -> Any:
    """Lower ``obj`` to a tree of plain JSON types.

    Always builds a fresh tree (callers may mutate the result).

    Raises:
        TypeError: for values outside the supported vocabulary
            (primitives, lists, tuples, str-keyed dicts, enums, and
            dataclass instances).
    """
    return _lower(obj)


def _lower(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {ENUM_TAG: type_path(type(obj)), "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: _lower(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return {DATACLASS_TAG: type_path(type(obj)), "fields": fields}
    if isinstance(obj, tuple):
        return {TUPLE_TAG: [_lower(item) for item in obj]}
    if isinstance(obj, (set, frozenset)):
        # Sort by canonical text so the lowering (and any hash of it) is
        # independent of insertion order.
        lowered = sorted((_lower(item) for item in obj),
                         key=lambda item: json.dumps(item, sort_keys=True))
        tag = FROZENSET_TAG if isinstance(obj, frozenset) else SET_TAG
        return {tag: lowered}
    if isinstance(obj, list):
        return [_lower(item) for item in obj]
    if isinstance(obj, dict):
        lowered = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"cannot serialize dict key {key!r}: only str keys supported")
            lowered[key] = _lower(value)
        if any(tag in lowered for tag in TAGS):
            # Escape dicts whose own keys collide with the codec's tags.
            return {DICT_TAG: [[k, v] for k, v in lowered.items()]}
        return lowered
    raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def from_jsonable(data: Any) -> Any:
    """Reconstruct the object tree lowered by :func:`to_jsonable`."""
    if isinstance(data, list):
        return [from_jsonable(item) for item in data]
    if not isinstance(data, dict):
        return data
    if DATACLASS_TAG in data:
        cls = _resolve(data[DATACLASS_TAG])
        if not dataclasses.is_dataclass(cls):
            raise TypeError(f"{data[DATACLASS_TAG]} is not a dataclass")
        kwargs = {name: from_jsonable(value)
                  for name, value in data["fields"].items()}
        return cls(**kwargs)
    if ENUM_TAG in data:
        cls = _resolve(data[ENUM_TAG])
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise TypeError(f"{data[ENUM_TAG]} is not an enum")
        return cls[data["name"]]
    if TUPLE_TAG in data:
        return tuple(from_jsonable(item) for item in data[TUPLE_TAG])
    if SET_TAG in data:
        return {from_jsonable(item) for item in data[SET_TAG]}
    if FROZENSET_TAG in data:
        return frozenset(from_jsonable(item) for item in data[FROZENSET_TAG])
    if DICT_TAG in data:
        return {key: from_jsonable(value) for key, value in data[DICT_TAG]}
    return {key: from_jsonable(value) for key, value in data.items()}


def dumps(obj: Any) -> str:
    """Canonical JSON text for ``obj`` (sorted keys, minimal separators).

    The output is deterministic across processes and Python versions,
    which is what makes it usable both as cache-file content and as
    hash input for :func:`repro.runtime.keys.stable_key`; it is built by
    the key encoder, :func:`repro.runtime.keys.canonical`.
    """
    from repro.runtime.keys import canonical

    return canonical(obj)


def loads(text: str) -> Any:
    """Inverse of :func:`dumps`."""
    return from_jsonable(json.loads(text))


def type_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve(path: str) -> type:
    module_name, _, qualname = path.partition(":")
    if module_name != TRUSTED_PREFIX and not module_name.startswith(
            TRUSTED_PREFIX + "."):
        raise TypeError(f"refusing to resolve type outside "
                        f"{TRUSTED_PREFIX!r}: {path!r}")
    module = importlib.import_module(module_name)
    target: Any = module
    for part in qualname.split("."):
        target = getattr(target, part)
    return target
