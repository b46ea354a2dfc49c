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

Hashing the same PDK and network for every point of a sweep used to
dominate the engine's bookkeeping, so :func:`dumps` memoizes the
*canonical JSON text* of frozen dataclass instances in an identity-keyed
fingerprint cache: the first ``stable_key`` over a PDK serializes its
whole tree, subsequent keys splice the cached string and pay only the
final hash.  Entries hold strong references, so an id cannot be recycled
while its entry lives; frozen dataclasses cannot be reassigned, which
keeps cached text valid (the repo-wide convention that value objects are
never mutated in place extends to any mutable leaves they contain).
:func:`to_jsonable` itself always returns a fresh tree — callers of
``to_dict()`` may freely mutate the result.
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

_TAGS = (DATACLASS_TAG, ENUM_TAG, TUPLE_TAG, SET_TAG, FROZENSET_TAG,
         DICT_TAG)

#: Module prefix reconstruction is restricted to.
TRUSTED_PREFIX = "repro"

#: Fingerprint-cache entry bound (FIFO eviction; entries pin their object).
FINGERPRINT_CACHE_MAX_ENTRIES = 1024

#: id(obj) -> (obj, canonical JSON text).  The strong reference in the
#: value pins the id for the entry's lifetime, making the id key
#: collision-free.
_fingerprint_cache: dict[int, tuple[Any, str]] = {}
_fingerprint_cache_enabled = True


def set_fingerprint_cache(enabled: bool) -> bool:
    """Enable/disable lowering memoization; returns the previous state."""
    global _fingerprint_cache_enabled
    previous = _fingerprint_cache_enabled
    _fingerprint_cache_enabled = bool(enabled)
    if not enabled:
        _fingerprint_cache.clear()
    return previous


def fingerprint_cache_enabled() -> bool:
    """Whether :func:`dumps` memoizes frozen-dataclass lowerings."""
    return _fingerprint_cache_enabled


def clear_fingerprint_cache() -> None:
    """Drop every cached lowering (releases the pinned objects)."""
    _fingerprint_cache.clear()


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
        return {ENUM_TAG: _type_path(type(obj)), "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: _lower(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return {DATACLASS_TAG: _type_path(type(obj)), "fields": fields}
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
        if any(tag in lowered for tag in _TAGS):
            # Escape dicts whose own keys collide with the codec's tags.
            return {DICT_TAG: [[k, v] for k, v in lowered.items()]}
        return lowered
    raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def _canonical(obj: Any, cache: bool) -> str:
    """Canonical JSON text of ``obj``.

    Byte-identical to ``json.dumps(_lower(obj), sort_keys=True,
    separators=(",", ":"))``, but built by string composition so frozen
    dataclass subtrees can be served verbatim from the fingerprint cache
    (a sweep hashes the same PDK/network/design objects hundreds of
    times; re-walking their trees dominated the engine's bookkeeping).
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return json.dumps(obj)
    if isinstance(obj, enum.Enum):
        # Key order mirrors sort_keys: "__enum__" < "name".
        return (f'{{"{ENUM_TAG}":{json.dumps(_type_path(type(obj)))},'
                f'"name":{json.dumps(obj.name)}}}')
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cacheable = cache and type(obj).__dataclass_params__.frozen
        if cacheable:
            entry = _fingerprint_cache.get(id(obj))
            if entry is not None and entry[0] is obj:
                return entry[1]
        names = sorted(field.name for field in dataclasses.fields(obj))
        body = ",".join(
            f"{json.dumps(name)}:{_canonical(getattr(obj, name), cache)}"
            for name in names)
        # Key order mirrors sort_keys: "__dataclass__" < "fields".
        text = (f'{{"{DATACLASS_TAG}":{json.dumps(_type_path(type(obj)))},'
                f'"fields":{{{body}}}}}')
        if cacheable:
            if len(_fingerprint_cache) >= FINGERPRINT_CACHE_MAX_ENTRIES:
                _fingerprint_cache.pop(next(iter(_fingerprint_cache)))
            _fingerprint_cache[id(obj)] = (obj, text)
        return text
    if isinstance(obj, tuple):
        body = ",".join(_canonical(item, cache) for item in obj)
        return f'{{"{TUPLE_TAG}":[{body}]}}'
    if isinstance(obj, list):
        return "[" + ",".join(_canonical(item, cache) for item in obj) + "]"
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(
                    f"cannot serialize dict key {key!r}: only str keys supported")
        if any(tag in obj for tag in _TAGS):
            # Tag-escaped dicts keep insertion order inside a list; defer
            # to the tree lowering for this rare shape.
            return json.dumps(_lower(obj), sort_keys=True,
                              separators=(",", ":"))
        return "{" + ",".join(
            f"{json.dumps(key)}:{_canonical(obj[key], cache)}"
            for key in sorted(obj)) + "}"
    if isinstance(obj, (set, frozenset)):
        # Sets need the tree-level sort; defer to the tree lowering.
        return json.dumps(_lower(obj), sort_keys=True,
                          separators=(",", ":"))
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
    hash input for :func:`repro.runtime.keys.stable_key`.  Frozen
    dataclass subtrees serialize through the fingerprint cache, so
    repeated keys over the same PDK/network objects skip the recursive
    walk entirely.
    """
    return _canonical(obj, cache=_fingerprint_cache_enabled)


def loads(text: str) -> Any:
    """Inverse of :func:`dumps`."""
    return from_jsonable(json.loads(text))


def _type_path(cls: type) -> str:
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
