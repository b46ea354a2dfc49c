"""Stable content-addressed cache keys: the repository's one key encoder.

A key is the SHA-256 of the *canonical text* of its parts — the JSON
lowering (:func:`repro.runtime.serialize.to_jsonable`) dumped with sorted
keys and minimal separators — so it is

* *stable across processes* — no dependence on ``id()``, ``hash()``
  randomization, or dict iteration order;
* *content-addressed* — two PDKs (or networks, or knob sets) that compare
  equal field-by-field produce the same key, however they were built;
* *sensitive to every field* — changing any constant inside a nested
  dataclass (an ILV pitch, a cell height, a layer shape) changes the key.

Every key in the repository is built here: :func:`call_key` (the
engine's result cache, the server's cache probe, pool task tokens),
:func:`stable_key` (``chunk_hash``, ``checkpoint_key`` and the
``resolve`` / ``tech_pdk`` / ``scaled_pdk`` memo keys over a PDK) and
:func:`plain_key` (``DesignSpec.fingerprint``).

:func:`canonical` builds the text by string composition, with two
caches:

* **by value** — a *flat* frozen dataclass (every field ``None``, a
  bool, an int, a float or a str: a spec section) is cached on its class
  plus each field's type and value, so ``1``, ``1.0`` and ``True`` never
  share an entry (a float zero keys on its repr, so ``-0.0`` and ``0.0``
  do not either).  A server request's fresh sections hit it.
* **by identity** — flat objects, and frozen dataclasses whose text is
  large (a PDK, a network), are cached on ``id()``; :func:`stable_key` of
  one such object also caches its digest.  Sweep points share section
  objects, so their keys assemble from identity hits; a whole spec is
  re-assembled rather than cached.  Each entry pins its object, so the
  id cannot be recycled, and frozen objects are never mutated in place
  (the repo-wide convention), so the text stays valid.  The default PDK
  is one shared object (:func:`repro.tech.pdk.foundry_m3d_pdk`), so its
  12 KB text is encoded about once per process, not once per call.

:func:`set_fingerprint_cache` turns both caches off (benchmarks' uncached
arm); the text is identical either way.  The module imports nothing
heavier than :mod:`hashlib` and :mod:`json`: ``repro serve`` loads no
numpy.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Any

from repro.runtime.serialize import (
    DATACLASS_TAG,
    ENUM_TAG,
    TAGS,
    TUPLE_TAG,
    to_jsonable,
    type_path,
)

__all__ = [
    "FINGERPRINT_CACHE_MAX_ENTRIES",
    "IDENTITY_CACHE_MIN_CHARS",
    "VALUE_CACHE_MAX_ENTRIES",
    "call_key",
    "canonical",
    "clear_fingerprint_cache",
    "fingerprint_cache_enabled",
    "plain_key",
    "set_fingerprint_cache",
    "stable_key",
]

#: Identity-cache entry bound (cleared when full; entries pin objects).
FINGERPRINT_CACHE_MAX_ENTRIES = 1024

#: Shortest non-flat text the identity cache keeps: smaller composites
#: (a whole spec) re-assemble from cached sections faster than an entry
#: pays for itself.
IDENTITY_CACHE_MIN_CHARS = 2048

#: Value-cache entry bound (cleared when full).
VALUE_CACHE_MAX_ENTRIES = 65536

#: ``json.dumps(x, sort_keys=True, separators=(",", ":"))``, without
#: building an encoder per call.
_sorted_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_LEAF_TYPES = frozenset({type(None), bool, int, float, str})

#: id(obj) -> [obj, canonical text, stable_key(obj) or None].  The strong
#: reference pins the id for the entry's lifetime.
_by_identity: dict[int, list] = {}

#: (class, v1, type(v1), v2, type(v2), ...) -> canonical text.
_by_value: dict[tuple, str] = {}

#: class -> its _Layout.
_layouts: dict[type, "_Layout"] = {}

#: Whether the caches serve and store (see set_fingerprint_cache).
_enabled = True


def set_fingerprint_cache(enabled: bool) -> bool:
    """Enable/disable the encoder's caches; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    if not enabled:
        clear_fingerprint_cache()
    return previous


def fingerprint_cache_enabled() -> bool:
    """Whether :func:`canonical` caches text by value and by identity."""
    return _enabled


def clear_fingerprint_cache() -> None:
    """Drop both caches (releases the pinned objects)."""
    _by_identity.clear()
    _by_value.clear()


def stable_key(*parts: Any) -> str:
    """Hex digest keying the content of ``parts``.

    Raises:
        TypeError: when a part cannot be lowered to JSON (see
            :func:`repro.runtime.serialize.to_jsonable`); callers that
            want a soft failure catch this and skip caching.
    """
    if len(parts) == 1:
        entry = _by_identity.get(id(parts[0]))
        if entry is not None and entry[0] is parts[0]:
            if entry[2] is None:
                entry[2] = _sha256(f"[{entry[1]}]")
            return entry[2]
    return _sha256("[" + ",".join(map(_encode, parts)) + "]")


def call_key(fn: Any, args: tuple, kwargs: dict) -> str:
    """Key for one function call: qualified name + argument content.

    ``stable_key(name, list(args), dict(kwargs))``, assembled without
    the intermediate list and dict.
    """
    name = _quote(f"{fn.__module__}.{fn.__qualname__}")
    options = _encode_dict(dict(kwargs)) if kwargs else "{}"
    return _sha256(f"[{name},[{','.join(map(_encode, args))}],{options}]")


def plain_key(tag: str, obj: Any) -> str:
    """``stable_key(tag, dataclasses.asdict(obj))`` for a dataclass whose
    fields are JSON leaves or further such dataclasses.

    The untagged form of a :class:`~repro.spec.design.DesignSpec` (its
    ``to_jsonable()``), built from the sections' value-cached text.
    """
    return _sha256(f"[{_quote(tag)},{_plain(obj)}]")


def canonical(obj: Any) -> str:
    """Canonical JSON text of ``obj``.

    Byte-identical to ``json.dumps(to_jsonable(obj), sort_keys=True,
    separators=(",", ":"))``, the text every key hashes.
    """
    return _encode(obj)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Layout:
    """How to encode one dataclass type: its sorted field ``names``, a
    ``values`` getter in that order, the tagged form's ``prefix``, a
    generated ``fields(obj, encode)`` that builds the JSON object of the
    fields, and — while every instance seen held only JSON leaves — the
    generated ``value_key(obj) -> (class, v1, type(v1), ...)``."""

    __slots__ = ("names", "values", "fields", "prefix", "frozen",
                 "value_key")

    def __init__(self, cls: type) -> None:
        names = tuple(sorted(field.name for field in dataclasses.fields(cls)))
        self.names = names
        self.values = attrgetter(*names) if len(names) > 1 else \
            (lambda obj: tuple(getattr(obj, name) for name in names))
        # Key order mirrors sort_keys: "__dataclass__" < "fields".
        self.prefix = (f'{{"{DATACLASS_TAG}":{json.dumps(type_path(cls))},'
                       f'"fields":')
        self.frozen = cls.__dataclass_params__.frozen
        # Both hot functions are generated (as namedtuple and dataclasses
        # generate theirs): one f-string builds the fields object, and the
        # value key is one flat tuple, which hashes in a third of the time
        # of nested (values, types) tuples.  Field names are identifiers.
        scope = {f"q{i}": json.dumps(name) for i, name in enumerate(names)}
        scope.update(cls=cls, type=type)
        body = ",".join(f"{{q{i}}}:{{encode(obj.{name})}}"
                        for i, name in enumerate(names))
        self.fields = eval(f'lambda obj, encode: f"{{{{{body}}}}}"', scope)
        key = "".join(f"obj.{name}, type(obj.{name}), " for name in names)
        self.value_key = eval(f"lambda obj: (cls, {key})", scope) \
            if self.frozen else None


def _layout(cls: type) -> _Layout:
    layout = _layouts.get(cls)
    if layout is None:
        layout = _layouts[cls] = _Layout(cls)
    return layout


def _value_text(obj: Any, layout: _Layout, key: tuple | None) -> str | None:
    """Canonical text of a frozen dataclass that missed the value cache
    under ``key`` (``None``: unhashable); ``None`` when a field is not a
    JSON leaf."""
    values = layout.values(obj)
    if key is None or not _LEAF_TYPES.issuperset(map(type, values)):
        layout.value_key = None
        return None
    if 0.0 in values and any(type(value) is float and not value
                             for value in values):
        # -0.0 == 0.0 and both hash alike, but they encode apart: values
        # with a float zero key on their reprs, so no plain key hits them.
        key = (type(obj), repr(values))
        text = _by_value.get(key)
        if text is not None:
            return text
    text = layout.prefix + _sorted_json(dict(zip(layout.names, values))) + "}"
    if len(_by_value) >= VALUE_CACHE_MAX_ENTRIES:
        _by_value.clear()
    _by_value[key] = text
    return text


def _encode_dataclass(obj: Any, layout: _Layout) -> str:
    """Canonical text of a dataclass the identity cache does not hold."""
    if not (_enabled and layout.frozen):
        return layout.prefix + layout.fields(obj, _encode) + "}"
    text = None
    if layout.value_key is not None:
        key = layout.value_key(obj)
        try:
            text = _by_value.get(key)
        except TypeError:  # an unhashable field, so not a leaf
            key = None
        if text is None:
            text = _value_text(obj, layout, key)
    if text is None:
        text = layout.prefix + layout.fields(obj, _encode) + "}"
        if len(text) < IDENTITY_CACHE_MIN_CHARS:
            return text
    if len(_by_identity) >= FINGERPRINT_CACHE_MAX_ENTRIES:
        _by_identity.clear()
    _by_identity[id(obj)] = [obj, text, None]
    return text


def _plain(obj: Any) -> str:
    layout = _layouts.get(type(obj))
    if layout is None:
        if type(obj) in _LEAF_TYPES:
            return json.dumps(obj)
        if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
            raise TypeError(f"plain_key covers dataclasses of JSON leaves, "
                            f"not {type(obj).__name__} value {obj!r}")
        layout = _layout(type(obj))
    if _enabled and layout.value_key is not None:
        text = _encode(obj)
        if layout.value_key is not None:
            return text[len(layout.prefix):-1]
    return layout.fields(obj, _plain)


def _encode(obj: Any) -> str:
    entry = _by_identity.get(id(obj))
    if entry is not None and entry[0] is obj:
        return entry[1]
    cls = type(obj)
    layout = _layouts.get(cls)
    if layout is not None:
        return _encode_dataclass(obj, layout)
    if cls is str:
        return _quote(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return json.dumps(obj)
    if isinstance(obj, enum.Enum):
        # Key order mirrors sort_keys: "__enum__" < "name".
        return (f'{{"{ENUM_TAG}":{json.dumps(type_path(cls))},'
                f'"name":{json.dumps(obj.name)}}}')
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _encode_dataclass(obj, _layout(cls))
    if isinstance(obj, tuple):
        return f'{{"{TUPLE_TAG}":[' + ",".join(map(_encode, obj)) + "]}"
    if isinstance(obj, list):
        return "[" + ",".join(map(_encode, obj)) + "]"
    if isinstance(obj, dict):
        return _encode_dict(obj)
    if isinstance(obj, (set, frozenset)):
        # Sets need the tree-level sort; defer to the tree lowering.
        return _sorted_json(to_jsonable(obj))
    raise TypeError(f"cannot serialize {cls.__name__} value {obj!r}")


def _encode_dict(obj: dict) -> str:
    if not obj:
        return "{}"
    for key in obj:
        if not isinstance(key, str):
            raise TypeError(
                f"cannot serialize dict key {key!r}: only str keys supported")
    if not obj.keys().isdisjoint(TAGS):
        # Tag-escaped dicts keep insertion order inside a list; defer to
        # the tree lowering for this rare shape.
        return _sorted_json(to_jsonable(obj))
    return "{" + ",".join([f"{_quote(key)}:{_encode(obj[key])}"
                           for key in sorted(obj)]) + "}"
