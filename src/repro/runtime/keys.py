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

:func:`canonical` builds the text by string composition:

* **leaves** — an exact ``None``, ``bool``, ``int``, ``float`` or ``str``
  encodes through a type -> text table (``json.dumps``'s text, ``NaN``
  and ``Infinity`` included); subclasses such as an ``IntEnum`` keep the
  ``json.dumps`` branch, so the table never captures one;
* **dataclasses** — each class gets a generated f-string over its sorted
  fields, so a dataclass's text is one f-string over its fields' text.
  A *flat* frozen dataclass (every field an exact leaf: a spec section)
  has a second one that encodes its leaves inline through the table;
* **by identity** — flat objects, and frozen dataclasses whose text is
  large (a PDK, a network), are cached on ``id()``; :func:`stable_key` of
  one such object also caches its digest.  Sweep points share section
  objects, so a spec's key is four identity lookups, one f-string and one
  SHA-256; a whole spec is re-assembled rather than cached.  Each entry
  pins its object, so the id cannot be recycled, and frozen objects are
  never mutated in place (the repo-wide convention), so the text stays
  valid.  The default PDK is one shared object
  (:func:`repro.tech.pdk.foundry_m3d_pdk`), so its 12 KB text is encoded
  about once per process, not once per call.

The module imports nothing heavier than :mod:`hashlib` and :mod:`json`:
``repro serve`` loads no numpy.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote
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
    "call_key",
    "canonical",
    "clear_fingerprint_cache",
    "plain_key",
    "stable_key",
]

#: Identity-cache entry bound (cleared when full; entries pin objects).
FINGERPRINT_CACHE_MAX_ENTRIES = 1024

#: Shortest non-flat text the identity cache keeps: smaller composites
#: (a whole spec) re-assemble from cached sections faster than an entry
#: pays for itself.
IDENTITY_CACHE_MIN_CHARS = 2048

#: ``json.dumps(x, sort_keys=True, separators=(",", ":"))``, without
#: building an encoder per call.
_sorted_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_INFINITY = float("inf")


def _float_text(value: float) -> str:
    # json's floatstr: repr, except for the non-finite spellings.
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


#: Exact JSON leaf type -> its ``json.dumps`` text.  Keyed on the exact
#: type, so a subclass (an ``IntEnum``, a ``str`` subclass) never hits it.
_LEAF_TEXT = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: _float_text,
    str: _quote,
}

#: id(obj) -> [obj, canonical text, stable_key(obj) or None].  The strong
#: reference pins the id for the entry's lifetime.
_by_identity: dict[int, list] = {}

#: class -> its _Layout.
_layouts: dict[type, "_Layout"] = {}

def clear_fingerprint_cache() -> None:
    """Drop the identity cache (releases the pinned objects)."""
    _by_identity.clear()


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

    ``stable_key(name, list(args), dict(kwargs))``, assembled as one
    join over the arguments' text.
    """
    name = _quote(f"{fn.__module__}.{fn.__qualname__}")
    values = _encode(args[0]) if len(args) == 1 \
        else ",".join(map(_encode, args))
    options = _encode_dict(dict(kwargs)) if kwargs else "{}"
    return _sha256(f"[{name},[{values}],{options}]")


def plain_key(tag: str, obj: Any) -> str:
    """``stable_key(tag, dataclasses.asdict(obj))`` for a dataclass whose
    fields are JSON leaves or further such dataclasses.

    The untagged form of a :class:`~repro.spec.design.DesignSpec` (its
    ``to_jsonable()``), built from the sections' cached text.
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
    """How to encode one dataclass type: the tagged form's ``prefix``,
    a generated ``text(obj, encode)`` that builds the whole tagged text
    with ``encode`` for each field, and a generated ``leaf_text(obj,
    table)`` that encodes every field through the leaf table (a
    ``KeyError`` names a field that is not an exact leaf).  ``flat``
    holds while every frozen instance seen held only exact leaves."""

    __slots__ = ("prefix", "text", "leaf_text", "frozen", "flat")

    def __init__(self, cls: type) -> None:
        names = sorted(field.name for field in dataclasses.fields(cls))
        # Key order mirrors sort_keys: "__dataclass__" < "fields".
        self.prefix = (f'{{"{DATACLASS_TAG}":{json.dumps(type_path(cls))},'
                       f'"fields":')
        self.frozen = cls.__dataclass_params__.frozen
        self.flat = self.frozen
        # Both are generated (as namedtuple and dataclasses generate
        # theirs), so a dataclass's text is one f-string.  Field names
        # are identifiers; their quoted forms and the prefix come in
        # through the scope.
        scope = {f"q{i}": json.dumps(name) for i, name in enumerate(names)}
        scope["p"] = self.prefix

        def source(field_text: str) -> str:
            body = ",".join(f"{{q{i}}}:{{{field_text.format(name)}}}"
                            for i, name in enumerate(names))
            return 'f"{p}{{' + body + '}}}}"'

        self.text = eval(f"lambda obj, encode: {source('encode(obj.{})')}",
                         scope)
        self.leaf_text = eval(
            f"lambda obj, table: {source('table[type(obj.{0})](obj.{0})')}",
            scope)


def _layout(cls: type) -> _Layout:
    layout = _layouts.get(cls)
    if layout is None:
        layout = _layouts[cls] = _Layout(cls)
    return layout


def _encode_dataclass(obj: Any, layout: _Layout) -> str:
    """Canonical text of a dataclass the identity cache does not hold."""
    if not layout.frozen:
        return layout.text(obj, _encode)
    text = None
    if layout.flat:
        try:
            text = layout.leaf_text(obj, _LEAF_TEXT)
        except KeyError:  # a field that is not an exact leaf
            layout.flat = False
    if text is None:
        text = layout.text(obj, _encode)
        if len(text) < IDENTITY_CACHE_MIN_CHARS:
            return text
    if len(_by_identity) >= FINGERPRINT_CACHE_MAX_ENTRIES:
        _by_identity.clear()
    _by_identity[id(obj)] = [obj, text, None]
    return text


def _plain(obj: Any) -> str:
    layout = _layouts.get(type(obj))
    if layout is None:
        leaf = _LEAF_TEXT.get(type(obj))
        if leaf is not None:
            return leaf(obj)
        if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
            raise TypeError(f"plain_key covers dataclasses of JSON leaves, "
                            f"not {type(obj).__name__} value {obj!r}")
        layout = _layout(type(obj))
    if layout.flat:
        text = _encode(obj)
        if layout.flat:
            return text[len(layout.prefix):-1]
    return layout.text(obj, _plain)[len(layout.prefix):-1]


def _encode(obj: Any) -> str:
    entry = _by_identity.get(id(obj))
    if entry is not None and entry[0] is obj:
        return entry[1]
    cls = type(obj)
    layout = _layouts.get(cls)
    if layout is not None:
        return _encode_dataclass(obj, layout)
    leaf = _LEAF_TEXT.get(cls)
    if leaf is not None:
        return leaf(obj)
    if isinstance(obj, (bool, int, float, str)):
        # A leaf subclass (an IntEnum, say): json.dumps's own text.
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
