"""The frozen ``/v1`` wire schema shared by server and clients.

Everything that crosses the HTTP boundary is defined here, in one place,
so the server (:mod:`repro.serve.app`), the bundled client
(:mod:`repro.serve.client`), the load generator and the tests all speak
the same contract — and so the contract is greppable and diffable as a
unit.  The schema is **versioned and additive**: ``/v1/`` responses may
grow new fields, but an existing field never changes name, type, or
meaning (DESIGN.md Sec. 12).

Request bodies
--------------
* ``POST /v1/eval`` — a :class:`~repro.spec.design.DesignSpec` JSON
  object, optionally wrapped as ``{"spec": {...}}``.
* ``POST /v1/sweep`` — a :class:`~repro.spec.sweep.SweepSpec` JSON
  object (``base``/``grid``/``zip``/``points``), a bare design spec
  (one-point sweep), or a wrapper ``{"sweep": {...}, "options": {...}}``
  with ``options`` drawn from :data:`SWEEP_OPTIONS`.

Response bodies
---------------
* ``/v1/eval`` — ``{"api", "result", "cached", "coalesced"}`` where
  ``result`` is :func:`evaluation_wire`.
* ``/v1/sweep`` — an ``application/x-ndjson`` stream: a ``start`` event,
  one ``evaluation`` event per surviving point (in sweep order), one
  ``chunk`` event per completed chunk, and a final ``end`` summary.
* errors — the :func:`repro.errors.error_envelope` shape, always.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.errors import ConfigurationError, ReproError, error_envelope
from repro.spec.design import DesignSpec
from repro.spec.evaluate import SpecEvaluation
from repro.spec.sweep import SweepSpec

__all__ = [
    "API_VERSION",
    "SWEEP_OPTIONS",
    "evaluation_wire",
    "http_status_for",
    "parse_eval_body",
    "parse_sweep_body",
    "wire_error",
]

#: The wire-schema version every route is prefixed with.
API_VERSION = "v1"

#: Per-request sweep options accepted in the ``options`` wrapper key.
#: ``chunk_size`` bounds points per NDJSON flush, ``prune`` switches on
#: certified Pareto pruning, ``batch`` routes chunks through the
#: vectorized kernel (on by default — the whole point of serving).
SWEEP_OPTIONS = ("chunk_size", "prune", "batch")


def _loads_object(body: bytes) -> Mapping[str, Any]:
    """Parse a request body into a JSON object, with envelope-ready errors."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ConfigurationError(f"invalid JSON body: {error}") from error
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"request body must be a JSON object, got {type(data).__name__}")
    return data


def parse_eval_body(body: bytes) -> DesignSpec:
    """Lower a ``POST /v1/eval`` body to a validated design spec."""
    data = _loads_object(body)
    if set(data) == {"spec"}:
        data = data["spec"]
        if not isinstance(data, Mapping):
            raise ConfigurationError("'spec' must be a JSON object")
    return DesignSpec.from_jsonable(data)


def parse_sweep_body(body: bytes) -> tuple[SweepSpec, dict[str, Any]]:
    """Lower a ``POST /v1/sweep`` body to ``(sweep, options)``.

    Accepts the wrapper shape (``{"sweep": ..., "options": ...}``), a
    bare sweep object, or a bare design spec (a one-point sweep), so a
    ``curl`` of an ``examples/*.json`` file just works.
    """
    data = _loads_object(body)
    options: dict[str, Any] = {}
    if "sweep" in data:
        unknown = sorted(set(data) - {"sweep", "options"})
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) in sweep request: {', '.join(unknown)}")
        raw_options = data.get("options", {})
        if not isinstance(raw_options, Mapping):
            raise ConfigurationError("'options' must be a JSON object")
        bad = sorted(set(raw_options) - set(SWEEP_OPTIONS))
        if bad:
            raise ConfigurationError(
                f"unknown sweep option(s): {', '.join(bad)}; "
                f"allowed: {', '.join(SWEEP_OPTIONS)}")
        options = dict(raw_options)
        if "chunk_size" in options:
            size = options["chunk_size"]
            if not isinstance(size, int) or isinstance(size, bool) \
                    or size < 1:
                raise ConfigurationError(
                    "sweep option 'chunk_size' must be an integer >= 1")
        for flag in ("prune", "batch"):
            if flag in options and not isinstance(options[flag], bool):
                raise ConfigurationError(
                    f"sweep option {flag!r} must be a boolean")
        data = data["sweep"]
        if not isinstance(data, Mapping):
            raise ConfigurationError("'sweep' must be a JSON object")
    if not ({"base", "grid", "zip", "points"} & set(data)):
        return SweepSpec(base=DesignSpec.from_jsonable(data)), options
    return SweepSpec.from_jsonable(data), options


def evaluation_wire(evaluation: SpecEvaluation,
                    fingerprint: str | None = None) -> dict[str, Any]:
    """One evaluated point in wire form: plain fields, no codec markers.

    The shape mirrors :class:`~repro.spec.evaluate.SpecEvaluation` but
    lowers the spec through its canonical plain-JSON form so clients in
    any language can read it.  ``fingerprint``, when the caller already
    holds it, saves hashing the spec again.
    """
    return {
        "spec": evaluation.spec.to_jsonable(),
        "fingerprint": (fingerprint if fingerprint is not None
                        else evaluation.spec.fingerprint()),
        "n_cs_2d": evaluation.n_cs_2d,
        "n_cs_m3d": evaluation.n_cs_m3d,
        "footprint": evaluation.footprint,
        "speedup": evaluation.speedup,
        "energy_benefit": evaluation.energy_benefit,
        "edp_benefit": evaluation.edp_benefit,
    }


def http_status_for(error: BaseException) -> int:
    """The HTTP status an exception maps to under the ``/v1`` contract.

    Malformed JSON and non-object bodies are client syntax errors (400);
    a well-formed body that fails spec validation is a semantic error
    (422).  Any other library error is also 422 — the request was
    readable, the configuration it described was not evaluable.  The
    server guarantees spec failures never surface as 500.
    """
    if isinstance(error, ConfigurationError):
        message = str(error)
        if message.startswith(("invalid JSON body", "request body must be",
                               "'spec' must be", "'sweep' must be",
                               "'options' must be", "sweep option",
                               "unknown sweep option",
                               "unknown key(s) in sweep request")):
            return 400
        return 422
    if isinstance(error, ReproError):
        return 422
    return 500


def wire_error(error: BaseException, path: str | None = None) -> bytes:
    """The error envelope as an encoded JSON body."""
    return (json.dumps(error_envelope(error, path=path)) + "\n") \
        .encode("utf-8")
