"""Context-local span tracing for the evaluation pipeline.

A :class:`Tracer` records a tree of nested :class:`Span` objects — one
per instrumented region (an ``engine.map`` batch, a mapper slice search,
a simulator layer, a cache deserialization).  Instrumented code never
holds a tracer; it calls the module-level :func:`span` helper, which
resolves the *context-local* active tracer (a :class:`contextvars.ContextVar`,
so worker tasks and async callers each see their own) and returns either
a live recording handle or the shared no-op :data:`NULL_SPAN`.

Disabled-by-default contract: with no active tracer (the default), every
instrumentation point reduces to one context-variable read returning the
falsy null span — no allocation beyond the ``attrs`` dict of the call
site, no clock reads, no tree mutation.  Hot paths that want to skip even
attribute assembly test the handle's truthiness::

    with span("mapper.best_slice_cost") as sp:
        if sp:                      # False on the null span
            sp.set(layer=name, memo="miss")

Clocks: span *start* times are wall-clock (``time.time``), so spans
recorded in different processes (pool workers) land on one comparable
timeline; *durations* are measured with ``time.perf_counter`` for
resolution.  Worker-side trees ship back with results (see
:mod:`repro.runtime.pmap`) and merge into the parent trace via
:meth:`Tracer.attach`, labelled with the worker's identity.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = [
    "NULL_SPAN",
    "Span",
    "SpanSummary",
    "Tracer",
    "current_tracer",
    "is_enabled",
    "set_enabled",
    "span",
    "summarize_spans",
    "trace",
    "walk_spans",
]

#: Module-level master switch for *all* observability instrumentation.
#: Metrics-recording call sites guard on :func:`is_enabled`; tracing
#: additionally requires an active tracer.  Disabled by default so the
#: golden-value suite and cold-run benchmarks see zero overhead.
_enabled: bool = False


def set_enabled(enabled: bool) -> bool:
    """Flip the master instrumentation switch; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def is_enabled() -> bool:
    """Whether observability instrumentation is currently on."""
    return _enabled


@dataclass
class Span:
    """One timed region of the trace tree.

    Attributes:
        name: Dotted span name (see DESIGN.md Sec. 8 for the taxonomy).
        start: Wall-clock start, seconds since the epoch (``time.time``) —
            comparable across processes on one machine.
        duration: Elapsed seconds (``time.perf_counter`` delta).
        attrs: Free-form attributes (stage names, hit/miss, counts).
        children: Nested spans, in start order.
        worker: Identity label of the process that recorded the span
            (set on attached worker roots; ``None`` for local spans).
    """

    name: str
    start: float
    duration: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    worker: str | None = None

    @property
    def self_time(self) -> float:
        """Seconds spent in this span excluding its children."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))


class _NullSpan:
    """Shared falsy no-op handle returned when tracing is inactive."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """Discard attributes (no active trace)."""

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: The module-wide no-op span handle.
NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Live recording handle for one span (context manager)."""

    __slots__ = ("_tracer", "span", "_t0")

    def __init__(self, tracer: "Tracer", span_: Span) -> None:
        self._tracer = tracer
        self.span = span_
        self._t0 = 0.0

    def __enter__(self) -> "_OpenSpan":
        self._tracer._push(self.span)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.span.duration = time.perf_counter() - self._t0
        self._tracer._pop(self.span)
        return False

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the recording span."""
        self.span.attrs.update(attrs)

    def __bool__(self) -> bool:
        return True


class Tracer:
    """Records one trace: a forest of root spans plus an open-span stack.

    A tracer is context-local state, not engine state: activate one with
    :func:`trace` (or :meth:`activate`), run any amount of instrumented
    code — including engine maps that fan out to pool workers — and read
    the merged forest from :attr:`roots`.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs: Any) -> _OpenSpan:
        """A context-manager handle recording one nested span."""
        span_ = Span(name=name, start=time.time(), attrs=attrs)
        return _OpenSpan(self, span_)

    def _push(self, span_: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span_)
        else:
            self.roots.append(span_)
        self._stack.append(span_)

    def _pop(self, span_: Span) -> None:
        if self._stack and self._stack[-1] is span_:
            self._stack.pop()

    def attach(self, spans: Iterable[Span], worker: str | None = None) -> None:
        """Merge foreign span trees (e.g. shipped from a pool worker).

        Roots nest under the currently open span (or become trace roots),
        and carry ``worker`` so exporters can lane them per process.
        """
        parent = self._stack[-1].children if self._stack else self.roots
        for root in spans:
            if worker is not None and root.worker is None:
                root.worker = worker
            parent.append(root)

    def activate(self):
        """Make this tracer the context-local active one; returns a token
        for :meth:`deactivate`."""
        return _active.set(self)

    def deactivate(self, token) -> None:
        """Restore the previously active tracer."""
        _active.reset(token)


_active: ContextVar[Tracer | None] = ContextVar("repro_obs_tracer",
                                                default=None)


def current_tracer() -> Tracer | None:
    """The context-local active tracer, or ``None``."""
    return _active.get()


def span(name: str, **attrs: Any):
    """A span handle on the active tracer, or :data:`NULL_SPAN`.

    The single instrumentation entry point: always safe to call, returns
    a context manager either way.
    """
    tracer = _active.get()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


@contextmanager
def trace() -> Iterator[Tracer]:
    """Run a block with instrumentation enabled and a fresh active tracer.

    Restores both the master switch and the previously active tracer on
    exit, so nested/overlapping uses compose.
    """
    tracer = Tracer()
    previous = set_enabled(True)
    token = tracer.activate()
    try:
        yield tracer
    finally:
        tracer.deactivate(token)
        set_enabled(previous)


def walk_spans(spans: Iterable[Span]) -> Iterator[Span]:
    """Depth-first pre-order walk over span forests."""
    stack = list(spans)
    stack.reverse()
    while stack:
        span_ = stack.pop()
        yield span_
        stack.extend(reversed(span_.children))


@dataclass(frozen=True)
class SpanSummary:
    """Aggregate of every span sharing one name.

    Attributes:
        name: Span name.
        count: Occurrences in the trace.
        total: Summed durations, seconds (double-counts nested repeats
            of the *same* name only if a span nests under itself).
        self_time: Summed durations excluding child spans, seconds —
            the "where time actually goes" column.
    """

    name: str
    count: int
    total: float
    self_time: float

    @property
    def mean(self) -> float:
        """Average duration per occurrence, seconds."""
        return self.total / self.count if self.count else 0.0


def summarize_spans(spans: Iterable[Span],
                    limit: int | None = None) -> tuple[SpanSummary, ...]:
    """Per-name aggregates over a span forest, by total time descending.

    This is the table behind ``RunReport.top_spans()`` and the CLI's
    ``--profile`` breakdown.
    """
    counts: dict[str, int] = {}
    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    for span_ in walk_spans(spans):
        counts[span_.name] = counts.get(span_.name, 0) + 1
        totals[span_.name] = totals.get(span_.name, 0.0) + span_.duration
        selfs[span_.name] = selfs.get(span_.name, 0.0) + span_.self_time
    summaries = sorted(
        (SpanSummary(name=name, count=counts[name], total=totals[name],
                     self_time=selfs[name])
         for name in counts),
        key=lambda s: (-s.total, s.name))
    if limit is not None:
        summaries = summaries[:limit]
    return tuple(summaries)
