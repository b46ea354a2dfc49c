"""Process-wide, named memoization tables for hot evaluation paths.

The call-level result cache (:mod:`repro.runtime.cache`) keys whole
``simulate(design, network, pdk)`` calls on a content hash; that is the
right granularity across processes and runs, but far too coarse (and the
hashing far too slow) for the *inner* loops of a sweep — re-costing the
same ResNet residual-block shape on the same design fingerprint, or
re-searching the same layer slice on the same Table II architecture.

This module provides the fine-grained tier: bounded, named
:class:`MemoTable` instances keyed on cheap hashable fingerprints
(tuples of ints/floats/frozen dataclasses), with per-table hit/miss
counters that surface in :class:`repro.runtime.engine.RunReport`.

Correctness contract: a table key must cover *every* input the memoized
computation reads, so a hit is bit-identical to recomputation — the
golden-value suite holds memoized runs to the same 1e-9 tolerance as the
seed implementation.  DESIGN.md documents each fingerprint.

All tables honour one global switch (:func:`set_memoization`), so the
pre-memoization behaviour remains available for benchmarking (the
legacy arm of ``benchmarks/bench_speedup_floors.py``) and for
differential tests.

Named counters (:func:`add_counts` / :func:`counter_stats`) record
non-cache search statistics — e.g. how many tilings the branch-and-bound
mapper pruned versus evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator

from repro.errors import require
from repro.runtime.cache import MISSING

#: Default per-table entry bound (FIFO eviction beyond it).
DEFAULT_MAX_ENTRIES = 8192

_enabled: bool = True


@dataclass(frozen=True)
class MemoStats:
    """Snapshot of one table's counters.

    Attributes:
        name: Table name.
        hits: Lookups served from the table.
        misses: Lookups that fell through to computation.
        entries: Entries currently stored.
    """

    name: str
    hits: int = 0
    misses: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 when never consulted)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class CounterStats:
    """Snapshot of one named counter group (e.g. mapper search totals).

    Attributes:
        name: Counter-group name.
        values: ``(counter, value)`` pairs in first-use order.
    """

    name: str
    values: tuple[tuple[str, int], ...] = ()


class MemoTable:
    """A bounded dict with hit/miss counters and FIFO eviction.

    Disabled tables (see :func:`set_memoization`) miss every lookup and
    store nothing, so toggling memoization cannot change results — only
    how often they are recomputed.
    """

    def __init__(self, name: str,
                 max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        require(max_entries >= 1, "max_entries must be >= 1")
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: dict[Hashable, Any] = {}

    def get(self, key: Hashable) -> Any:
        """Stored value for ``key``, or the ``MISSING`` sentinel."""
        if not _enabled:
            return MISSING
        value = self._entries.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting oldest entries beyond the bound."""
        if not _enabled:
            return
        entries = self._entries
        if key not in entries and len(entries) >= self.max_entries:
            entries.pop(next(iter(entries)))
        entries[key] = value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop entries and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> MemoStats:
        """Snapshot of this table's counters."""
        return MemoStats(name=self.name, hits=self.hits, misses=self.misses,
                         entries=len(self._entries))


_tables: dict[str, MemoTable] = {}
_counters: dict[str, dict[str, int]] = {}


def memo_table(name: str,
               max_entries: int = DEFAULT_MAX_ENTRIES) -> MemoTable:
    """The process-wide table registered under ``name`` (created once)."""
    table = _tables.get(name)
    if table is None:
        table = _tables[name] = MemoTable(name, max_entries=max_entries)
    return table


def memoization_enabled() -> bool:
    """Whether memo tables currently serve and store entries."""
    return _enabled


def set_memoization(enabled: bool) -> bool:
    """Globally enable/disable every table; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


class memoization_disabled:
    """Context manager: run a block with every memo table bypassed."""

    def __enter__(self) -> None:
        self._previous = set_memoization(False)

    def __exit__(self, *exc_info: object) -> None:
        set_memoization(self._previous)


def add_counts(name: str, **amounts: int) -> None:
    """Accumulate named integers into the counter group ``name``."""
    group = _counters.setdefault(name, {})
    for counter, amount in amounts.items():
        group[counter] = group.get(counter, 0) + int(amount)


def memo_stats() -> tuple[MemoStats, ...]:
    """Snapshots of every registered table, sorted by name."""
    return tuple(_tables[name].stats() for name in sorted(_tables))


def counter_stats() -> tuple[CounterStats, ...]:
    """Snapshots of every counter group, sorted by name."""
    return tuple(
        CounterStats(name=name, values=tuple(_counters[name].items()))
        for name in sorted(_counters))


def publish_metrics(target: "Any | None" = None) -> None:
    """Publish memo-table and search-counter snapshots as gauges/counters.

    Called at report time (not in the lookup hot path — table lookups
    stay instrumentation-free): every table becomes three gauges
    (``repro_memo_hits``/``_misses``/``_entries`` labelled by table) and
    every counter group becomes ``repro_search_total`` counters labelled
    by group and counter name.  ``target`` defaults to the context-local
    registry.
    """
    from repro.obs.metrics import registry as metrics_registry

    registry = target if target is not None else metrics_registry()
    for stats in memo_stats():
        registry.gauge("repro_memo_hits", table=stats.name).set(stats.hits)
        registry.gauge("repro_memo_misses", table=stats.name) \
            .set(stats.misses)
        registry.gauge("repro_memo_entries", table=stats.name) \
            .set(stats.entries)
    for group in counter_stats():
        for counter, value in group.values:
            instrument = registry.gauge(
                "repro_search_total", group=group.name, counter=counter)
            instrument.set(value)


def _iter_tables() -> Iterator[MemoTable]:
    return iter(_tables.values())


def reset_memoization() -> None:
    """Clear every table's entries/counters and every counter group."""
    for table in _iter_tables():
        table.clear()
    _counters.clear()
