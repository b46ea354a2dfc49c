"""Content-addressed result cache: in-memory LRU plus optional disk store.

The memory tier is a bounded LRU (``OrderedDict``); the optional disk tier
writes one JSON file per key under ``directory`` using the generic codec of
:mod:`repro.runtime.serialize`, so a warm cache directory survives process
restarts and is shared between workers.  Disk writes are atomic
(temp file + ``os.replace``), and unreadable or tampered files degrade to
a miss instead of an error — a corrupt entry is additionally
**quarantined** (renamed to ``<key>.corrupt``) so the next write starts
clean and the bad bytes stay on disk for inspection.  The write path is
a registered :mod:`repro.faults` corruption site (``cache.corrupt``),
which is how chaos tests exercise the quarantine deterministically.
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import require
from repro.faults import corrupt_text as _corrupt_text
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import is_enabled as _obs_enabled, span as _span
from repro.runtime.serialize import dumps, loads

#: Sentinel distinguishing "missing" from a cached ``None``.
MISSING = object()


def atomic_write_text(path: Path, text: str) -> bool:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A reader never observes a partial file: the content lands under a
    temporary name in the same directory and is renamed into place in one
    step.  Returns ``False`` (without raising) when the filesystem
    refuses — read-only or full disks degrade to "not persisted", the
    same policy the disk cache and the sweep checkpoint store share.
    """
    try:
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=path.parent,
            prefix=f".{path.stem[:16]}.", suffix=".tmp", delete=False)
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except OSError:
        return False
    return True


@dataclass
class CacheStats:
    """Running hit/miss counters for one cache instance.

    Attributes:
        hits: Lookups served from memory or disk.
        memory_hits: Subset of ``hits`` served from the memory tier.
        disk_hits: Subset of ``hits`` served from the disk tier.
        misses: Lookups that found nothing.
        stores: Values written into the cache.
        corrupt: Disk entries that failed to decode and were quarantined.
    """

    hits: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0


class ResultCache:
    """LRU memory cache with an optional on-disk JSON store."""

    def __init__(self, max_memory_entries: int = 4096,
                 directory: str | os.PathLike | None = None) -> None:
        require(max_memory_entries >= 1, "cache needs at least one entry")
        self.max_memory_entries = max_memory_entries
        self.directory = Path(directory) if directory is not None else None
        self.stats = CacheStats()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def get(self, key: str) -> Any:
        """Cached value for ``key``, or :data:`MISSING`."""
        if key in self._memory:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return self._memory[key]
        value = self._disk_get(key)
        if value is not MISSING:
            self._memory_put(key, value)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return value
        self.stats.misses += 1
        return MISSING

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` in the memory tier and, when configured, on disk."""
        self._memory_put(key, value)
        self._disk_put(key, value)
        self.stats.stores += 1

    def clear(self) -> None:
        """Drop the memory tier (disk files are left in place)."""
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)

    def in_memory(self, key: str) -> bool:
        """Whether the memory tier holds ``key``: no disk access, no
        counters, no LRU reordering."""
        return key in self._memory

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.directory is not None and self._disk_path(key).is_file()

    def _memory_put(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def _disk_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _disk_get(self, key: str) -> Any:
        if self.directory is None:
            return MISSING
        path = self._disk_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return MISSING
        if _obs_enabled():
            _metrics_registry().counter("repro_cache_disk_reads_total").inc()
        with _span("cache.deserialize", bytes=len(text)):
            try:
                return loads(text)
            except (ValueError, TypeError, KeyError, AttributeError,
                    ImportError):
                self._quarantine(path)
                return MISSING

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it can never be served stale.

        The rename is best-effort (a read-only directory just leaves the
        undecodable file in place, still a permanent miss); the
        ``.corrupt`` suffix keeps the evidence while guaranteeing the
        key re-evaluates and the next write starts from a clean slate.
        """
        self.stats.corrupt += 1
        if _obs_enabled():
            _metrics_registry().counter("repro_cache_corrupt_total").inc()
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass

    def _disk_put(self, key: str, value: Any) -> None:
        if self.directory is None:
            return
        with _span("cache.serialize") as sp:
            try:
                text = dumps(value)
            except TypeError:
                return  # value has no JSON lowering; memory tier only
            if sp:
                sp.set(bytes=len(text))
        if _obs_enabled():
            _metrics_registry().counter("repro_cache_disk_writes_total").inc()
        # Fault-injection site: a chaos plan may mangle the bytes here,
        # exercising the read path's quarantine deterministically.
        text = _corrupt_text("cache.corrupt", key, text)
        # Failed writes (read-only or full disk) keep going on memory only.
        atomic_write_text(self._disk_path(key), text)
