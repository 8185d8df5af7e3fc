"""In-memory L1: a thread-safe LRU table with hit/miss/eviction counters.

:class:`MemoryCache` is the process-local tier every lookup touches
first.  It is deliberately dumb — hashable key in, value out — so the
same class backs the compile table and the ideal-distribution table.
``max_entries`` bounds it LRU-style (``None`` = unbounded, ``0``
disables storage entirely, matching the historical
``ExecutionCache(max_entries=...)`` semantics).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Optional

__all__ = ["MemoryCache"]


class MemoryCache:
    """Bounded LRU mapping with counters — the in-memory cache tier."""

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.max_entries = max_entries
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        # Guards the compound evict+insert: concurrent writers in the
        # eviction path could otherwise pop the same head key.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable):
        """The cached value (refreshing its recency), or ``None``."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert/replace *value*, evicting least-recently-used entries
        past :attr:`max_entries` (``max_entries=0`` stores nothing)."""
        with self._lock:
            if self.max_entries is not None:
                if self.max_entries <= 0:
                    return
                while (len(self._data) >= self.max_entries
                       and key not in self._data):
                    self._data.popitem(last=False)
                    self.evictions += 1
            self._data[key] = value
            self._data.move_to_end(key)

    def pop(self, key: Hashable) -> None:
        """Drop *key* if present (no error, no counter)."""
        with self._lock:
            self._data.pop(key, None)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._data.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    @property
    def stats(self) -> Dict[str, int]:
        """Counter snapshot (plus the current entry count)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._data),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = ("unbounded" if self.max_entries is None
                 else f"max {self.max_entries}")
        return f"<MemoryCache {len(self)} entries, {bound}>"
