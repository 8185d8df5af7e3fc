"""On-disk L2: a SQLite (WAL-mode) artifact store shared across processes.

:class:`PersistentCache` maps stable string digests (see
:mod:`repro.cache.keys`) to opaque payload blobs, surviving process
death and safely shared by concurrent readers/writers: one row per
request structure.  The table keeps an ``invariants`` column that this
build leaves at its default, so store files stay shareable with builds
that filled it.

Connection handling, validation and the failure policy come from
:class:`~repro.cache.sqlite.SQLiteStore`, the core it shares with the
durable job store: a file that is not a compile cache (a job store, a
newer schema, someone else's database) is refused untouched, and any
SQLite error disables the store with a single :class:`RuntimeWarning`,
after which every ``get`` misses and every ``put`` is a no-op, so
callers transparently fall back to cold compilation.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .sqlite import SQLiteStore

__all__ = ["PersistentCache"]

#: Bump when the table layout changes; newer-schema stores are left
#: untouched (disabled with a warning) instead of being misread.
_SCHEMA_VERSION = 1


class PersistentCache:
    """SQLite-backed digest -> payload store (the persistent L2 tier).

    Parameters
    ----------
    path:
        Store file location; parent directories are created.  Each
        process opens its own connection — instances are cheap, the
        store is the shared resource.
    timeout:
        Seconds a writer waits on a locked database before erroring
        (SQLite busy timeout); generous because several processes may
        write concurrently.
    """

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        self._db = SQLiteStore(
            path, kind="compile-cache", schema_version=_SCHEMA_VERSION,
            tables={"artifacts": "key TEXT PRIMARY KEY, "
                                 "invariants TEXT NOT NULL DEFAULT '', "
                                 "payload BLOB NOT NULL, "
                                 "created REAL NOT NULL"},
            indexes=(),
            timeout=timeout, label="persistent compile cache",
            fallback="continuing without it — compiles fall back to the "
                     "cold path")
        self.path = self._db.path
        self.hits = 0
        self.misses = 0
        self.writes = 0

    @property
    def disabled(self) -> bool:
        """Whether the store is out of service (every call a no-op)."""
        return self._db.disabled

    # ------------------------------------------------------------------
    def get(self, digest: Optional[str]) -> Optional[bytes]:
        """The payload stored under *digest*, or ``None``."""
        if digest is None:
            return None
        rows = self._db.execute(
            "SELECT payload FROM artifacts WHERE key = ?", (digest,))
        if rows is None:
            return None
        if not rows:
            self.misses += 1
            return None
        self.hits += 1
        return bytes(rows[0][0])

    def put(self, digest: Optional[str], payload: bytes) -> None:
        """Insert/replace *payload* under *digest* (no-op when disabled)."""
        if digest is not None and self._db.execute(
                "INSERT OR REPLACE INTO artifacts "
                "(key, payload, created) VALUES (?, ?, ?)",
                (digest, payload, time.time())) is not None:
            self.writes += 1

    def delete(self, digest: str) -> None:
        """Drop one entry (used when a payload fails to deserialize)."""
        self._db.execute("DELETE FROM artifacts WHERE key = ?", (digest,))

    def clear(self) -> None:
        """Drop every artifact (the shared on-disk state — use with care)."""
        self._db.execute("DELETE FROM artifacts")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        rows = self._db.execute("SELECT COUNT(*) FROM artifacts")
        return 0 if rows is None else int(rows[0][0])

    @property
    def stats(self) -> Dict[str, int]:
        """Counter snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self._db.errors,
            "disabled": int(self.disabled),
        }

    def close(self) -> None:
        """Close the connection (the store file stays valid)."""
        self._db.close()

    def __enter__(self) -> "PersistentCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "disabled" if self.disabled else f"{len(self)} artifacts"
        return f"<PersistentCache {self.path!r} ({state})>"
