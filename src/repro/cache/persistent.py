"""On-disk L2: a SQLite (WAL-mode) artifact store shared across processes.

:class:`PersistentCache` maps stable string digests (see
:mod:`repro.cache.keys`) to opaque payload blobs, surviving process
death and safely shared by concurrent readers/writers — WAL mode lets
readers proceed while one writer commits, and a busy timeout serializes
concurrent writers.  Rows carry the equivalence-class
invariants digest alongside the payload (indexed), mirroring
sat_revsynth's ``invariants_hash -> equivalence class -> representative``
database model: one row per class representative, the invariants column
as the class index.

Failure policy: an unusable store must never take a job down.  Every
SQLite error — a corrupt/truncated file, a garbage non-database file, a
disk error mid-query — disables the store with a single
:class:`RuntimeWarning` and makes every later ``get`` miss and ``put``
no-op, so callers transparently fall back to cold compilation.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
import warnings
from typing import Dict, List, Optional

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
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self.disabled = False
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0
        try:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            # autocommit (isolation_level=None): every statement commits
            # itself, so concurrent processes never deadlock on a
            # half-open transaction; check_same_thread=False because
            # provider job threads and the caller's thread share this
            # connection (all access is serialized by self._lock).
            conn = sqlite3.connect(self.path, timeout=timeout,
                                   isolation_level=None,
                                   check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                "  key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES "
                "('schema_version', ?)", (str(_SCHEMA_VERSION),))
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None or int(row[0]) != _SCHEMA_VERSION:
                conn.close()
                raise sqlite3.DatabaseError(
                    f"unsupported store schema version {row and row[0]!r} "
                    f"(this build reads version {_SCHEMA_VERSION})")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS artifacts ("
                "  key TEXT PRIMARY KEY,"
                "  invariants TEXT NOT NULL DEFAULT '',"
                "  payload BLOB NOT NULL,"
                "  created REAL NOT NULL)")
            conn.execute(
                "CREATE INDEX IF NOT EXISTS artifacts_invariants "
                "ON artifacts (invariants)")
            self._conn = conn
        except (sqlite3.Error, OSError, ValueError) as exc:
            self._disable(exc)

    # ------------------------------------------------------------------
    def _disable(self, exc: BaseException) -> None:
        """Take the store out of service: warn once, then miss forever.

        A corrupt or otherwise unusable store degrades the process to
        cold compilation — it must never crash a job.
        """
        self.errors += 1
        if not self.disabled:
            self.disabled = True
            warnings.warn(
                f"persistent compile cache {self.path!r} is unusable "
                f"({exc}); continuing without it — compiles fall back "
                "to the cold path",
                RuntimeWarning, stacklevel=3)
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - already broken
                pass

    # ------------------------------------------------------------------
    def get(self, digest: Optional[str]) -> Optional[bytes]:
        """The payload stored under *digest*, or ``None``."""
        if digest is None or self._conn is None:
            return None
        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._conn.execute(
                    "SELECT payload FROM artifacts WHERE key = ?",
                    (digest,)).fetchone()
            except sqlite3.Error as exc:
                self._disable(exc)
                return None
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return bytes(row[0])

    def put(self, digest: Optional[str], payload: bytes,
            invariants: str = "") -> None:
        """Insert/replace *payload* under *digest* (no-op when disabled)."""
        if digest is None or self._conn is None:
            return
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO artifacts "
                    "(key, invariants, payload, created) "
                    "VALUES (?, ?, ?, ?)",
                    (digest, invariants, payload, time.time()))
            except sqlite3.Error as exc:
                self._disable(exc)
                return
        self.writes += 1

    def delete(self, digest: str) -> None:
        """Drop one entry (used when a payload fails to deserialize)."""
        if self._conn is None:
            return
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute(
                    "DELETE FROM artifacts WHERE key = ?", (digest,))
            except sqlite3.Error as exc:
                self._disable(exc)

    def clear(self) -> None:
        """Drop every artifact (the shared on-disk state — use with care)."""
        if self._conn is None:
            return
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute("DELETE FROM artifacts")
            except sqlite3.Error as exc:
                self._disable(exc)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._conn is None:
            return 0
        with self._lock:
            if self._conn is None:
                return 0
            try:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM artifacts").fetchone()
            except sqlite3.Error as exc:
                self._disable(exc)
                return 0
        return int(row[0])

    def invariant_classes(self) -> Dict[str, int]:
        """Representatives per equivalence-class invariants digest."""
        if self._conn is None:
            return {}
        with self._lock:
            if self._conn is None:
                return {}
            try:
                rows: List = self._conn.execute(
                    "SELECT invariants, COUNT(*) FROM artifacts "
                    "GROUP BY invariants").fetchall()
            except sqlite3.Error as exc:
                self._disable(exc)
                return {}
        return {str(inv): int(count) for inv, count in rows}

    @property
    def stats(self) -> Dict[str, int]:
        """Counter snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
            "disabled": int(self.disabled),
        }

    def close(self) -> None:
        """Close the connection (the store file stays valid)."""
        with self._lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - closing best-effort
                pass

    def __enter__(self) -> "PersistentCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "disabled" if self.disabled else f"{len(self)} artifacts"
        return f"<PersistentCache {self.path!r} ({state})>"
