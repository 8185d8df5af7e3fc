"""The SQLite core under both durable stores.

:class:`SQLiteStore` owns one store file for
:class:`~repro.cache.PersistentCache` (the compile cache) or
:class:`~repro.service.JobStore` (the job ledger); each runs every
statement through :meth:`SQLiteStore.execute`.  It does four things:

- **Connect**: autocommit, so concurrent processes never deadlock on a
  half-open transaction; WAL, so readers proceed while one writer
  commits; ``synchronous=NORMAL``; a busy timeout that serializes
  writers; one connection shared by the owner's threads under one lock.
- **Refuse a file that is not this store's, before writing to it**: a
  file with tables the store does not own, another ``meta.kind`` or a
  different ``schema_version`` is left exactly as it was.  The check
  and the table creation share one transaction, so two processes
  opening a fresh file cannot interleave.
- **Degrade**: any :class:`sqlite3.Error` (a garbage or torn file, a
  lock held past the timeout, a disk error mid-query) warns once with a
  :class:`RuntimeWarning`, and every later statement is a no-op.  An
  unusable store must never take a job down; its owner may carry on
  from a read-only copy of the file (:meth:`SQLiteStore.copy_from`).
- **Close**.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import warnings
from contextlib import closing
from pathlib import Path
from typing import AbstractSet, List, Mapping, Optional, Sequence

__all__ = ["SQLiteStore"]


class SQLiteStore:
    """One store file: a validated connection that degrades, never raises.

    Parameters
    ----------
    path:
        Store file location; parent directories are created.
    kind:
        The ``meta.kind`` this store writes and expects.  A file with no
        kind row (a compile cache from an earlier build) is stamped.
    schema_version:
        The ``meta.schema_version`` this build reads and writes.
    tables:
        The store's own tables, name -> column definitions.  With
        ``meta`` and SQLite's internal ``sqlite_*`` tables they are the
        only tables the file may hold.
    indexes:
        ``CREATE INDEX IF NOT EXISTS`` statements run after the tables.
    timeout:
        SQLite busy timeout in seconds.
    label, fallback:
        How the degradation warning names the store, and what it says
        happens next.
    """

    def __init__(self, path: str, *, kind: str, schema_version: int,
                 tables: Mapping[str, str], indexes: Sequence[str],
                 timeout: float, label: str, fallback: str) -> None:
        self.path = str(path)
        self.disabled = False
        self.errors = 0
        self._label = label
        self._fallback = fallback
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        try:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                        exist_ok=True)
            self._conn = conn = sqlite3.connect(
                self.path, timeout=timeout, isolation_level=None,
                check_same_thread=False)
            conn.execute("BEGIN IMMEDIATE")
            _refuse_foreign(conn, kind, str(schema_version), set(tables))
            conn.execute("CREATE TABLE IF NOT EXISTS meta ("
                         "key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            conn.executemany(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                [("schema_version", str(schema_version)), ("kind", kind)])
            for name, columns in tables.items():
                conn.execute(f"CREATE TABLE IF NOT EXISTS {name} ({columns})")
            for statement in indexes:
                conn.execute(statement)
            conn.execute("COMMIT")
            # WAL only after the commit: it cannot be entered inside a
            # transaction, and a refused file must keep its journal mode.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        except (sqlite3.Error, OSError, ValueError) as exc:
            # Closing rolls the open transaction back: a refused file is
            # left exactly as it was.
            self.disable(exc)

    def disable(self, exc: BaseException) -> None:
        """Take the store out of service: warn once, then drop the
        connection, so every later statement is a no-op.  Owners call
        it too, when rows they read turn out unusable."""
        with self._lock:
            self.errors += 1
            if not self.disabled:
                self.disabled = True
                warnings.warn(
                    f"{self._label} {self.path!r} is unusable ({exc}); "
                    f"{self._fallback}", RuntimeWarning, stacklevel=4)
            self._drop()

    def _drop(self) -> None:
        """Close and forget the connection.  ``close`` cannot fail here:
        ``sqlite3_close_v2`` always succeeds, and closing twice is a
        no-op."""
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def execute(self, statement: str,
                params: Sequence[object] = ()) -> Optional[List[tuple]]:
        """Run one statement; its rows (``[]`` for a write), or ``None``
        when the store is unusable, closed, or just became unusable."""
        with self._lock:
            if self._conn is None:
                return None
            try:
                return self._conn.execute(statement, params).fetchall()
            except sqlite3.Error as exc:
                self.disable(exc)
                return None

    def copy_from(self, path: str) -> None:
        """Overwrite this store's database with a copy of the file at
        *path*, read through a read-only connection.  Best effort: an
        unreadable file leaves the store as it was."""
        uri = Path(os.path.abspath(path)).as_uri() + "?mode=ro"
        try:
            with closing(sqlite3.connect(uri, uri=True)) as source, \
                    self._lock:
                if self._conn is not None:
                    source.backup(self._conn)
        except sqlite3.Error:
            pass

    def close(self) -> None:
        """Close the connection (the store file stays valid)."""
        with self._lock:
            self._drop()


def _refuse_foreign(conn: sqlite3.Connection, kind: str, version: str,
                    own: AbstractSet[str]) -> None:
    """Raise unless *conn*'s file is empty or already this store's."""
    tables = {row[0] for row in conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")}
    foreign = {name for name in tables - own - {"meta"}
               if not name.startswith("sqlite_")}  # reserved by SQLite
    if foreign:
        raise sqlite3.DatabaseError(
            "file belongs to another application (unexpected tables: "
            f"{', '.join(sorted(foreign))})")
    meta = dict(conn.execute("SELECT key, value FROM meta").fetchall()
                if "meta" in tables else [])
    if meta.get("kind", kind) != kind:
        raise sqlite3.DatabaseError(
            "file belongs to another application "
            f"(kind={meta['kind']!r}, expected {kind!r})")
    if meta.get("schema_version", version) != version:
        raise sqlite3.DatabaseError(
            f"unsupported schema version {meta['schema_version']!r} "
            f"(this build reads version {version})")
