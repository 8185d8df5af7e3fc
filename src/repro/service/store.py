"""Durable job store: submissions, transitions, and results in SQLite.

:class:`JobStore` is the service layer's crash-recovery substrate: one
SQLite (WAL-mode) ledger of every job the
:class:`~repro.service.QuantumProvider` serves — each submission (with
a pickled replay spec), every :class:`~repro.service.JobStatus`
transition with wall-clock timestamps, attempt counts, error text, and
the final :meth:`~repro.service.Result.to_dict` payload, which is what
``QuantumProvider(store_path=...)`` resumes from.  The database is the
only copy: every read is a query, so the store holds no per-job state
in memory and two handles on one file see each other's writes.

The ledger runs on :class:`~repro.cache.sqlite.SQLiteStore`, the core
it shares with the persistent compile cache, and never takes a job
down.  A file refused at open (corrupt, foreign — a compile cache
included —, newer-schema, locked, or holding a row that does not parse)
warns once with a :class:`RuntimeWarning` and the ledger continues in
an empty in-memory SQLite database; a file that fails later warns once
and the ledger continues in memory from a read-only copy of the file.
Either way the same queries serve it; jobs just stop being durable.  A
job finishes in one write: :meth:`JobStore.record_result` lands the
``done`` status and the result payload in the same statement, so a
restart never sees one without the other.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Union)

from ..cache.sqlite import SQLiteStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .job import JobStatus

__all__ = ["JobStore", "StoredJob", "StoredTransition"]

#: Bump when the table layout changes; newer-schema stores are left
#: untouched (disabled with a warning) instead of being misread.
_SCHEMA_VERSION = 1

#: Statuses that survive a restart as work-to-redo.  Admission
#: refusals ("shed"/"rejected") are terminal by construction — a
#: restart must never re-queue work the gateway refused.
_PENDING_STATUSES = ("queued", "running", "retrying")

#: Terminal statuses :meth:`JobStore.record_refusal` accepts.
_REFUSAL_STATUSES = frozenset({"shed", "rejected"})

_JOB_COLUMNS = ("job_id, job_number, backend, status, attempts, error, "
                "spec, result, submitted, updated")
_TRAIL_COLUMNS = "job_id, status, attempt, error, time"
_SELECT_JOBS = f"SELECT {_JOB_COLUMNS} FROM jobs"
_SELECT_TRAIL = f"SELECT {_TRAIL_COLUMNS} FROM transitions"

#: Rows the open-time check reads per statement: it holds one page of
#: replay specs and result payloads at a time, not the whole table.
_CHECK_PAGE = 64


def _status_value(status: Union[str, "JobStatus"]) -> str:
    """Accept a :class:`~repro.service.JobStatus` or its string value."""
    return str(getattr(status, "value", status))


def _ledger(path: str, timeout: float = 0.0) -> SQLiteStore:
    """The job tables in the file at *path*, or in ``":memory:"``."""
    return SQLiteStore(
        path, kind="jobs", schema_version=_SCHEMA_VERSION,
        tables={
            "jobs": "job_id TEXT PRIMARY KEY, "
                    "job_number INTEGER NOT NULL, "
                    "backend TEXT NOT NULL, status TEXT NOT NULL, "
                    "attempts INTEGER NOT NULL DEFAULT 0, "
                    "error TEXT, spec BLOB, result TEXT, "
                    "submitted REAL NOT NULL, updated REAL NOT NULL",
            "transitions": "seq INTEGER PRIMARY KEY AUTOINCREMENT, "
                           "job_id TEXT NOT NULL, "
                           "status TEXT NOT NULL, "
                           "attempt INTEGER NOT NULL, error TEXT, "
                           "time REAL NOT NULL"},
        indexes=("CREATE INDEX IF NOT EXISTS transitions_job "
                 "ON transitions (job_id, seq)",),
        timeout=timeout, label="job store",
        fallback="continuing in-memory — jobs will not survive a restart")


@dataclass(frozen=True)
class StoredJob:
    """One job's durable record (a snapshot — reads return copies)."""

    job_id: str
    #: Ordinal used to continue the provider's ``job-NNNNNN`` sequence.
    job_number: int
    backend_name: str
    status: str
    attempts: int = 0
    error: Optional[str] = None
    #: Pickled replay spec (how to re-run the job), or ``None`` when the
    #: submission is not replayable (e.g. carried a live callable).
    spec: Optional[bytes] = None
    #: ``Result.to_dict()`` payload once the job completed.
    result: Optional[Dict[str, object]] = None
    submitted: float = 0.0
    updated: float = 0.0

    @property
    def is_pending(self) -> bool:
        """Whether a restart should re-run this job."""
        return self.status in _PENDING_STATUSES


@dataclass(frozen=True)
class StoredTransition:
    """One status-transition row of a job's audit trail."""

    job_id: str
    status: str
    attempt: int
    error: Optional[str]
    time: float


def _job(row: Sequence) -> StoredJob:
    """Parse one ``jobs`` row (ValueError or TypeError when damaged)."""
    (job_id, number, backend, status, attempts, error, spec, result,
     submitted, updated) = row
    return StoredJob(
        job_id=str(job_id), job_number=int(number),
        backend_name=str(backend), status=str(status),
        attempts=int(attempts),
        error=None if error is None else str(error),
        spec=None if spec is None else bytes(spec),
        result=None if result is None else json.loads(result),
        submitted=float(submitted), updated=float(updated))


def _transition(row: Sequence) -> StoredTransition:
    """Parse one ``transitions`` row (ValueError or TypeError when damaged)."""
    job_id, status, attempt, error, when = row
    return StoredTransition(
        job_id=str(job_id), status=str(status), attempt=int(attempt),
        error=None if error is None else str(error), time=float(when))


def _check_rows(db: SQLiteStore, table: str, columns: str,
                parse: Callable[[Sequence], object]) -> int:
    """Parse every row of *table*, one page at a time in rowid order
    (ValueError or TypeError at the first damaged row); returns the row
    count."""
    statement = (f"SELECT rowid, {columns} FROM {table} WHERE rowid > ? "
                 f"ORDER BY rowid LIMIT {_CHECK_PAGE}")
    count, last = 0, float("-inf")
    while True:
        rows = db.execute(statement, (last,)) or []
        for row in rows:
            parse(row[1:])
        count += len(rows)
        if len(rows) < _CHECK_PAGE:
            return count
        last = rows[-1][0]
        del rows  # one page alive at a time


class JobStore:
    """Durable job ledger: every read and write is a SQLite statement.

    Parameters
    ----------
    path:
        Store file location; parent directories are created.  Opening
        an existing store checks that its rows parse, a page at a
        time, and keeps none.
    timeout:
        Seconds a writer waits on a locked database before the store
        degrades (SQLite busy timeout).  Shorter than the compile
        cache's: a wedged job store should degrade fast, not stall
        submissions.

    Known edge: a file that fails mid-life and cannot be read at that
    moment either leaves the in-memory ledger empty, so jobs recorded
    before the failure can no longer be read from the store (their
    live handles still work).
    """

    def __init__(self, path: str, timeout: float = 5.0) -> None:
        self.writes = 0
        self.loaded = 0
        self._lock = threading.Lock()  # the memory switch and counter
        self._db = _ledger(path, timeout)  # the file's statements
        self.path = self._db.path
        try:  # a row that does not parse makes the file unusable
            self.loaded = _check_rows(self._db, "jobs", _JOB_COLUMNS, _job)
            _check_rows(self._db, "transitions", _TRAIL_COLUMNS,
                        _transition)
        except (TypeError, ValueError) as exc:
            self._db.disable(exc)
        self._memory = _ledger(":memory:") if self._db.disabled else None

    @property
    def disabled(self) -> bool:
        """Whether the file is out of service (in-memory from now)."""
        return self._db.disabled

    # ------------------------------------------------------------------
    def _run(self, statement: str, params: Sequence = ()) -> List[tuple]:
        """Run one statement on the file or, once it failed (or was
        closed), on the in-memory ledger seeded with its last state."""
        if self._memory is None:
            rows = self._db.execute(statement, params)
            if rows is not None:
                return rows
            with self._lock:  # concurrent jobs switch to one ledger
                if self._memory is None:
                    memory = _ledger(":memory:")
                    memory.copy_from(self.path)
                    self._memory = memory
        return self._memory.execute(statement, params) or []

    def _write(self, statement: str, params: Sequence, job_id: str,
               error: Optional[str]) -> None:
        """One ``jobs`` write, then the audit-trail row copying the
        job's new status, attempt count and time."""
        self._run(statement, params)
        self._run("INSERT INTO transitions (job_id, status, attempt, "
                  "error, time) SELECT job_id, status, attempts, ?, "
                  "updated FROM jobs WHERE job_id = ?", (error, job_id))
        with self._lock:
            self.writes += 2

    # ------------------------------------------------------------------
    def record_submission(self, job_id: str, job_number: int,
                          backend_name: str,
                          spec: Optional[bytes] = None) -> None:
        """Persist a new submission (status ``queued``, attempt 0)."""
        self._insert(job_id, job_number, backend_name, "queued", None,
                     spec)

    def record_refusal(self, job_id: str, job_number: int,
                       backend_name: str,
                       status: Union[str, "JobStatus"],
                       reason: Optional[str] = None) -> None:
        """Persist an admission refusal: a submission born terminal.

        The record lands directly in ``shed`` or ``rejected`` (never
        ``queued``), so resume-on-restart skips it — the accept/refuse
        partition of a replayed overload scenario is part of the
        durable history, not something a restart re-litigates.
        """
        value = _status_value(status)
        if value not in _REFUSAL_STATUSES:
            raise ValueError(
                f"refusal status must be one of "
                f"{sorted(_REFUSAL_STATUSES)}, not {value!r}")
        self._insert(job_id, job_number, backend_name, value, reason,
                     None)

    def _insert(self, job_id: str, job_number: int, backend_name: str,
                status: str, error: Optional[str],
                spec: Optional[bytes]) -> None:
        """The one insert behind submissions and refusals (attempt 0)."""
        now = time.time()
        self._write(
            "INSERT OR REPLACE INTO jobs (job_id, job_number, backend, "
            "status, attempts, error, spec, result, submitted, updated) "
            "VALUES (?, ?, ?, ?, 0, ?, ?, NULL, ?, ?)",
            (job_id, int(job_number), backend_name, status, error, spec,
             now, now), job_id, error)

    def record_transition(self, job_id: str,
                          status: Union[str, "JobStatus"],
                          attempt: Optional[int] = None,
                          error: Optional[str] = None) -> None:
        """Persist a status change (and optionally a new attempt count)."""
        self._update(job_id, _status_value(status), attempt, error, None)

    def record_result(self, job_id: str,
                      payload: Dict[str, object]) -> None:
        """Persist a completed job: status ``done`` and its
        ``Result.to_dict()`` payload land in one write, so a restart
        never sees a finished job without its result."""
        self._update(job_id, "done", None, None, payload)

    def _update(self, job_id: str, status: str, attempt: Optional[int],
                error: Optional[str],
                result: Optional[Dict[str, object]]) -> None:
        """The one update behind transitions and completions (``None``
        keeps a stored attempt, result, or an ``error`` job's text)."""
        self._write(
            "UPDATE jobs SET status = ?1, attempts = COALESCE(?2, attempts), "
            "error = COALESCE(?3, CASE WHEN ?1 = 'error' THEN error END), "
            "result = COALESCE(?4, result), updated = ?5 WHERE job_id = ?6",
            (status, None if attempt is None else int(attempt), error,
             None if result is None else json.dumps(result), time.time(),
             job_id), job_id, error)

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[StoredJob]:
        """One job's record, or ``None``."""
        rows = self._run(_SELECT_JOBS + " WHERE job_id = ?", (job_id,))
        return _job(rows[0]) if rows else None

    def jobs(self) -> List[StoredJob]:
        """Every record, in submission (``job_number``) order."""
        return [_job(row) for row in self._run(
            _SELECT_JOBS + " ORDER BY job_number")]

    def pending(self) -> List[StoredJob]:
        """Jobs a restart should re-run (QUEUED/RUNNING/RETRYING at
        crash time), in submission order."""
        return [_job(row) for row in self._run(
            _SELECT_JOBS + " WHERE status IN (?, ?, ?) ORDER BY job_number",
            _PENDING_STATUSES)]

    def transitions(self, job_id: str) -> List[StoredTransition]:
        """One job's status history, oldest first."""
        return [_transition(row) for row in self._run(
            _SELECT_TRAIL + " WHERE job_id = ? ORDER BY seq", (job_id,))]

    def max_job_number(self) -> int:
        """Highest persisted ordinal (0 for an empty store); the
        provider continues its ``job-NNNNNN`` sequence from here."""
        rows = self._run("SELECT COALESCE(MAX(job_number), 0) FROM jobs")
        return int(rows[0][0]) if rows else 0

    def __len__(self) -> int:
        rows = self._run("SELECT COUNT(*) FROM jobs")
        return int(rows[0][0]) if rows else 0

    @property
    def stats(self) -> Dict[str, int]:
        """Counter snapshot."""
        return {
            "jobs": len(self),
            "loaded": self.loaded,
            "writes": self.writes,
            "errors": self._db.errors,
            "disabled": int(self.disabled),
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the file (it stays valid); later calls run in memory."""
        self._db.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "memory-only" if self.disabled else "durable"
        return f"<JobStore {self.path!r} ({len(self)} jobs, {state})>"
