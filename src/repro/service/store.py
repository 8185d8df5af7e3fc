"""Durable job store: submissions, transitions, and results on disk.

:class:`JobStore` is the service layer's crash-recovery substrate — a
SQLite (WAL-mode) mirror of everything the in-memory
:class:`~repro.service.QuantumProvider` job pool knows: each submission
(with a pickled replay spec), every :class:`~repro.service.JobStatus`
transition with wall-clock timestamps, attempt counts, error text, and
the final :meth:`~repro.service.Result.to_dict` payload.  A fresh
provider opened on the same store re-serves completed results
bit-identically and re-queues whatever was QUEUED/RUNNING at crash
time (see ``QuantumProvider(store_path=...)``).

The store is **memory-primary**: an in-process dict is the authority
and SQLite is the durable write-through mirror.  The mirror runs on
:class:`~repro.cache.sqlite.SQLiteStore`, the core it shares with the
persistent compile cache: a corrupt, foreign (a compile cache
included), newer-schema, or locked database disables *the mirror* with
a single :class:`RuntimeWarning`, and the provider keeps running (jobs
just stop being durable), never crashes.  A job finishes in one write:
:meth:`JobStore.record_result` lands the ``done`` status and the result
payload in the same statement, so a restart never sees one without the
other.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Union

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
_PENDING_STATUSES = frozenset({"queued", "running", "retrying"})

#: Terminal statuses :meth:`JobStore.record_refusal` accepts.
_REFUSAL_STATUSES = frozenset({"shed", "rejected"})


def _status_value(status: Union[str, "JobStatus"]) -> str:
    """Accept a :class:`~repro.service.JobStatus` or its string value."""
    return str(getattr(status, "value", status))


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


class JobStore:
    """Durable job ledger: memory-primary with a SQLite mirror.

    Parameters
    ----------
    path:
        Store file location; parent directories are created.  Opening
        an existing store loads its rows into memory (that is what
        resume-on-restart reads).
    timeout:
        Seconds a writer waits on a locked database before the mirror
        degrades (SQLite busy timeout).  Shorter than the compile
        cache's: a wedged job store should degrade fast, not stall
        submissions.
    """

    def __init__(self, path: str, timeout: float = 5.0) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, StoredJob] = {}
        self._transitions: List[StoredTransition] = []
        self.writes = 0
        self.loaded = 0
        self._db = SQLiteStore(
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
            fallback="continuing in-memory — jobs will not survive a "
                     "restart")
        self.path = self._db.path
        try:
            self._load()
        except ValueError as exc:  # a damaged row: the file is unusable
            self._db.disable(exc)

    @property
    def disabled(self) -> bool:
        """Whether the mirror is out of service (memory-only from now)."""
        return self._db.disabled

    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Hydrate memory from the mirror (called once, at open)."""
        for row in self._db.execute(
                "SELECT job_id, job_number, backend, status, attempts, "
                "error, spec, result, submitted, updated FROM jobs "
                "ORDER BY job_number") or []:
            (job_id, number, backend, status, attempts, error, spec,
             result, submitted, updated) = row
            self._records[job_id] = StoredJob(
                job_id=job_id,
                job_number=int(number),
                backend_name=str(backend),
                status=str(status),
                attempts=int(attempts),
                error=None if error is None else str(error),
                spec=None if spec is None else bytes(spec),
                result=None if result is None else json.loads(result),
                submitted=float(submitted),
                updated=float(updated),
            )
            self.loaded += 1
        for row in self._db.execute(
                "SELECT job_id, status, attempt, error, time "
                "FROM transitions ORDER BY seq") or []:
            job_id, status, attempt, error, when = row
            self._transitions.append(StoredTransition(
                job_id=str(job_id), status=str(status),
                attempt=int(attempt),
                error=None if error is None else str(error),
                time=float(when)))

    def _mirror(self, statement: str, params: tuple) -> None:
        """Write-through one statement (a no-op once degraded)."""
        if self._db.execute(statement, params) is not None:
            self.writes += 1

    def _log(self, job_id: str, status: str, attempt: int,
             error: Optional[str], now: float) -> None:
        """Append one audit-trail row (caller holds ``self._lock``)."""
        self._transitions.append(StoredTransition(
            job_id=job_id, status=status, attempt=attempt, error=error,
            time=now))
        self._mirror(
            "INSERT INTO transitions (job_id, status, attempt, error, "
            "time) VALUES (?, ?, ?, ?, ?)",
            (job_id, status, attempt, error, now))

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
        record = StoredJob(
            job_id=job_id, job_number=int(job_number),
            backend_name=backend_name, status=status, error=error,
            spec=spec, submitted=now, updated=now)
        with self._lock:
            self._records[job_id] = record
            self._mirror(
                "INSERT OR REPLACE INTO jobs (job_id, job_number, "
                "backend, status, attempts, error, spec, result, "
                "submitted, updated) VALUES (?, ?, ?, ?, 0, ?, ?, NULL, "
                "?, ?)",
                (job_id, record.job_number, backend_name, status, error,
                 spec, now, now))
            self._log(job_id, status, 0, error, now)

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
        """The one update behind transitions and completions; a
        ``None`` *result* keeps the stored one."""
        now = time.time()
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return
            attempts = record.attempts if attempt is None else int(attempt)
            record = replace(
                record, status=status, attempts=attempts,
                error=error if error is not None else (
                    record.error if status == "error" else None),
                result=record.result if result is None else result,
                updated=now)
            self._records[job_id] = record
            self._mirror(
                "UPDATE jobs SET status = ?, attempts = ?, error = ?, "
                "result = COALESCE(?, result), updated = ? "
                "WHERE job_id = ?",
                (status, attempts, record.error,
                 None if result is None else json.dumps(result), now,
                 job_id))
            self._log(job_id, status, attempts, error, now)

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[StoredJob]:
        """One job's record, or ``None``."""
        with self._lock:
            return self._records.get(job_id)

    def jobs(self) -> List[StoredJob]:
        """Every record, in submission (``job_number``) order."""
        with self._lock:
            return sorted(self._records.values(),
                          key=lambda r: r.job_number)

    def pending(self) -> List[StoredJob]:
        """Jobs a restart should re-run (QUEUED/RUNNING/RETRYING at
        crash time), in submission order."""
        return [r for r in self.jobs() if r.is_pending]

    def transitions(self, job_id: str) -> List[StoredTransition]:
        """One job's status history, oldest first."""
        with self._lock:
            return [t for t in self._transitions if t.job_id == job_id]

    def max_job_number(self) -> int:
        """Highest persisted ordinal (0 for an empty store); the
        provider continues its ``job-NNNNNN`` sequence from here."""
        with self._lock:
            if not self._records:
                return 0
            return max(r.job_number for r in self._records.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

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
        """Close the mirror connection (the store file stays valid)."""
        self._db.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "memory-only" if self.disabled else "durable"
        return f"<JobStore {self.path!r} ({len(self)} jobs, {state})>"
