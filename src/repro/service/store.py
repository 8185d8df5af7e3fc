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

The store encodes replay specs (:meth:`JobStore.record_submission`)
and decodes them (:meth:`JobStore.load_spec`): circuits as plain tuples
(:meth:`~repro.circuits.QuantumCircuit.compact`), and each device once,
in the ``devices`` table.  A handle's first spec for a device carries it
inline and the device row lands after the job row; later specs
reference the row, so every statement stays a boundary a restart
resumes from.  Devices count as frozen (see :class:`JobStore`).  The
table joined schema version 1 (see ``_SCHEMA_VERSION``).

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

import hashlib
import io
import json
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from ..cache.sqlite import SQLiteStore
from ..circuits.circuit import QuantumCircuit
from ..hardware.devices import Device

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .job import JobStatus

__all__ = ["JobStore", "StoredJob", "StoredTransition"]

#: Bump when the table layout changes; newer-schema stores are left
#: untouched (disabled with a warning) instead of being misread.  The
#: ``devices`` table joined version 1 without a bump: this build creates
#: it when it opens an older file (inside the open transaction) and
#: still resumes that file's inline specs, and an older build refuses a
#: file holding it as foreign, leaving the file untouched.  A bump
#: would make this build refuse every existing store.
_SCHEMA_VERSION = 1

#: Devices one handle remembers as stored: an LRU bound, because
#: benchmarks mint short-lived devices.  A device it forgot is pickled
#: inline once more, and its row is not written twice.
_STORED_DEVICES_MAX = 64

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
_INSERT_DEVICE = ("INSERT OR IGNORE INTO devices (digest, device) "
                  "VALUES (?, ?)")

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
                           "time REAL NOT NULL",
            "devices": "digest TEXT PRIMARY KEY, device BLOB NOT NULL"},
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
    #: Encoded replay spec (how to re-run the job; decode it with
    #: :meth:`JobStore.load_spec`), or ``None`` when the submission is
    #: not replayable (e.g. carried a live callable).
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


class _SpecPickler(pickle.Pickler):
    """Pickles one replay spec for *store*: circuits as plain tuples,
    each device the store holds as a reference to its row, and every
    other device inline, listed in :attr:`sightings`."""

    def __init__(self, file: io.BytesIO, store: "JobStore") -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._store = store
        self.sightings: List[Device] = []

    def reducer_override(self, obj: object) -> object:
        # Called once per object the pickle memo has not seen, so each
        # device is either referenced or inline throughout one spec.
        if isinstance(obj, QuantumCircuit):
            form = obj.compact()
            if form is not None:
                return QuantumCircuit.from_compact, (form,)
        elif isinstance(obj, Device):
            digest = self._store._stored_digest(obj)
            if digest is not None:
                return _SpecUnpickler.device, (digest,)
            self.sightings.append(obj)
        return NotImplemented


class _SpecUnpickler(pickle.Unpickler):
    """Loads one replay spec from *store*, resolving each device
    reference to one object per row."""

    def __init__(self, blob: bytes, store: "JobStore") -> None:
        super().__init__(io.BytesIO(blob))
        self._store = store
        self._devices: Dict[str, Device] = {}

    def find_class(self, module: str, name: str) -> object:
        if module == __name__ and name == "_SpecUnpickler.device":
            return self.device  # references resolve against this load
        return super().find_class(module, name)

    def device(self, digest: str) -> Device:
        """The device stored under *digest*: one object however often
        the spec references it (LookupError when the row is missing)."""
        if digest not in self._devices:
            rows = self._store._run(
                "SELECT device FROM devices WHERE digest = ?", (digest,))
            if not rows:
                raise LookupError(f"no stored device {digest}")
            self._devices[digest] = pickle.loads(rows[0][0])
        return self._devices[digest]


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

    Each device a replay spec holds is stored once, in the ``devices``
    table, keyed by the SHA-256 of its pickle (equal devices pickle
    alike).  A handle's first spec for a device carries it inline, and
    the device row follows the job row; later specs reference the row.
    The handle remembers the devices it stored by identity, as
    :func:`~repro.cache.keys.device_digest` does, so devices count as
    frozen: one mutated in place after its first durable submission
    resumes with its stored values.  Build a new device instead.

    Known edge: a file that fails mid-life and cannot be read at that
    moment either leaves the in-memory ledger empty, so jobs recorded
    before the failure can no longer be read from the store (their
    live handles still work).
    """

    def __init__(self, path: str, timeout: float = 5.0) -> None:
        self.writes = 0
        self.loaded = 0
        # The memory switch, the counter and the stored-device memo:
        # client threads submit concurrently.
        self._lock = threading.Lock()
        #: id(device) -> (device, digest) for each device this handle
        #: wrote a row for, least recently used first.
        self._devices: "OrderedDict[int, Tuple[Device, str]]" = OrderedDict()
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
                    # The copy may lack device rows: restore each one
                    # this handle's specs reference.
                    for device, digest in self._devices.values():
                        blob = pickle.dumps(device, pickle.HIGHEST_PROTOCOL)
                        memory.execute(_INSERT_DEVICE, (digest, blob))
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
                          spec: object = None) -> None:
        """Persist a new submission (status ``queued``, attempt 0).

        *spec* is the job's replay spec, encoded here, or bytes stored
        as they are (a spec an earlier build encoded).  A spec that does
        not pickle is stored as none: the job runs but is not
        replayable.  Devices the spec carries inline get their rows
        after the job row.
        """
        sightings: List[Device] = []
        if spec is not None and not isinstance(spec, bytes):
            buffer = io.BytesIO()
            pickler = _SpecPickler(buffer, self)
            try:
                pickler.dump(spec)
                spec, sightings = buffer.getvalue(), pickler.sightings
            except Exception:  # noqa: BLE001 - best-effort durability
                spec = None
        self._insert(job_id, job_number, backend_name, "queued", None,
                     spec)
        for device in sightings:
            self._store_device(device)

    def _stored_digest(self, device: Device) -> Optional[str]:
        """The row digest of *device*, when this handle stored it."""
        with self._lock:
            entry = self._devices.get(id(device))
            if entry is None:
                return None
            self._devices.move_to_end(id(device))
            return entry[1]

    def _store_device(self, device: Device) -> None:
        """Write *device*'s row (once per distinct pickle) and remember
        it, so later specs reference the row."""
        blob = pickle.dumps(device, pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        self._run(_INSERT_DEVICE, (digest, blob))
        with self._lock:
            self.writes += 1
            self._devices[id(device)] = (device, digest)
            while len(self._devices) > _STORED_DEVICES_MAX:
                self._devices.popitem(last=False)

    def load_spec(self, record: StoredJob) -> object:
        """The replay spec *record* was submitted with.  Raises when it
        has none, or when the spec or a device row it references does
        not load."""
        if record.spec is None:
            raise ValueError(f"job {record.job_id} has no replay spec")
        return _SpecUnpickler(record.spec, self).load()

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
