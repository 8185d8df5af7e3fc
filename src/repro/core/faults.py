"""Deterministic infrastructure fault injection.

The paper's premise is a shared cloud of *unreliable* devices; the
degradation paths this package promises (outage re-queueing,
corrupt-store cold paths) must be tested, not hoped for.  This module
is the one place faults come from, and every fault is deterministic — a
committed :class:`FaultPlan` replays the identical failure sequence on
every run, so chaos tests assert exact outcomes:

- :class:`DeviceOutage` / :class:`FaultPlan` — take fleet devices
  offline at event time *t* (and optionally back online at *t'*).  The
  event-driven :class:`~repro.core.scheduler.CloudScheduler` consumes
  the plan through :meth:`FaultPlan.resolve` (which resolves device
  references against the :class:`~repro.hardware.fleet.DeviceFleet`):
  an in-flight batch on the failed device fails, its programs re-queue
  to surviving devices, and the device rejoins at *t'*.
- :func:`corrupt_file` / :func:`write_foreign_store` /
  :func:`locked_database` — damage an on-disk SQLite store (compile
  cache or job store) the ways real disks do: truncation, garbage
  bytes, a foreign schema, a writer holding an exclusive lock.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "DeviceOutage",
    "FaultPlan",
    "ResolvedOutage",
    "corrupt_file",
    "write_foreign_store",
    "locked_database",
]


# ----------------------------------------------------------------------
# device outages
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceOutage:
    """One device going offline at a fixed event time.

    *device* is a fleet index or a (unique) device name; *duration_ns*
    of ``None`` means the device never comes back this run.
    """

    device: Union[int, str]
    start_ns: float
    duration_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start_ns < 0:
            raise ValueError("outage start must be non-negative")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise ValueError("outage duration must be positive "
                             "(None = permanent)")

    @property
    def until_ns(self) -> Optional[float]:
        """Recovery time, or ``None`` for a permanent outage."""
        if self.duration_ns is None:
            return None
        return self.start_ns + self.duration_ns


@dataclass(frozen=True)
class ResolvedOutage:
    """A :class:`DeviceOutage` pinned to a concrete fleet index."""

    device_index: int
    start_ns: float
    until_ns: Optional[float]


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, committable schedule of infrastructure faults.

    A plan is pure data: the same plan against the same submissions
    replays the identical failure (and recovery) sequence, which is
    what lets chaos tests assert exact re-queue orders and lets two
    runs of the acceptance scenario produce bit-identical schedules.
    Pass one to :class:`~repro.core.CloudScheduler` (``fault_plan=``)
    or a :class:`~repro.service.BackendConfiguration`.
    """

    outages: Tuple[DeviceOutage, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outages", tuple(self.outages))

    @classmethod
    def device_outage(cls, device: Union[int, str], start_ns: float,
                      duration_ns: Optional[float] = None) -> "FaultPlan":
        """A plan with a single outage (the common chaos-test shape)."""
        return cls(outages=(DeviceOutage(device, start_ns, duration_ns),))

    def with_outage(self, device: Union[int, str], start_ns: float,
                    duration_ns: Optional[float] = None) -> "FaultPlan":
        """A copy of this plan with one more outage appended."""
        return FaultPlan(outages=self.outages + (
            DeviceOutage(device, start_ns, duration_ns),))

    def resolve(self, fleet) -> List[ResolvedOutage]:
        """Pin every outage to a fleet index (via
        :meth:`~repro.hardware.fleet.DeviceFleet.resolve_device`).

        Resolution errors (unknown name, ambiguous twin names, index
        out of range) surface here, before any event is scheduled.
        """
        return [
            ResolvedOutage(fleet.resolve_device(o.device), o.start_ns,
                           o.until_ns)
            for o in self.outages
        ]

    def __bool__(self) -> bool:
        return bool(self.outages)


# ----------------------------------------------------------------------
# corrupt / locked on-disk stores
# ----------------------------------------------------------------------

_CORRUPTIONS = ("garbage", "truncate")


def corrupt_file(path: str, mode: str = "garbage") -> str:
    """Damage an on-disk store the way real disks do.

    ``"garbage"`` overwrites the file with non-database bytes (also
    creating it if missing); ``"truncate"`` cuts an existing file to
    half its length, the torn-write shape.  Returns *path*.
    """
    if mode not in _CORRUPTIONS:
        raise ValueError(
            f"unknown corruption {mode!r}; choose from {_CORRUPTIONS}")
    if mode == "garbage":
        with open(path, "wb") as fh:
            fh.write(b"this is not a sqlite database\n" * 8)
        return path
    size = os.path.getsize(path)
    with open(path, "rb+") as fh:
        fh.truncate(max(1, size // 2))
    return path


def write_foreign_store(path: str) -> str:
    """Create a *valid* SQLite file that is not one of ours.

    Stores must refuse (and degrade on) a well-formed database with
    someone else's schema instead of silently writing into it.
    """
    conn = sqlite3.connect(path)
    try:
        conn.execute("CREATE TABLE IF NOT EXISTS somebody_elses_data ("
                     "id INTEGER PRIMARY KEY, blob BLOB)")
        conn.execute("INSERT INTO somebody_elses_data (blob) VALUES (?)",
                     (b"\x00" * 16,))
        conn.commit()
    finally:
        conn.close()
    return path


@contextmanager
def locked_database(path: str) -> Iterator[sqlite3.Connection]:
    """Hold an EXCLUSIVE lock on *path* for the duration of the block.

    Simulates a wedged writer: any store opening the file with a short
    busy timeout sees ``database is locked`` and must degrade, not
    crash or hang.
    """
    conn = sqlite3.connect(path, isolation_level=None)
    try:
        conn.execute("BEGIN EXCLUSIVE")
        yield conn
    finally:
        try:
            conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass
        conn.close()
