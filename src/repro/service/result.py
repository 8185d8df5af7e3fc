"""Typed results for facade jobs.

One :class:`Result` per job, three layers deep:

- :class:`RunMetadata` — provenance: job/backend identity, the
  allocation method, compile-cache and queue statistics;
- :class:`ProgramResult` — one entry per *submitted program*, in
  submission order: counts, probabilities, PST/JSD, placement, and (for
  scheduler-backed runs) queue timings;
- the raw engine objects (:class:`~repro.core.ScheduleOutcome`,
  per-hardware-job :class:`~repro.core.ExecutionOutcome` lists) for
  callers that need everything.

``Result.to_dict()`` is JSON-safe end to end: the ``schedule`` entry is
:meth:`ScheduleOutcome.to_dict`, and ``to_dict(include_outcomes=True)``
adds the raw per-hardware-job :meth:`ExecutionOutcome.to_dict` rows.

``from_dict`` is the exact inverse the durable
:class:`~repro.service.JobStore` needs: a result rehydrated from its
stored payload serializes back **bit-identically** (``to_dict`` of the
round-trip equals the original payload).  Rehydrated results carry a
:class:`ScheduleRecord` — a read-only view over the stored schedule
summary — in place of the live engine :class:`ScheduleOutcome`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.executor import ExecutionOutcome
from ..core.scheduler import ScheduleOutcome, json_safe_num

__all__ = ["ProgramResult", "RunMetadata", "Result", "ScheduleRecord"]


@dataclass(frozen=True)
class ProgramResult:
    """Everything the service reports about one submitted program."""

    #: Submission index (position in the caller's input sequence).
    index: int
    #: Logical circuit name.
    circuit_name: str
    #: Physical qubits the program ran on.
    partition: Tuple[int, ...]
    #: Estimated fidelity score of the placement (lower is better).
    efs: float
    #: Sampled counts (empty when the run used ``shots=0``).
    counts: Dict[str, int]
    #: Measured output distribution (post readout error).
    probabilities: Dict[str, float]
    #: Probability of successful trial vs. the ideal top outcome.
    pst: float
    #: Jensen-Shannon divergence vs. the ideal distribution.
    jsd: float
    #: Name of the device the program executed on.
    device_name: str
    #: Index of the hardware job (dispatched batch) that carried it.
    hardware_job: int
    #: Completion - arrival, for scheduler-backed runs (else ``None``).
    turnaround_ns: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form."""
        return {
            "index": int(self.index),
            "circuit_name": self.circuit_name,
            "partition": [int(q) for q in self.partition],
            "efs": float(self.efs),
            "counts": {str(k): int(v) for k, v in self.counts.items()},
            "probabilities": {str(k): float(v)
                              for k, v in self.probabilities.items()},
            "pst": float(self.pst),
            "jsd": float(self.jsd),
            "device_name": self.device_name,
            "hardware_job": int(self.hardware_job),
            "turnaround_ns": (None if self.turnaround_ns is None
                              else float(self.turnaround_ns)),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ProgramResult":
        """Inverse of :meth:`to_dict` (store rehydration)."""
        turnaround = payload.get("turnaround_ns")
        return cls(
            index=int(payload["index"]),
            circuit_name=str(payload["circuit_name"]),
            partition=tuple(int(q) for q in payload["partition"]),
            efs=float(payload["efs"]),
            counts={str(k): int(v)
                    for k, v in payload["counts"].items()},
            probabilities={str(k): float(v)
                           for k, v in payload["probabilities"].items()},
            pst=float(payload["pst"]),
            jsd=float(payload["jsd"]),
            device_name=str(payload["device_name"]),
            hardware_job=int(payload["hardware_job"]),
            turnaround_ns=(None if turnaround is None
                           else float(turnaround)),
        )


@dataclass(frozen=True)
class RunMetadata:
    """Provenance of one job: who ran what, where, and at what cost."""

    job_id: str
    backend_name: str
    #: Allocation method label (e.g. ``"QuCP"`` or the scheduler's
    #: ``"online-qucp(th=0.3)"``).
    method: str
    shots: int
    num_programs: int
    #: Hardware jobs the submissions packed into (1 for direct runs).
    num_hardware_jobs: int
    #: Mean hardware throughput across the job's dispatched batches.
    throughput: float
    #: Scheduler queue timings; ``None`` for direct simulator runs.
    makespan_ns: Optional[float] = None
    mean_turnaround_ns: Optional[float] = None
    rejected: Tuple[int, ...] = ()
    #: Shared-cache counter deltas over this job's execution window.
    #: Exact with the provider's default single-worker job pool; with
    #: ``job_workers > 1`` concurrent jobs' lookups land in each
    #: other's windows, so treat them as indicative only.
    transpile_hits: int = 0
    transpile_misses: int = 0
    #: In-memory cache entries LRU-evicted during the window.
    cache_evictions: int = 0
    #: Artifacts promoted from the persistent store into memory during
    #: the window (0 unless the provider attached a ``cache_path``).
    cache_promotions: int = 0
    #: Batches run through the shared
    #: :class:`~repro.core.ExecutionService` over the same window (same
    #: single-worker caveat as the cache deltas above).
    execution_batches: int = 0
    #: Attempts the provider's retry policy spent before this result
    #: (1 = the first try succeeded; see ``RetryPolicy``).
    attempts: int = 1
    #: Why each rejected submission was rejected: ``(index, reason)``
    #: pairs, sorted by index (tuple-of-tuples so the dataclass stays
    #: hashable).  Empty for direct simulator runs.
    rejection_reasons: Tuple[Tuple[int, str], ...] = ()
    #: Submitted circuits still carrying control flow after static
    #: expansion (they executed on the per-shot feed-forward path).
    dynamic_programs: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (NaN timings become ``None``)."""
        return {
            "job_id": self.job_id,
            "backend_name": self.backend_name,
            "method": self.method,
            "shots": int(self.shots),
            "num_programs": int(self.num_programs),
            "num_hardware_jobs": int(self.num_hardware_jobs),
            "throughput": float(self.throughput),
            "makespan_ns": json_safe_num(self.makespan_ns),
            "mean_turnaround_ns": json_safe_num(self.mean_turnaround_ns),
            "rejected": [int(i) for i in self.rejected],
            "transpile_hits": int(self.transpile_hits),
            "transpile_misses": int(self.transpile_misses),
            "cache_evictions": int(self.cache_evictions),
            "cache_promotions": int(self.cache_promotions),
            "execution_batches": int(self.execution_batches),
            "attempts": int(self.attempts),
            "rejection_reasons": {str(i): str(r) for i, r
                                  in self.rejection_reasons},
            "dynamic_programs": int(self.dynamic_programs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunMetadata":
        """Inverse of :meth:`to_dict` (store rehydration).

        ``None`` timings stay ``None`` — the serialized null is the
        canonical spelling of a NaN timing, so the round-trip
        ``to_dict(from_dict(d)) == d`` holds exactly.
        """
        makespan = payload.get("makespan_ns")
        turnaround = payload.get("mean_turnaround_ns")
        reasons = payload.get("rejection_reasons") or {}
        return cls(
            job_id=str(payload["job_id"]),
            backend_name=str(payload["backend_name"]),
            method=str(payload["method"]),
            shots=int(payload["shots"]),
            num_programs=int(payload["num_programs"]),
            num_hardware_jobs=int(payload["num_hardware_jobs"]),
            throughput=float(payload["throughput"]),
            makespan_ns=None if makespan is None else float(makespan),
            mean_turnaround_ns=(None if turnaround is None
                                else float(turnaround)),
            rejected=tuple(int(i) for i in payload.get("rejected", ())),
            transpile_hits=int(payload.get("transpile_hits", 0)),
            transpile_misses=int(payload.get("transpile_misses", 0)),
            cache_evictions=int(payload.get("cache_evictions", 0)),
            cache_promotions=int(payload.get("cache_promotions", 0)),
            execution_batches=int(payload.get("execution_batches", 0)),
            attempts=int(payload.get("attempts", 1)),
            rejection_reasons=tuple(sorted(
                (int(i), str(r)) for i, r in reasons.items())),
            dynamic_programs=int(payload.get("dynamic_programs", 0)),
        )


class ScheduleRecord:
    """Read-only view over a *stored* schedule summary.

    Rehydrated results carry one of these in place of the live engine
    :class:`~repro.core.ScheduleOutcome`: the stored JSON payload is
    the authority, field access reads through to it (``record.num_jobs``,
    ``record.rejected``, ...), and :meth:`to_dict` returns the payload
    verbatim — which is what makes the store's round-trip bit-identical
    without re-deriving engine objects from their serialized form.
    """

    def __init__(self, payload: Dict[str, object]) -> None:
        object.__setattr__(self, "_payload", copy.deepcopy(payload))

    def __getattr__(self, name: str) -> object:
        try:
            return copy.deepcopy(self._payload[name])
        except KeyError:
            raise AttributeError(
                f"stored schedule has no field {name!r}") from None

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ScheduleRecord is read-only")

    def to_dict(self) -> Dict[str, object]:
        """The stored payload, verbatim (a defensive copy)."""
        return copy.deepcopy(self._payload)

    def __repr__(self) -> str:
        return (f"<ScheduleRecord: {self._payload.get('num_jobs')} "
                "jobs (rehydrated)>")


@dataclass
class Result:
    """The complete output of one facade job.

    ``programs`` holds one :class:`ProgramResult` per *completed*
    submission, in submission order (rejected submissions are listed in
    ``metadata.rejected``).  ``schedule`` is the discrete-event
    :class:`~repro.core.ScheduleOutcome` for scheduler-backed runs
    (a :class:`ScheduleRecord` for results rehydrated from a job
    store) and ``None`` for direct simulator runs; ``outcomes`` are the
    raw per-hardware-job :class:`~repro.core.ExecutionOutcome` lists
    (empty when the run was scheduled with ``execute=False`` — and for
    rehydrated results, which store only the JSON-safe form).
    """

    metadata: RunMetadata
    programs: List[ProgramResult] = field(default_factory=list)
    schedule: Optional[Union[ScheduleOutcome, ScheduleRecord]] = None
    outcomes: List[List[ExecutionOutcome]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def program(self, index: int) -> ProgramResult:
        """The result of the *index*-th submitted program."""
        for prog in self.programs:
            if prog.index == index:
                return prog
        raise KeyError(f"no result for program {index} (rejected: "
                       f"{list(self.metadata.rejected)})")

    def counts(self, index: int = 0) -> Dict[str, int]:
        """Sampled counts of one program (default: the first)."""
        return dict(self.program(index).counts)

    def probabilities(self, index: int = 0) -> Dict[str, float]:
        """Measured distribution of one program (default: the first)."""
        return dict(self.program(index).probabilities)

    def mean_pst(self) -> float:
        """Average PST across completed programs."""
        if not self.programs:
            return float("nan")
        return float(sum(p.pst for p in self.programs)
                     / len(self.programs))

    def mean_jsd(self) -> float:
        """Average JSD across completed programs."""
        if not self.programs:
            return float("nan")
        return float(sum(p.jsd for p in self.programs)
                     / len(self.programs))

    # ------------------------------------------------------------------
    def to_dict(self, include_outcomes: bool = False
                ) -> Dict[str, object]:
        """JSON-safe form of the whole result (``json.dumps`` works).

        *include_outcomes* adds the raw engine-layer rows
        (:meth:`ExecutionOutcome.to_dict`, grouped per hardware job) —
        mostly redundant with ``programs`` but exact about which
        programs shared a hardware job, for bench-style artifacts.
        """
        payload: Dict[str, object] = {
            "metadata": self.metadata.to_dict(),
            "programs": [p.to_dict() for p in self.programs],
            "schedule": (None if self.schedule is None
                         else self.schedule.to_dict()),
        }
        if include_outcomes:
            payload["outcomes"] = [
                [out.to_dict() for out in job] for job in self.outcomes]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Result":
        """Inverse of :meth:`to_dict` (store rehydration).

        The round-trip is bit-identical: ``from_dict(d).to_dict() == d``
        for any ``to_dict(include_outcomes=False)`` payload.  Raw
        engine outcomes are not stored, so ``outcomes`` comes back
        empty and ``schedule`` as a :class:`ScheduleRecord`.
        """
        schedule = payload.get("schedule")
        return cls(
            metadata=RunMetadata.from_dict(payload["metadata"]),
            programs=[ProgramResult.from_dict(p)
                      for p in payload.get("programs", [])],
            schedule=None if schedule is None else ScheduleRecord(
                schedule),
            outcomes=[],
        )

    def __repr__(self) -> str:
        return (f"<Result {self.metadata.job_id}: "
                f"{len(self.programs)} programs over "
                f"{self.metadata.num_hardware_jobs} hardware jobs>")


def build_program_results(
    outcomes: Sequence[Sequence[ExecutionOutcome]],
    device_names: Sequence[str],
    turnarounds: Optional[Dict[int, float]] = None,
) -> List[ProgramResult]:
    """Flatten per-hardware-job outcomes into submission-ordered rows.

    *device_names* gives the executing device of each hardware job;
    *turnarounds* (submission index -> ns) comes from the scheduler when
    there is one.
    """
    rows: List[ProgramResult] = []
    for job_idx, job_outcomes in enumerate(outcomes):
        for out in job_outcomes:
            alloc = out.allocation
            turnaround = (None if turnarounds is None
                          else turnarounds.get(alloc.index))
            rows.append(ProgramResult(
                index=alloc.index,
                circuit_name=alloc.circuit.name,
                partition=tuple(alloc.partition),
                efs=alloc.efs,
                counts=dict(out.result.counts),
                probabilities=dict(out.result.probabilities),
                pst=out.pst(),
                jsd=out.jsd(),
                device_name=device_names[job_idx],
                hardware_job=job_idx,
                turnaround_ns=turnaround,
            ))
    rows.sort(key=lambda r: r.index)
    return rows
