"""Synthetic multi-user traffic generators over the Table II suite.

The cloud scheduler needs realistic arrival streams, not hand-written
lists.  This module synthesizes :class:`~repro.core.SubmittedProgram`
streams from three orthogonal knobs:

- **arrival pattern** — ``poisson`` (memoryless, the M/G/1 textbook
  case) or ``bursty`` (tight clumps separated by quiet gaps, the shape
  real notebook-driven traffic has);
- **circuit mix** — ``uniform`` over the suite, or ``heavy_tail``
  (small circuits dominate, large ones form the tail — weights follow a
  Zipf law over the suite ordered by qubit count);
- **users/priorities** — submissions rotate through a user pool, with
  optional per-user priorities.

Everything is seeded and deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.scheduler import SubmittedProgram
from .dynamic import dynamic_workloads
from .suite import Workload, all_workloads

__all__ = [
    "poisson_arrival_times",
    "bursty_arrival_times",
    "sample_workload_mix",
    "synthesize_traffic",
    "traffic_rate_sweep",
    "ARRIVAL_PATTERNS",
    "CIRCUIT_MIXES",
]

ARRIVAL_PATTERNS = ("poisson", "bursty")
CIRCUIT_MIXES = ("uniform", "heavy_tail")

SeedLike = Union[int, np.random.Generator, None]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def poisson_arrival_times(
    num_programs: int,
    mean_interarrival_ns: float,
    seed: SeedLike = 0,
) -> List[float]:
    """Arrival instants of a Poisson process (exponential gaps)."""
    if num_programs <= 0:
        raise ValueError("num_programs must be positive")
    if mean_interarrival_ns <= 0:
        raise ValueError("mean interarrival must be positive")
    rng = _rng(seed)
    gaps = rng.exponential(mean_interarrival_ns, size=num_programs)
    return list(np.cumsum(gaps) - gaps[0])  # first arrival at t = 0


def bursty_arrival_times(
    num_programs: int,
    burst_size: int = 4,
    burst_gap_ns: float = 5e6,
    intra_gap_ns: float = 1e4,
    seed: SeedLike = 0,
) -> List[float]:
    """Clumped arrivals: bursts of *burst_size* nearly-simultaneous
    submissions separated by long quiet gaps (both exponentially
    jittered)."""
    if num_programs <= 0 or burst_size <= 0:
        raise ValueError("counts must be positive")
    if burst_gap_ns <= 0 or intra_gap_ns < 0:
        raise ValueError("gaps must be positive")
    rng = _rng(seed)
    times: List[float] = []
    t = 0.0
    while len(times) < num_programs:
        for _ in range(min(burst_size, num_programs - len(times))):
            times.append(t)
            if intra_gap_ns > 0:
                t += float(rng.exponential(intra_gap_ns))
        t += float(rng.exponential(burst_gap_ns))
    return times


def sample_workload_mix(
    num_programs: int,
    mix: str = "uniform",
    seed: SeedLike = 0,
    zipf_exponent: float = 1.5,
) -> List[Workload]:
    """Draw *num_programs* suite workloads under a size mix.

    ``uniform`` draws every suite circuit equally; ``heavy_tail``
    weights circuits by a Zipf law over their qubit-count rank
    (smallest first), so 3-qubit programs dominate and 5-qubit ones are
    the rare heavy jobs.
    """
    if mix not in CIRCUIT_MIXES:
        raise ValueError(
            f"unknown circuit mix {mix!r}; choose from {CIRCUIT_MIXES}")
    rng = _rng(seed)
    suite = sorted(all_workloads(), key=lambda w: (w.num_qubits, w.name))
    if mix == "uniform":
        weights = np.ones(len(suite))
    else:
        weights = 1.0 / np.arange(1, len(suite) + 1) ** zipf_exponent
    weights = weights / weights.sum()
    picks = rng.choice(len(suite), size=num_programs, p=weights)
    return [suite[i] for i in picks]


def _mix_in_dynamic(picks: List[Workload], dynamic_fraction: float,
                    rng: np.random.Generator) -> List[Workload]:
    """Replace a *dynamic_fraction* of the picks with dynamic workloads.

    Each slot is independently rerolled with the given probability; the
    replacement is drawn uniformly from the dynamic suite.  Fraction 0
    (the default everywhere) is a strict no-op — it doesn't even draw
    from the RNG, so existing seeded streams are unchanged.
    """
    if dynamic_fraction == 0.0:
        return picks
    if not 0.0 <= dynamic_fraction <= 1.0:
        raise ValueError("dynamic_fraction must be within [0, 1]")
    dyn = dynamic_workloads()
    out = list(picks)
    for i in range(len(out)):
        if rng.random() < dynamic_fraction:
            out[i] = dyn[int(rng.integers(len(dyn)))]
    return out


def _build_circuit(wl: Workload) -> "QuantumCircuit":  # noqa: F821
    """A workload's submission circuit.

    Dynamic-suite builders are self-contained (their measurements are
    part of the program — mid-circuit measures feed the branches), so
    they skip the ``measure_all`` the static suite needs.
    """
    built = wl.builder()
    if built.has_control_flow() or built.has_midcircuit_measurement():
        return built
    return wl.circuit()


def synthesize_traffic(
    num_programs: int,
    pattern: str = "poisson",
    mean_interarrival_ns: float = 5e5,
    mix: str = "uniform",
    seed: SeedLike = 0,
    num_users: int = 4,
    user_priorities: Optional[Dict[str, int]] = None,
    burst_size: int = 4,
    dynamic_fraction: float = 0.0,
) -> List[SubmittedProgram]:
    """Synthesize a full submission stream for the cloud scheduler.

    Users are named ``user0..user{num_users-1}`` round-robin;
    *user_priorities* optionally maps user names to scheduler
    priorities (default 0).  For the ``bursty`` pattern,
    *mean_interarrival_ns* sets the quiet gap between bursts.
    *dynamic_fraction* rerolls that share of the submissions onto the
    dynamic (control-flow) suite, so mixed static/dynamic streams can
    be dialed in for scheduler studies.
    """
    if pattern not in ARRIVAL_PATTERNS:
        raise ValueError(
            f"unknown arrival pattern {pattern!r}; "
            f"choose from {ARRIVAL_PATTERNS}")
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    rng = _rng(seed)
    if pattern == "poisson":
        arrivals = poisson_arrival_times(
            num_programs, mean_interarrival_ns, seed=rng)
    else:
        arrivals = bursty_arrival_times(
            num_programs, burst_size=burst_size,
            burst_gap_ns=mean_interarrival_ns, seed=rng)
    picks = sample_workload_mix(num_programs, mix=mix, seed=rng)
    picks = _mix_in_dynamic(picks, dynamic_fraction, rng)
    priorities = user_priorities or {}
    out: List[SubmittedProgram] = []
    for i, (t, wl) in enumerate(zip(arrivals, picks)):
        user = f"user{i % num_users}"
        out.append(SubmittedProgram(
            circuit=_build_circuit(wl),
            arrival_ns=float(t),
            user=user,
            priority=priorities.get(user, 0),
        ))
    return out


def traffic_rate_sweep(
    num_programs: int,
    mean_interarrival_ns_values: Sequence[float],
    mix: str = "uniform",
    seed: SeedLike = 0,
    num_users: int = 4,
    user_priorities: Optional[Dict[str, int]] = None,
    dynamic_fraction: float = 0.0,
) -> Dict[float, List[SubmittedProgram]]:
    """Poisson streams at several arrival rates with a *shared* draw.

    One workload mix and one set of unit-exponential gaps are sampled
    once; each requested rate rescales the gaps.  Every returned stream
    therefore submits the **same programs in the same order** — only
    the arrival spacing differs — so rate studies (turnaround-vs-load
    curves, the allocator-racing sweep) isolate queueing pressure from
    mix variance instead of comparing different random workloads.

    Returns ``{mean_interarrival_ns: [SubmittedProgram, ...]}`` in the
    order the rates were given (dicts preserve insertion order).
    """
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    if not mean_interarrival_ns_values:
        raise ValueError("at least one arrival rate is required")
    for rate in mean_interarrival_ns_values:
        if rate <= 0:
            raise ValueError("mean interarrival must be positive")
    rng = _rng(seed)
    unit_gaps = rng.exponential(1.0, size=num_programs)
    unit_gaps[0] = 0.0  # first arrival at t = 0, at every rate
    picks = sample_workload_mix(num_programs, mix=mix, seed=rng)
    picks = _mix_in_dynamic(picks, dynamic_fraction, rng)
    circuits = [_build_circuit(wl) for wl in picks]
    priorities = user_priorities or {}
    sweep: Dict[float, List[SubmittedProgram]] = {}
    for rate in mean_interarrival_ns_values:
        arrivals = np.cumsum(unit_gaps * rate)
        sweep[float(rate)] = [
            SubmittedProgram(
                circuit=circuit,
                arrival_ns=float(t),
                user=f"user{i % num_users}",
                priority=priorities.get(f"user{i % num_users}", 0),
            )
            for i, (t, circuit) in enumerate(zip(arrivals, circuits))
        ]
    return sweep
