"""Fidelity metrics: PST, JSD, and the Estimated Fidelity Score (Eq. 1).

- **PST** (Eq. 2): probability of a successful trial, for circuits with a
  single correct output.
- **JSD** (Eq. 3–4): Jensen-Shannon divergence between the measured and
  ideal output distributions (symmetric, always finite; base-2 logs so
  the value lies in [0, 1]).
- **EFS** (Eq. 1): ``Avg2q(cross) * #2q + Avg1q * #1q + sum(readout)``
  over a candidate partition, where CX errors of crosstalk-suspected
  pairs are inflated before averaging.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence

from ..hardware.calibration import Calibration
from ..hardware.topology import CouplingMap, Edge

__all__ = [
    "pst",
    "kl_divergence",
    "jensen_shannon_divergence",
    "estimated_fidelity_score",
    "hardware_throughput",
    "normalize_distribution",
]


def normalize_distribution(counts: Mapping[str, float]) -> Dict[str, float]:
    """Normalize counts/weights into a probability distribution."""
    total = float(sum(counts.values()))
    if total <= 0:
        raise ValueError("empty distribution")
    return {k: v / total for k, v in counts.items()}


def pst(counts: Mapping[str, float], expected: str) -> float:
    """Probability of a Successful Trial (Eq. 2)."""
    total = float(sum(counts.values()))
    if total <= 0:
        raise ValueError("empty counts")
    return float(counts.get(expected, 0.0)) / total


def kl_divergence(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Kullback-Leibler divergence D(P || Q) in bits (Eq. 4).

    Infinite when P has mass where Q has none — which is why the paper
    uses JSD instead.
    """
    total = 0.0
    for key, pv in p.items():
        if pv <= 0:
            continue
        qv = q.get(key, 0.0)
        if qv <= 0:
            return math.inf
        total += pv * math.log2(pv / qv)
    return total


def jensen_shannon_divergence(p: Mapping[str, float],
                              q: Mapping[str, float]) -> float:
    """Jensen-Shannon divergence (Eq. 3), in [0, 1]; 0 iff P = Q."""
    p = normalize_distribution(p)
    q = normalize_distribution(q)
    keys = set(p) | set(q)
    m = {k: 0.5 * (p.get(k, 0.0) + q.get(k, 0.0)) for k in keys}
    jsd = 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m)
    # Clamp tiny negative rounding artefacts.
    return max(0.0, min(1.0, jsd))


def estimated_fidelity_score(
    partition: Sequence[int],
    coupling: CouplingMap,
    calibration: Calibration,
    num_twoq_gates: int,
    num_oneq_gates: int,
    crosstalk_pairs: Iterable[Edge] = (),
    sigma: float = 1.0,
) -> float:
    """Estimated Fidelity Score of a partition (Eq. 1) — lower is better.

    *crosstalk_pairs* lists the partition-internal links suspected of
    crosstalk with already-allocated programs; their CX error is
    multiplied by *sigma* before averaging, emulating the crosstalk
    impact without SRB characterization.
    """
    edges = coupling.subgraph_edges(partition)
    cross = {tuple(sorted(e)) for e in crosstalk_pairs}
    if edges:
        total = 0.0
        for e in edges:
            err = calibration.cx_error(*e)
            if e in cross:
                err *= sigma
            total += err
        avg_twoq = total / len(edges)
    else:
        avg_twoq = 0.0 if num_twoq_gates == 0 else 1.0
    avg_oneq = (
        sum(calibration.oneq_error[q] for q in partition) / len(partition)
        if partition else 0.0
    )
    readout_sum = sum(
        calibration.readout_error_avg(q) for q in partition)
    return avg_twoq * num_twoq_gates + avg_oneq * num_oneq_gates + readout_sum


def hardware_throughput(qubits_used: int, total_qubits: int) -> float:
    """Used qubits / total qubits."""
    if total_qubits <= 0:
        raise ValueError("total_qubits must be positive")
    return qubits_used / total_qubits
