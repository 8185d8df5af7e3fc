"""Measurement circuits and expectation estimation for grouped terms.

For a qubit-wise-commuting group, the measurement circuit is the ansatz
followed by single-qubit basis rotations (H for X, S-dagger then H for Y)
and Z-basis measurement; every term's expectation is the signed parity of
its support bits under the measured distribution.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..circuits.circuit import QuantumCircuit
from .grouping import MeasurementGroup
from .pauli import PauliString

__all__ = [
    "measurement_circuit",
    "term_expectation",
    "group_energy",
    "energy_from_distributions",
]


def measurement_circuit(ansatz: QuantumCircuit,
                        group: MeasurementGroup) -> QuantumCircuit:
    """Ansatz + basis rotations + measure-all for one group."""
    if ansatz.num_qubits != group.num_qubits:
        raise ValueError("ansatz/group qubit mismatch")
    qc = ansatz.copy(name=f"{ansatz.name}_meas")
    for q, basis in enumerate(group.basis):
        if basis == "X":
            qc.h(q)
        elif basis == "Y":
            qc.sdg(q)
            qc.h(q)
    qc.measure_all()
    return qc


def term_expectation(probabilities: Mapping[str, float],
                     term: PauliString) -> float:
    """<P> from a measured distribution (bit i of the key = qubit i)."""
    if term.is_identity:
        return 1.0
    support = term.support()
    total = 0.0
    for key, p in probabilities.items():
        parity = sum(int(key[q]) for q in support) % 2
        total += p * (1.0 if parity == 0 else -1.0)
    return total


def group_energy(probabilities: Mapping[str, float],
                 group: MeasurementGroup) -> float:
    """Energy contribution of one group under one distribution."""
    return sum(
        coeff * term_expectation(probabilities, term)
        for term, coeff in group.terms
    )


def energy_from_distributions(
    groups: Sequence[MeasurementGroup],
    distributions: Sequence[Mapping[str, float]],
) -> float:
    """Total energy: sum of per-group contributions."""
    if len(groups) != len(distributions):
        raise ValueError("one distribution per group required")
    return sum(
        group_energy(dist, group)
        for group, dist in zip(groups, distributions)
    )
