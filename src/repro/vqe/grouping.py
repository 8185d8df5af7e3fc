"""Commuting-group partitioning for simultaneous measurement (PG).

Naive VQE measurement runs one circuit per Pauli term.  Grouping
qubit-wise-commuting terms lets one measured shot serve every term in the
group (Gokhale et al., McClean et al.) — for the paper's H2 Hamiltonian
the 5 terms collapse into two groups: {II, IZ, ZI, ZZ} and {XX}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .pauli import PauliOperator, PauliString

__all__ = ["MeasurementGroup", "group_commuting_terms"]


@dataclass(frozen=True)
class MeasurementGroup:
    """Pauli terms measurable in one shot, plus the shared basis.

    ``basis[q]`` is ``"X"``, ``"Y"`` or ``"Z"`` — the measurement basis of
    qubit *q* (``"Z"`` when every member is diagonal there).
    """

    terms: Tuple[Tuple[PauliString, float], ...]
    basis: Tuple[str, ...]

    @property
    def num_qubits(self) -> int:
        """Number of qubits spanned."""
        return len(self.basis)


def _shared_basis(strings: Sequence[PauliString],
                  num_qubits: int) -> Tuple[str, ...]:
    basis = ["Z"] * num_qubits
    for string in strings:
        for q, c in enumerate(string.label):
            if c == "I":
                continue
            if basis[q] != "Z" and basis[q] != c:
                raise ValueError("group is not qubit-wise commuting")
            basis[q] = c
    return tuple(basis)


def group_commuting_terms(operator: PauliOperator
                          ) -> List[MeasurementGroup]:
    """Greedy qubit-wise-commuting grouping (first-fit).

    Identity terms join the first group (they need no measurement at
    all — their expectation is 1).
    """
    groups: List[List[Tuple[PauliString, float]]] = []
    for string, coeff in operator:
        if string.is_identity and groups:
            groups[0].append((string, coeff))
            continue
        placed = False
        for group in groups:
            if all(string.qubit_wise_commutes_with(member)
                   for member, _ in group):
                group.append((string, coeff))
                placed = True
                break
        if not placed:
            groups.append([(string, coeff)])
    out: List[MeasurementGroup] = []
    for group in groups:
        basis = _shared_basis([s for s, _ in group], operator.num_qubits)
        out.append(MeasurementGroup(tuple(group), basis))
    return out
