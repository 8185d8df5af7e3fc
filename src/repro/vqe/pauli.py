"""Pauli-string algebra for Hamiltonians and simultaneous measurement.

A :class:`PauliString` is a label like ``"IZXY"`` (qubit 0 leftmost); a
:class:`PauliOperator` is a real/complex linear combination of strings.
Qubit-wise commutation — the criterion for measuring strings in the same
shot — lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Tuple

import numpy as np

__all__ = ["PauliString", "PauliOperator"]

_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Single-qubit Pauli products: (left, right) -> (phase, result).
_PRODUCTS: Dict[Tuple[str, str], Tuple[complex, str]] = {}
for _a in "IXYZ":
    _PRODUCTS[("I", _a)] = (1.0, _a)
    _PRODUCTS[(_a, "I")] = (1.0, _a)
    _PRODUCTS[(_a, _a)] = (1.0, "I")
_PRODUCTS[("X", "Y")] = (1j, "Z")
_PRODUCTS[("Y", "X")] = (-1j, "Z")
_PRODUCTS[("Y", "Z")] = (1j, "X")
_PRODUCTS[("Z", "Y")] = (-1j, "X")
_PRODUCTS[("Z", "X")] = (1j, "Y")
_PRODUCTS[("X", "Z")] = (-1j, "Y")


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis, e.g. ``ZX``."""

    label: str

    def __post_init__(self) -> None:
        if not self.label or any(c not in "IXYZ" for c in self.label):
            raise ValueError(f"bad Pauli label {self.label!r}")

    @property
    def num_qubits(self) -> int:
        """Number of qubits the string spans."""
        return len(self.label)

    @property
    def is_identity(self) -> bool:
        """True for the all-I string."""
        return set(self.label) == {"I"}

    def matrix(self) -> np.ndarray:
        """Dense matrix (big-endian: qubit 0 = first tensor factor)."""
        out = np.eye(1, dtype=complex)
        for c in self.label:
            out = np.kron(out, _MATRICES[c])
        return out

    def commutes_with(self, other: "PauliString") -> bool:
        """Full (global) commutation test."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("length mismatch")
        anti = sum(
            1 for a, b in zip(self.label, other.label)
            if a != "I" and b != "I" and a != b
        )
        return anti % 2 == 0

    def qubit_wise_commutes_with(self, other: "PauliString") -> bool:
        """Qubit-wise commutation: on every qubit the factors are equal
        or one is I.  This is the grouping criterion for simultaneous
        measurement with only single-qubit basis rotations."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("length mismatch")
        return all(
            a == "I" or b == "I" or a == b
            for a, b in zip(self.label, other.label)
        )

    def __mul__(self, other: "PauliString") -> Tuple[complex, "PauliString"]:
        """Product with phase: returns ``(phase, string)``."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("length mismatch")
        phase: complex = 1.0
        chars: List[str] = []
        for a, b in zip(self.label, other.label):
            ph, c = _PRODUCTS[(a, b)]
            phase *= ph
            chars.append(c)
        return phase, PauliString("".join(chars))

    def support(self) -> Tuple[int, ...]:
        """Qubits where the string acts non-trivially."""
        return tuple(i for i, c in enumerate(self.label) if c != "I")

    def __str__(self) -> str:
        return self.label


class PauliOperator:
    """A linear combination of Pauli strings (a qubit Hamiltonian)."""

    def __init__(self, terms: Mapping[str, float]) -> None:
        if not terms:
            raise ValueError("operator needs at least one term")
        lengths = {len(label) for label in terms}
        if len(lengths) != 1:
            raise ValueError("all terms must span the same qubits")
        self._terms: Dict[PauliString, float] = {
            PauliString(label): float(coeff)
            for label, coeff in terms.items()
        }
        self.num_qubits = lengths.pop()

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Tuple[PauliString, float]]:
        return iter(sorted(self._terms.items(), key=lambda kv: kv[0].label))

    def coefficient(self, label: str) -> float:
        """Coefficient of a term (0 when absent)."""
        return self._terms.get(PauliString(label), 0.0)

    def matrix(self) -> np.ndarray:
        """Dense Hamiltonian matrix."""
        dim = 2 ** self.num_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for string, coeff in self._terms.items():
            out += coeff * string.matrix()
        return out

    def ground_energy(self) -> float:
        """Exact smallest eigenvalue (SciPy dense eigensolver)."""
        import scipy.linalg

        eigenvalues = scipy.linalg.eigvalsh(self.matrix())
        return float(eigenvalues[0])

    def expectation(self, state: np.ndarray) -> float:
        """<psi|H|psi> for a statevector."""
        return float(np.real(state.conj() @ (self.matrix() @ state)))
