"""Clifford-group tooling for randomized benchmarking.

The 1-qubit (24 elements) and 2-qubit (11520 elements) Clifford groups are
built once per process by breadth-first closure over generator gates, with
matrices canonicalized up to global phase.  Each element stores its shortest
generator decomposition, which lets RB append the exact inverse Clifford as
native gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .circuit import QuantumCircuit
from .gates import gate

__all__ = [
    "CliffordElement",
    "CliffordGroup",
    "clifford_group_1q",
    "clifford_group_2q",
]

# A decomposition step: (gate_name, qubit_indices_within_element).
Step = Tuple[str, Tuple[int, ...]]


def _canonicalize(mat: np.ndarray, tol: float = 1e-9) -> bytes:
    """Return a phase-invariant hashable key for a unitary matrix."""
    flat = mat.ravel()
    # Normalize global phase: rotate so the first significant entry is
    # real-positive.
    idx = int(np.argmax(np.abs(flat) > tol))
    phase = flat[idx] / abs(flat[idx])
    normalized = np.round(mat / phase, 6)
    # Adding 0.0 collapses IEEE negative zeros, which would otherwise
    # produce distinct byte keys for identical matrices.
    normalized = normalized + (0.0 + 0.0j)
    return normalized.tobytes()


@dataclass(frozen=True)
class CliffordElement:
    """One Clifford group element: its unitary plus a gate decomposition."""

    matrix: np.ndarray
    steps: Tuple[Step, ...]

    def apply_to(self, circuit: QuantumCircuit,
                 qubits: Sequence[int]) -> None:
        """Append this element's gate sequence to *circuit* on *qubits*."""
        for name, local_qubits in self.steps:
            circuit.append(gate(name), [qubits[i] for i in local_qubits])


class CliffordGroup:
    """A finite Clifford group with sampling and inverse lookup."""

    def __init__(self, num_qubits: int, generators: Sequence[Step]) -> None:
        self.num_qubits = num_qubits
        dim = 2 ** num_qubits
        gen_mats: List[Tuple[Step, np.ndarray]] = []
        for name, qubits in generators:
            gen_mats.append(((name, qubits), self._embed(name, qubits, dim)))
        identity = np.eye(dim, dtype=complex)
        elements: Dict[bytes, CliffordElement] = {
            _canonicalize(identity): CliffordElement(identity, ())
        }
        frontier = [CliffordElement(identity, ())]
        while frontier:
            next_frontier: List[CliffordElement] = []
            for elem in frontier:
                for step, gmat in gen_mats:
                    new_mat = gmat @ elem.matrix
                    key = _canonicalize(new_mat)
                    if key not in elements:
                        new_elem = CliffordElement(
                            new_mat, elem.steps + (step,))
                        elements[key] = new_elem
                        next_frontier.append(new_elem)
            frontier = next_frontier
        self._elements: List[CliffordElement] = list(elements.values())
        self._by_key: Dict[bytes, CliffordElement] = elements

    @staticmethod
    def _embed(name: str, qubits: Tuple[int, ...], dim: int) -> np.ndarray:
        """Expand a generator's matrix onto the full element Hilbert space."""
        import math

        num_qubits = int(math.log2(dim))
        g = gate(name)
        gm = g.matrix()
        if len(qubits) == num_qubits and qubits == tuple(range(num_qubits)):
            return gm
        # Build the permuted tensor embedding via index arithmetic.
        full = np.zeros((dim, dim), dtype=complex)
        other = [q for q in range(num_qubits) if q not in qubits]
        for col in range(dim):
            bits = [(col >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
            sub_in = 0
            for q in qubits:
                sub_in = (sub_in << 1) | bits[q]
            for sub_out in range(gm.shape[0]):
                amp = gm[sub_out, sub_in]
                if amp == 0:
                    continue
                out_bits = list(bits)
                for pos, q in enumerate(qubits):
                    out_bits[q] = (sub_out >> (len(qubits) - 1 - pos)) & 1
                row = 0
                for b in out_bits:
                    row = (row << 1) | b
                full[row, col] += amp
        return full

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> Tuple[CliffordElement, ...]:
        """All group elements."""
        return tuple(self._elements)

    def sample(self, rng: np.random.Generator) -> CliffordElement:
        """Uniformly sample one element."""
        idx = int(rng.integers(len(self._elements)))
        return self._elements[idx]

    def inverse_of(self, mat: np.ndarray) -> CliffordElement:
        """Return the element implementing the inverse of *mat*.

        *mat* must be (proportional to) a group element's unitary.
        """
        key = _canonicalize(mat.conj().T)
        elem = self._by_key.get(key)
        if elem is None:
            raise KeyError("matrix is not an element of this Clifford group")
        return elem


@lru_cache(maxsize=1)
def clifford_group_1q() -> CliffordGroup:
    """The 24-element single-qubit Clifford group over {h, s}."""
    group = CliffordGroup(1, [("h", (0,)), ("s", (0,))])
    assert len(group) == 24, f"1q Clifford group size {len(group)} != 24"
    return group


@lru_cache(maxsize=1)
def clifford_group_2q() -> CliffordGroup:
    """The 11520-element two-qubit Clifford group over {h, s, cx}."""
    group = CliffordGroup(
        2,
        [
            ("h", (0,)),
            ("h", (1,)),
            ("s", (0,)),
            ("s", (1,)),
            ("cx", (0, 1)),
            ("cx", (1, 0)),
        ],
    )
    assert len(group) == 11520, f"2q Clifford group size {len(group)} != 11520"
    return group
