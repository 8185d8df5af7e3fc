"""Unitary construction: gate embedding and circuit-to-unitary.

Conventions (used consistently across the whole package):

- **big-endian qubit order**: qubit 0 is the most significant bit of a basis
  state index, i.e. basis index ``b`` assigns qubit ``q`` the bit
  ``(b >> (n - 1 - q)) & 1``.
- a gate's matrix is expressed in the big-endian order of its *instruction
  qubit list* (so ``cx`` with qubits ``(c, t)`` has control = first factor).

:func:`embed_gate` builds the dense full-space operator.  It is **not** on
the simulation hot path anymore — the simulators contract gates locally via
:mod:`repro.sim.kernels` — and survives as the reference construction for
verification and for code that genuinely needs the full matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuits.circuit import QuantumCircuit

__all__ = ["embed_gate", "circuit_unitary", "bitstring_of"]


def bitstring_of(index: int, num_bits: int) -> str:
    """Render a basis index as a big-endian bitstring (qubit 0 leftmost)."""
    return format(index, f"0{num_bits}b")


def embed_gate(matrix: np.ndarray, qubits: Sequence[int],
               num_qubits: int) -> np.ndarray:
    """Embed a k-qubit gate matrix into the full n-qubit unitary.

    *qubits* gives, in order, which circuit qubit each tensor factor of
    *matrix* acts on.
    """
    k = len(qubits)
    if matrix.shape != (2 ** k, 2 ** k):
        raise ValueError("matrix shape does not match qubit count")
    if len(set(qubits)) != k:
        raise ValueError("duplicate qubits in embedding")
    if any(not 0 <= q < num_qubits for q in qubits):
        raise ValueError("qubit index out of range")
    rest = [q for q in range(num_qubits) if q not in qubits]
    full = np.kron(matrix, np.eye(2 ** (num_qubits - k), dtype=complex))
    # `full` acts on tensor axes ordered [qubits..., rest...]; permute to
    # natural order [0, 1, ..., n-1].
    current_order = list(qubits) + rest
    # perm[i] = where natural axis i currently lives.
    perm = [current_order.index(q) for q in range(num_qubits)]
    tens = full.reshape((2,) * (2 * num_qubits))
    row_axes = perm
    col_axes = [num_qubits + p for p in perm]
    tens = tens.transpose(row_axes + col_axes)
    return np.ascontiguousarray(
        tens.reshape(2 ** num_qubits, 2 ** num_qubits))


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Compose a circuit's gates into a single unitary matrix.

    Measurements and resets are rejected; barriers and delays are skipped.
    Each gate is contracted locally against the row axes of the running
    unitary (every column is a statevector), so no full-space embedding is
    built — O(8^n) per gate becomes O(4^n * 4^k).
    """
    from .kernels import apply_to_statevector

    n = circuit.num_qubits
    dim = 2 ** n
    # (2,)*n ket axes + one flat column axis; column j is U |j>.
    unitary = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for inst in circuit:
        if inst.name in ("barrier", "delay"):
            continue
        if inst.gate.is_directive:
            raise ValueError(
                f"cannot take the unitary of a circuit with {inst.name!r}")
        unitary = apply_to_statevector(unitary, inst.gate.matrix(),
                                       inst.qubits, n)
    return unitary.reshape(dim, dim)
