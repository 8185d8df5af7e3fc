"""Local operator kernels for state and density-matrix updates.

The simulators store an n-qubit pure state as a ``(2,)*n`` tensor and a
density matrix as a ``(2,)*2n`` tensor (the first n axes are ket indices,
the last n are bra indices, both in big-endian qubit order).  Every update
goes through one primitive, :func:`apply_local`: a ``d x d`` matrix acts
on a handful of target axes by moving them to the front with a transpose,
one ``@`` against the ``(d, -1)`` reshape, and the inverse transpose.  A
k-qubit gate on a state costs ``O(2^n * 2^k)``; on a density matrix the
gate and its noise channel fold into one ``4^k x 4^k`` superoperator
(:func:`superop_matrix`) applied to the ket and bra target axes together,
``O(4^n * 4^k)``.  At the 2-8 qubit partition sizes the executor
simulates, the cost is numpy call overhead, so one call per update is the
point; the axis permutations are memoized.

Nothing here ever materializes a full-space embedding; see
:func:`repro.sim.unitary.embed_gate` for the dense construction, which the
package keeps only as a reference/verification path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "initial_state_tensor",
    "initial_density_tensor",
    "apply_local",
    "target_axes",
    "apply_to_statevector",
    "kron",
    "superop_matrix",
    "RESET_KRAUS",
]

#: Kraus operators of the reset-to-|0> channel: |0><0| and |0><1|.
RESET_KRAUS = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 1], [0, 0]], dtype=complex),
)


def initial_state_tensor(num_qubits: int) -> np.ndarray:
    """The |0...0> state as a ``(2,)*n`` tensor."""
    state = np.zeros((2,) * num_qubits, dtype=complex)
    state[(0,) * num_qubits] = 1.0
    return state


def initial_density_tensor(num_qubits: int) -> np.ndarray:
    """The |0...0><0...0| density matrix as a ``(2,)*2n`` tensor."""
    rho = np.zeros((2,) * (2 * num_qubits), dtype=complex)
    rho[(0,) * (2 * num_qubits)] = 1.0
    return rho


@lru_cache(maxsize=4096)
def _axis_orders(ndim: int, axes: Tuple[int, ...]
                 ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The transpose moving *axes* to the front (in order), and its
    inverse."""
    perm = axes + tuple(a for a in range(ndim) if a not in axes)
    inverse = [0] * ndim
    for position, axis in enumerate(perm):
        inverse[axis] = position
    return perm, tuple(inverse)


@lru_cache(maxsize=4096)
def target_axes(qubits: Tuple[int, ...], num_qubits: int,
                density: bool) -> Tuple[int, ...]:
    """Tensor axes of *qubits*: the qubits themselves on a state, the ket
    axes then the bra axes on a density tensor."""
    if any(not 0 <= q < num_qubits for q in qubits):
        raise ValueError(f"qubits {tuple(qubits)} outside 0..{num_qubits - 1}")
    if density:
        return qubits + tuple(num_qubits + q for q in qubits)
    return qubits


def apply_local(tensor: np.ndarray, matrix: np.ndarray,
                axes: Tuple[int, ...]) -> np.ndarray:
    """Apply a ``d x d`` *matrix* to the target *axes* of *tensor*.

    The target axes (whose sizes multiply to ``d``, in matrix-factor
    order) go to the front, the rest flatten into one column axis, and a
    single matmul updates every column; the result is a view in the
    original axis order.
    """
    perm, inverse = _axis_orders(tensor.ndim, axes)
    moved = tensor.transpose(perm)
    out = matrix @ moved.reshape(matrix.shape[1], -1)
    return out.reshape(moved.shape).transpose(inverse)


def apply_to_statevector(state: np.ndarray, matrix: np.ndarray,
                         qubits: Sequence[int],
                         num_qubits: int) -> np.ndarray:
    """Apply a k-qubit *matrix* to a ``(2,)*n`` state tensor.

    *qubits* lists, in order, the circuit qubit each tensor factor of
    *matrix* acts on; the tuple need not be sorted or contiguous.  The
    state may carry extra trailing axes (e.g. the column axis of a
    unitary-in-progress); only the first *num_qubits* axes are qubit
    axes.
    """
    axes = target_axes(tuple(qubits), num_qubits, False)
    return apply_local(state, np.asarray(matrix, dtype=complex), axes)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, as one broadcast multiply.

    The same elementwise products as ``np.kron(a, b)``, so the same
    bytes, without the shape bookkeeping that dominates ``np.kron`` at
    the 2x2 and 4x4 sizes the simulators fold.
    """
    m, n = a.shape
    p, q = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def superop_matrix(operators: Sequence[np.ndarray]) -> np.ndarray:
    """Fold Kraus operators into one ``4^k x 4^k`` superoperator.

    Returns ``S = sum_i K_i (x) conj(K_i)``, which maps the ``(ket, bra)``
    target block of a density tensor in one matmul: a 2q depolarizing
    channel (16 operators) costs one call instead of 32.
    """
    d = operators[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for op in operators:
        s += kron(op, op.conj())
    return s
