"""Ideal statevector simulation.

Applies gates on a tensor-reshaped state through the local-operator
primitive in :mod:`repro.sim.kernels` — one matmul per k-qubit gate,
O(2^n * 2^k), no full-space embeddings.  Measurement instructions are
ignored here (the statevector before measurement is returned); use
:mod:`repro.sim.readout` or the executor for shot sampling.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.controlflow import has_control_flow
from .kernels import apply_to_statevector, initial_state_tensor
from .unitary import bitstring_of

__all__ = ["simulate_statevector", "ideal_probabilities"]


def simulate_statevector(circuit: QuantumCircuit,
                         initial_state: Optional[np.ndarray] = None
                         ) -> np.ndarray:
    """Return the final statevector of *circuit* (big-endian).

    Measurements and barriers are skipped; resets are rejected (they are
    non-unitary — use the density-matrix simulator).
    """
    n = circuit.num_qubits
    if initial_state is None:
        state = initial_state_tensor(n)
    else:
        if initial_state.size != 2 ** n:
            raise ValueError("initial state size mismatch")
        state = np.array(initial_state, dtype=complex).reshape((2,) * n)
    for inst in circuit:
        if inst.name in ("measure", "barrier", "delay"):
            continue
        if inst.name == "reset":
            raise ValueError("reset requires the density-matrix simulator")
        state = apply_to_statevector(state, inst.gate.matrix(),
                                     inst.qubits, n)
    return state.reshape(2 ** n)


def ideal_probabilities(circuit: QuantumCircuit) -> Dict[str, float]:
    """Exact output distribution over measured clbits (or all qubits).

    If the circuit contains measurements, probabilities are marginalized
    onto the measured clbits (clbit 0 is the leftmost character of the
    key); otherwise all qubits are reported in qubit order.

    Control-flow circuits, circuits with resets, and circuits with
    genuine mid-circuit measurements are routed to the exact tree-walk
    engine (:func:`repro.sim.feedforward.dynamic_probabilities`), which
    collapses the state at each measurement instead of deferring.
    """
    if (has_control_flow(circuit) or circuit.has_midcircuit_measurement()
            or any(inst.name == "reset" for inst in circuit)):
        from .feedforward import dynamic_probabilities

        return dynamic_probabilities(circuit)
    n = circuit.num_qubits
    amps = simulate_statevector(circuit.without_measurements())
    probs = np.abs(amps) ** 2

    measure_map = [
        (inst.qubits[0], inst.clbits[0])
        for inst in circuit if inst.name == "measure"
    ]
    if not measure_map:
        return {
            bitstring_of(i, n): float(p)
            for i, p in enumerate(probs) if p > 1e-14
        }
    clbits = sorted({c for _, c in measure_map})
    qubit_for_clbit = {}
    for q, c in measure_map:
        qubit_for_clbit[c] = q  # last measure into a clbit wins
    out: Dict[str, float] = {}
    for idx, p in enumerate(probs):
        if p <= 1e-14:
            continue
        key = "".join(
            str((idx >> (n - 1 - qubit_for_clbit[c])) & 1) for c in clbits
        )
        out[key] = out.get(key, 0.0) + float(p)
    return out
