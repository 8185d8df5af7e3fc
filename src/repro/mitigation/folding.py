"""Unitary folding for digital zero-noise extrapolation.

Folding replaces a gate ``G`` by ``G Gdag G`` — logically the identity
around the original gate, but three times the physical noise.
:func:`fold_gates_at_random` (Mitiq's method of that name) folds
randomly-selected individual gates until the gate count reaches
``scale * len(circuit)``.

Only unitary gates participate; measurements/barriers/delays pass through.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..circuits.circuit import Instruction, QuantumCircuit

__all__ = ["fold_gates_at_random", "folded_scale_factors"]


def _split(circuit: QuantumCircuit
           ) -> Tuple[List[Instruction], List[Instruction]]:
    """Separate foldable body from trailing measurement directives."""
    body: List[Instruction] = []
    tail: List[Instruction] = []
    for inst in circuit:
        if inst.name in ("measure", "barrier", "delay", "reset"):
            tail.append(inst)
        else:
            body.append(inst)
    return body, tail


def fold_gates_at_random(
    circuit: QuantumCircuit,
    scale: float,
    seed: Optional[int] = None,
) -> QuantumCircuit:
    """Randomly fold gates until the size reaches ``scale * original``.

    ``scale`` must be >= 1.  Each fold of gate ``G`` inserts
    ``Gdag G`` right after it (2 extra gates), so the number of folds is
    ``round((scale - 1) * n / 2)``.  Gates may be folded more than once
    when ``scale > 3``.
    """
    if scale < 1.0:
        raise ValueError("scale factor must be >= 1")
    body, tail = _split(circuit)
    n = len(body)
    num_folds = int(round((scale - 1.0) * n / 2.0))
    rng = np.random.default_rng(seed)
    # folds[i] = how many times body[i] is folded.
    folds = [0] * n
    if n:
        for idx in rng.integers(0, n, size=num_folds):
            folds[int(idx)] += 1
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         f"{circuit.name}_fold{scale:g}")
    for inst, k in zip(body, folds):
        out._instructions.append(inst)  # noqa: SLF001
        for _ in range(k):
            out.append(inst.gate.inverse(), inst.qubits)
            out._instructions.append(inst)  # noqa: SLF001
    for inst in tail:
        out._instructions.append(inst)  # noqa: SLF001
    return out


def folded_scale_factors(start: float = 1.0, stop: float = 2.5,
                         step: float = 0.5) -> Tuple[float, ...]:
    """The paper's scale-factor grid: 1.0, 1.5, 2.0, 2.5."""
    out = []
    value = start
    while value <= stop + 1e-9:
        out.append(round(value, 10))
        value += step
    return tuple(out)
