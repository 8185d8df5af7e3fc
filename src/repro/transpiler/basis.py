"""Decomposition into the device basis {rz, sx, x, cx}.

Two stages:

1. multi-qubit gates are rewritten into CX + 1q gates using textbook
   decompositions;
2. every 1q gate is converted to the ZXZXZ form
   ``RZ(phi+pi) SX RZ(theta+pi) SX RZ(lam)`` via U3 angle extraction from
   its matrix (exact up to global phase, which is unobservable).
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Tuple

import numpy as np

from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.gates import BASIS_GATES, Gate, gate

__all__ = ["zyz_angles", "decompose_to_basis", "decompose_oneq_gate"]

_TOL = 1e-10


def zyz_angles(matrix: np.ndarray) -> Tuple[float, float, float]:
    """Extract U3 angles ``(theta, phi, lam)`` from a 1q unitary.

    ``U ~ e^{i alpha} U3(theta, phi, lam)`` — the global phase alpha is
    dropped.
    """
    u00, u01 = matrix[0]
    u10, u11 = matrix[1]
    cos_half = min(abs(u00), 1.0)
    theta = 2.0 * math.acos(cos_half)
    if abs(u00) > _TOL and abs(u10) > _TOL:
        alpha = cmath.phase(u00)
        phi = cmath.phase(u10) - alpha
        lam = cmath.phase(-u01) - alpha
    elif abs(u00) <= _TOL:
        # theta = pi: only phi+lam-like combination observable.
        theta = math.pi
        lam = 0.0
        phi = cmath.phase(u10) - cmath.phase(-u01)
    else:
        # theta = 0: diagonal.
        theta = 0.0
        lam = 0.0
        phi = cmath.phase(u11) - cmath.phase(u00)
    return theta, _wrap(phi), _wrap(lam)


def _wrap(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2 * math.pi)
    if wrapped <= 0:
        wrapped += 2 * math.pi
    return wrapped - math.pi


#: The one ``sx`` gate the rewrites emit (gates are frozen, safe to share).
_SX = gate("sx")


def _rz(angle: float) -> Gate:
    """An ``rz`` gate around a float angle (what :func:`gate` would build,
    without its name lookup and coercion)."""
    return Gate("rz", 1, (angle,))


def decompose_oneq_gate(g: Gate) -> List[Gate]:
    """Rewrite a 1q gate as ZXZXZ basis gates (degenerate forms pruned).

    ``U3(theta, phi, lam) ~ RZ(phi+pi) SX RZ(theta+pi) SX RZ(lam)``;
    pure-Z gates collapse to one RZ, and ``theta = pi/2`` forms collapse
    to RZ SX RZ.
    """
    if g.name in BASIS_GATES:
        return [g]
    theta, phi, lam = zyz_angles(g.matrix())
    if abs(theta) < _TOL:
        total = _wrap(phi + lam)
        if abs(total) < _TOL:
            return []
        return [_rz(total)]
    if abs(theta - math.pi / 2) < _TOL:
        return [_rz(_wrap(lam - math.pi / 2)), _SX,
                _rz(_wrap(phi + math.pi / 2))]
    return [_rz(lam), _SX, _rz(_wrap(theta + math.pi)), _SX,
            _rz(_wrap(phi + 3 * math.pi))]


def _emit(qc: QuantumCircuit, name: str, qubits: Tuple[int, ...],
          *params: float) -> None:
    # *qubits* come from an instruction the circuit already validated,
    # and every rewrite keeps the gate's arity, so skip ``append``.
    qc._instructions.append(  # noqa: SLF001
        Instruction(gate(name, *params), qubits))


def _decompose_multiq(qc: QuantumCircuit, inst: Instruction) -> None:
    """Rewrite a multi-qubit gate into CX + 1q gates, appending to *qc*."""
    name = inst.name
    q = inst.qubits
    p = inst.params
    if name == "cx":
        _emit(qc, "cx", q)
    elif name == "cz":
        _emit(qc, "h", (q[1],))
        _emit(qc, "cx", q)
        _emit(qc, "h", (q[1],))
    elif name == "cy":
        _emit(qc, "sdg", (q[1],))
        _emit(qc, "cx", q)
        _emit(qc, "s", (q[1],))
    elif name == "ch":
        c, t = q
        _emit(qc, "s", (t,))
        _emit(qc, "h", (t,))
        _emit(qc, "t", (t,))
        _emit(qc, "cx", (c, t))
        _emit(qc, "tdg", (t,))
        _emit(qc, "h", (t,))
        _emit(qc, "sdg", (t,))
    elif name == "swap":
        a, b = q
        _emit(qc, "cx", (a, b))
        _emit(qc, "cx", (b, a))
        _emit(qc, "cx", (a, b))
    elif name == "iswap":
        a, b = q
        _emit(qc, "s", (a,))
        _emit(qc, "s", (b,))
        _emit(qc, "h", (a,))
        _emit(qc, "cx", (a, b))
        _emit(qc, "cx", (b, a))
        _emit(qc, "h", (b,))
    elif name in ("cp", "cu1"):
        lam = p[0]
        c, t = q
        _emit(qc, "p", (c,), lam / 2)
        _emit(qc, "cx", (c, t))
        _emit(qc, "p", (t,), -lam / 2)
        _emit(qc, "cx", (c, t))
        _emit(qc, "p", (t,), lam / 2)
    elif name == "crz":
        theta = p[0]
        c, t = q
        _emit(qc, "rz", (t,), theta / 2)
        _emit(qc, "cx", (c, t))
        _emit(qc, "rz", (t,), -theta / 2)
        _emit(qc, "cx", (c, t))
    elif name == "cry":
        theta = p[0]
        c, t = q
        _emit(qc, "ry", (t,), theta / 2)
        _emit(qc, "cx", (c, t))
        _emit(qc, "ry", (t,), -theta / 2)
        _emit(qc, "cx", (c, t))
    elif name == "crx":
        theta = p[0]
        c, t = q
        _emit(qc, "h", (t,))
        _decompose_multiq(qc, Instruction(gate("crz", theta), (c, t)))
        _emit(qc, "h", (t,))
    elif name == "rzz":
        theta = p[0]
        a, b = q
        _emit(qc, "cx", (a, b))
        _emit(qc, "rz", (b,), theta)
        _emit(qc, "cx", (a, b))
    elif name == "rxx":
        theta = p[0]
        a, b = q
        _emit(qc, "h", (a,))
        _emit(qc, "h", (b,))
        _decompose_multiq(qc, Instruction(gate("rzz", theta), (a, b)))
        _emit(qc, "h", (a,))
        _emit(qc, "h", (b,))
    elif name == "ryy":
        theta = p[0]
        a, b = q
        _emit(qc, "rx", (a,), math.pi / 2)
        _emit(qc, "rx", (b,), math.pi / 2)
        _decompose_multiq(qc, Instruction(gate("rzz", theta), (a, b)))
        _emit(qc, "rx", (a,), -math.pi / 2)
        _emit(qc, "rx", (b,), -math.pi / 2)
    elif name == "ccx":
        a, b, t = q
        _emit(qc, "h", (t,))
        _emit(qc, "cx", (b, t))
        _emit(qc, "tdg", (t,))
        _emit(qc, "cx", (a, t))
        _emit(qc, "t", (t,))
        _emit(qc, "cx", (b, t))
        _emit(qc, "tdg", (t,))
        _emit(qc, "cx", (a, t))
        _emit(qc, "t", (b,))
        _emit(qc, "t", (t,))
        _emit(qc, "h", (t,))
        _emit(qc, "cx", (a, b))
        _emit(qc, "t", (a,))
        _emit(qc, "tdg", (b,))
        _emit(qc, "cx", (a, b))
    elif name == "cswap":
        c, a, b = q
        _emit(qc, "cx", (b, a))
        _decompose_multiq(qc, Instruction(gate("ccx"), (c, a, b)))
        _emit(qc, "cx", (b, a))
    else:
        raise ValueError(f"no decomposition for gate {name!r}")


def decompose_to_basis(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rewrite *circuit* entirely in {rz, sx, x, cx} (+ directives)."""
    # Stage 1: break multi-qubit gates into CX + arbitrary 1q.
    stage1 = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                            circuit.name)
    for inst in circuit:
        if inst.gate.is_directive:
            stage1._instructions.append(inst)  # noqa: SLF001
            continue
        if len(inst.qubits) == 1:
            stage1._instructions.append(inst)  # noqa: SLF001
            continue
        _decompose_multiq(stage1, inst)
    # Stage 2: 1q gates to ZXZXZ, each distinct (name, params) once:
    # circuits repeat their rotations, and the rewrite is a pure
    # function of the gate.  Keys equate 0.0 with -0.0; the rewrite gives
    # both the same bits (every angle it emits passes through ``_wrap``),
    # and basis gates, where a signed zero would show, pass through as is.
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    emitted = out._instructions  # noqa: SLF001
    rewrites: Dict[Tuple, List[Gate]] = {}
    for inst in stage1:
        if inst.gate.is_directive or inst.name == "cx":
            emitted.append(inst)
            continue
        if len(inst.qubits) != 1:
            raise AssertionError(
                f"stage 1 left a non-CX multi-qubit gate: {inst.name}")
        if inst.name in BASIS_GATES:
            emitted.append(inst if not inst.clbits
                           else Instruction(inst.gate, inst.qubits))
            continue
        key = (inst.name, inst.params)
        gates = rewrites.get(key)
        if gates is None:
            gates = rewrites[key] = decompose_oneq_gate(inst.gate)
        for g in gates:
            emitted.append(Instruction(g, inst.qubits))
    return out
