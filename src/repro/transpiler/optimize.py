"""Gate-level optimization passes.

- :func:`cancel_adjacent_pairs` removes back-to-back self-inverse gates
  (CX-CX, H-H, X-X, ...);
- :func:`fuse_oneq_runs` collapses every maximal run of 1q gates on a
  qubit into at most one ZXZXZ sequence (subsumes RZ merging);
- :func:`optimize_circuit` iterates the passes to a fixpoint, gated by the
  optimization level.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.controlflow import ControlFlowOp
from ..circuits.gates import Gate
from .basis import decompose_oneq_gate

__all__ = ["cancel_adjacent_pairs", "combine_adjacent_delays",
           "fuse_oneq_runs", "optimize_circuit"]

#: Fused-run memo: (gate name, params) sequence of a 1q run -> its fused
#: replacement (``None`` = "keep the original run").  The fused form is a
#: pure function of the run's gates, and service traffic repeats the
#: same few circuits endlessly (and level 3 re-fuses each circuit to a
#: fixpoint), so the matrix-product + ZYZ extraction of a repeated run
#: is paid once.  Gates are frozen dataclasses, safe to share.  Job
#: threads compile concurrently, so every read and write of the memo
#: holds :data:`_FUSED_RUNS_LOCK` (a hit's ``move_to_end`` must not race
#: another thread's eviction).
_FUSED_RUNS: "OrderedDict[Tuple, Optional[Tuple]]" = OrderedDict()
_FUSED_RUNS_MAX = 4096
_FUSED_RUNS_LOCK = threading.Lock()

_SELF_INVERSE = {"x", "y", "z", "h", "cx", "cz", "swap", "ccx", "cswap",
                 "id"}


def cancel_adjacent_pairs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove adjacent identical self-inverse gates on the same qubits.

    "Adjacent" means no intervening instruction touches any of the gate's
    qubits.
    """
    kept: List[Optional[Instruction]] = list(circuit.instructions)
    last_on_qubit: Dict[int, int] = {}
    for idx, inst in enumerate(circuit.instructions):
        cancel_with: Optional[int] = None
        if inst.name in _SELF_INVERSE:
            prev_idxs = {last_on_qubit.get(q) for q in inst.qubits}
            if len(prev_idxs) == 1:
                prev_idx = prev_idxs.pop()
                if prev_idx is not None and kept[prev_idx] is not None:
                    prev = kept[prev_idx]
                    if (prev.name == inst.name
                            and prev.qubits == inst.qubits):
                        cancel_with = prev_idx
        if cancel_with is not None:
            kept[cancel_with] = None
            kept[idx] = None
            # The cancelled pair no longer blocks its qubits: restore the
            # previous frontier lazily by clearing; subsequent gates will
            # re-scan from scratch below.
            for q in inst.qubits:
                last_on_qubit.pop(q, None)
            continue
        for q in inst.qubits:
            last_on_qubit[q] = idx
        for c in inst.clbits:
            # Measures never cancel; track via impossible qubit key.
            last_on_qubit[-1 - c] = idx
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    for inst in kept:
        if inst is not None:
            out._instructions.append(inst)  # noqa: SLF001
    return out


_UNCACHED = object()


def _fused_run(run: List[Instruction]) -> Optional[Tuple]:
    """Fused replacement of one 1q run, or ``None`` to keep it as-is.

    Served from :data:`_FUSED_RUNS` when the run's ``(name, params)``
    signature has been fused before.
    """
    key = tuple((inst.name, inst.params) for inst in run)
    with _FUSED_RUNS_LOCK:
        cached = _FUSED_RUNS.get(key, _UNCACHED)
        if cached is not _UNCACHED:
            _FUSED_RUNS.move_to_end(key)
            return cached
    mat = np.eye(2, dtype=complex)
    for inst in run:
        mat = inst.gate.matrix() @ mat
    decomposed = decompose_oneq_gate(_matrix_gate(mat))
    fused = tuple(decomposed) if len(decomposed) <= len(run) else None
    with _FUSED_RUNS_LOCK:
        _FUSED_RUNS[key] = fused
        while len(_FUSED_RUNS) > _FUSED_RUNS_MAX:
            _FUSED_RUNS.popitem(last=False)
    return fused


def fuse_oneq_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Collapse maximal 1q-gate runs per qubit into minimal basis gates.

    A run is replaced by its fused ZXZXZ form only when that form is not
    longer than the run itself (a 2-gate run can fuse into 5 basis gates,
    which would be a pessimization).
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    emitted = out._instructions  # noqa: SLF001
    pending: Dict[int, List[Instruction]] = {}

    def flush(q: int) -> None:
        run = pending.pop(q, None)
        if not run:
            return
        fused = _fused_run(run)
        if fused is None:
            emitted.extend(run)
            return
        # *q* is a validated 1q instruction's qubit: skip ``append``.
        qubits = (q,)
        for g in fused:
            emitted.append(Instruction(g, qubits))

    for inst in circuit:
        if (not inst.gate.is_directive and len(inst.qubits) == 1
                and inst.name != "delay"
                and not isinstance(inst.gate, ControlFlowOp)):
            pending.setdefault(inst.qubits[0], []).append(inst)
            continue
        for q in inst.qubits:
            flush(q)
        emitted.append(inst)
    for q in sorted(pending):
        flush(q)
    return out


def combine_adjacent_delays(circuit: QuantumCircuit) -> QuantumCircuit:
    """Merge runs of consecutive ``delay`` instructions on one qubit.

    Only *literally adjacent* instructions merge (no reordering across
    other qubits' operations), so the noise channels every other
    instruction sees keep their original order — amplitude/phase damping
    over ``t1`` then ``t2`` equals one channel over ``t1 + t2``, which is
    what makes the merge semantics-preserving.  Zero-duration delays are
    dropped.  DD insertion and loop unrolling both produce these runs.
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    pending_qubit: Optional[int] = None
    pending_duration = 0.0

    def flush() -> None:
        nonlocal pending_qubit, pending_duration
        if pending_qubit is not None and pending_duration > 0.0:
            out._instructions.append(  # noqa: SLF001
                Instruction(Gate("delay", 1, (pending_duration,)),
                            (pending_qubit,)))
        pending_qubit = None
        pending_duration = 0.0

    for inst in circuit:
        if inst.name == "delay":
            q = inst.qubits[0]
            if pending_qubit == q:
                pending_duration += float(inst.params[0])
            else:
                flush()
                pending_qubit = q
                pending_duration = float(inst.params[0])
            continue
        flush()
        out._instructions.append(inst)  # noqa: SLF001
    flush()
    return out


class _MatrixGateShim:
    """Minimal duck-typed gate carrying an explicit matrix."""

    def __init__(self, mat: np.ndarray) -> None:
        self._mat = mat
        self.name = "_fused"
        self.num_qubits = 1
        self.params = ()

    def matrix(self) -> np.ndarray:
        return self._mat


def _matrix_gate(mat: np.ndarray) -> "_MatrixGateShim":
    return _MatrixGateShim(mat)


def optimize_circuit(circuit: QuantumCircuit,
                     optimization_level: int = 3) -> QuantumCircuit:
    """Run the optimization pipeline for the given level.

    Level 0: nothing. Level 1: pair cancellation. Level 2: + 1q-run
    fusion. Level 3: iterate both to a fixpoint.
    """
    if optimization_level <= 0:
        return circuit
    current = cancel_adjacent_pairs(circuit)
    if optimization_level == 1:
        return current
    current = fuse_oneq_runs(current)
    if optimization_level == 2:
        return current
    for _ in range(10):
        nxt = fuse_oneq_runs(cancel_adjacent_pairs(current))
        if len(nxt) == len(current):
            return nxt
        current = nxt
    return current
