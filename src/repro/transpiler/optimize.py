"""Gate-level optimization passes.

- :func:`cancel_adjacent_pairs` removes back-to-back self-inverse gates
  (CX-CX, H-H, X-X, ...);
- :func:`fuse_oneq_runs` replaces each maximal run of 1q gates on a
  qubit by its fused ZXZXZ form (subsumes RZ merging) when that form is
  better: fewer gates, or as many with fewer pulses.  A run it emitted
  fuses to the same shape, so the pass is idempotent;
- :func:`optimize_circuit` runs the passes by optimization level; level
  3 fuses again only after a cancellation removed gates, and its output
  is a fixpoint of level 3.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.controlflow import ControlFlowOp
from ..circuits.gates import DIRECTIVES, Gate, gate
from .basis import decompose_oneq_gate

__all__ = ["cancel_adjacent_pairs", "combine_adjacent_delays",
           "fuse_oneq_runs", "optimize_circuit"]

#: Fused-run memo: (gate name, params) sequence of a 1q run -> its fused
#: replacement (``None`` = "keep the original run").  The fused form is a
#: pure function of the run's gates (keys equate 0.0 with -0.0; every
#: angle the rewrite emits passes through ``_wrap``, so either sign
#: gives the same bits), and service traffic repeats the same few
#: circuits endlessly, so the matrix product and ZYZ extraction of a
#: repeated run is paid once.  Gates are frozen dataclasses, safe to
#: share.  Job threads compile concurrently, so every read and write of
#: the memo holds :data:`_FUSED_RUNS_LOCK` (a hit's ``move_to_end`` must
#: not race another thread's eviction).
_FUSED_RUNS: "OrderedDict[Tuple, Optional[Tuple]]" = OrderedDict()
_FUSED_RUNS_MAX = 4096
_FUSED_RUNS_LOCK = threading.Lock()

#: The fixed 1q basis gates as rows of Python complex numbers.
_ROWS = {name: gate(name).matrix().tolist() for name in ("sx", "x")}

_SELF_INVERSE = {"x", "y", "z", "h", "cx", "cz", "swap", "ccx", "cswap",
                 "id"}


def cancel_adjacent_pairs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove adjacent identical self-inverse gates on the same qubits.

    "Adjacent" means no intervening instruction touches any of the gate's
    qubits.
    """
    instructions = circuit._instructions  # noqa: SLF001
    kept: List[Optional[Instruction]] = list(instructions)
    last_on_qubit: Dict[int, int] = {}
    for idx, inst in enumerate(instructions):
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
    out._instructions.extend(  # noqa: SLF001
        [inst for inst in kept if inst is not None])
    return out


_UNCACHED = object()


def _run_matrix(run: List[Instruction]) -> Tuple[Tuple[complex, complex],
                                                 Tuple[complex, complex]]:
    """The 2x2 unitary of *run* (its first gate applied first),
    multiplied out in Python complex numbers: cheaper than numpy at this
    size."""
    a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j
    for inst in run:
        if inst.name == "rz":  # diag(e^{-i t/2}, e^{i t/2})
            half = 0.5 * inst.params[0]
            cos, sin = math.cos(half), math.sin(half)
            low, high = complex(cos, -sin), complex(cos, sin)
            a, b, c, d = low * a, low * b, high * c, high * d
            continue
        rows = _ROWS.get(inst.name) or inst.gate.matrix().tolist()
        (m00, m01), (m10, m11) = rows
        a, b, c, d = (m00 * a + m01 * c, m00 * b + m01 * d,
                      m10 * a + m11 * c, m10 * b + m11 * d)
    return (a, b), (c, d)


def _cost(gates: Sequence) -> Tuple[int, int]:
    """Gates, then pulses (every gate but ``rz`` drives the qubit)."""
    return len(gates), sum(1 for g in gates if g.name != "rz")


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
    decomposed = decompose_oneq_gate(_MatrixGateShim(_run_matrix(run)))
    fused = tuple(decomposed) if _cost(decomposed) < _cost(run) else None
    with _FUSED_RUNS_LOCK:
        _FUSED_RUNS[key] = fused
        while len(_FUSED_RUNS) > _FUSED_RUNS_MAX:
            _FUSED_RUNS.popitem(last=False)
    return fused


def fuse_oneq_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Collapse maximal 1q-gate runs per qubit into minimal basis gates.

    A run is replaced by its fused ZXZXZ form only when that form is
    better: fewer gates, or as many gates with fewer pulses (``sx`` or
    ``x``; a 2-gate run can fuse into 5 basis gates, and ``rz x sx``
    into ``rz sx rz``).  A run this pass emitted fuses to the same
    shape and is kept as it is, so fusing an output again returns it.
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

    for inst in circuit._instructions:  # noqa: SLF001
        g = inst.gate
        if (len(inst.qubits) == 1 and g.name not in DIRECTIVES
                and not isinstance(g, ControlFlowOp)):
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

    name = "_fused"

    def __init__(self, mat) -> None:
        self._mat = mat

    def matrix(self):
        return self._mat


def optimize_circuit(circuit: QuantumCircuit,
                     optimization_level: int = 3) -> QuantumCircuit:
    """Run the optimization pipeline for the given level.

    ====== ==========================================================
    Level  Passes
    ====== ==========================================================
    0      nothing
    1      pair cancellation
    2      pair cancellation, then 1q-run fusion
    3      level 2, then cancel again; each cancellation that removed
           gates is followed by another fusion and cancellation
    ====== ==========================================================

    Level 3 stops when a cancellation removes nothing.  Fusing an output
    of :func:`fuse_oneq_runs` again changes nothing, so the result is a
    fixpoint of level 3.  A level-2 output may still hold a pair that
    its fusion (or its cancellation) left adjacent.
    """
    if optimization_level <= 0:
        return circuit
    current = cancel_adjacent_pairs(circuit)
    if optimization_level == 1:
        return current
    current = fuse_oneq_runs(current)
    if optimization_level == 2:
        return current
    while True:  # each round removes gates, so the loop ends
        pruned = cancel_adjacent_pairs(current)
        if len(pruned) == len(current):
            return current
        current = fuse_oneq_runs(pruned)
