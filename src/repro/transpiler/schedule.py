"""ALAP scheduling with explicit idle delays.

As-Late-As-Possible scheduling keeps qubits in the ground state as long as
possible (the discipline all the parallel-execution papers adopt).  This
pass materializes the schedule by inserting ``delay`` instructions into
the gaps between a qubit's consecutive operations, so the noisy simulator
charges T1/T2 decoherence exactly where a real device would.

Leading idle time (before a qubit's first gate) gets no delay: a qubit in
|0> is unaffected by amplitude or phase damping — which is precisely the
reason ALAP is preferred.

:func:`plan_alap` decides where the delays go and :func:`emit_alap`
inserts them; ``transpile()`` memoizes the plan per device view, keyed
by what the timing pass reads.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..circuits.circuit import QuantumCircuit
from ..sim.executor import timed_intervals

__all__ = ["emit_alap", "plan_alap", "schedule_alap"]

#: An ALAP plan: ``(index, qubit, gap)`` for each idle delay, inserted
#: before instruction ``index``, in emission order.
AlapPlan = Tuple[Tuple[int, int, float], ...]


def plan_alap(circuit: QuantumCircuit,
              gate_duration: Dict[str, float]) -> AlapPlan:
    """The idle delays an ALAP schedule of *circuit* inserts.

    The plan reads each instruction's name, qubits and clbits, the
    durations of its delays (and the bodies of control-flow ops), and
    *gate_duration*; never a gate angle.
    """
    # timed_intervals in alap mode gives (start, end) counted from the
    # job end; convert to forward times.
    rev_intervals = timed_intervals(circuit, gate_duration, mode="alap")
    makespan = max((e for _, e in rev_intervals), default=0.0)
    last_end: Dict[int, float] = {}
    started: Dict[int, bool] = {}
    delays: List[Tuple[int, int, float]] = []
    for index, (inst, (rev_start, rev_end)) in enumerate(
            zip(circuit, rev_intervals)):
        start, end = makespan - rev_end, makespan - rev_start
        for q in inst.qubits:
            if started.get(q):
                gap = start - last_end.get(q, 0.0)
                if gap > 1e-9:
                    delays.append((index, q, gap))
            last_end[q] = end
            # A barrier alone does not end a qubit's leading idle time.
            if inst.name != "barrier":
                started[q] = True
    return tuple(delays)


def emit_alap(circuit: QuantumCircuit, plan: AlapPlan) -> QuantumCircuit:
    """*circuit* with the idle delays of *plan* inserted."""
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    emitted = out._instructions  # noqa: SLF001
    instructions = circuit._instructions  # noqa: SLF001
    done = 0
    for index, q, gap in plan:
        emitted.extend(instructions[done:index])
        done = index
        out.delay(q, gap)
    emitted.extend(instructions[done:])
    return out


def schedule_alap(circuit: QuantumCircuit,
                  gate_duration: Dict[str, float]) -> QuantumCircuit:
    """Insert idle ``delay`` instructions according to an ALAP schedule."""
    return emit_alap(circuit, plan_alap(circuit, gate_duration))
