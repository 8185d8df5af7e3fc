"""Quantum-circuit intermediate representation.

Public surface:

- :class:`~repro.circuits.circuit.QuantumCircuit` / `Instruction`
- :class:`~repro.circuits.gates.Gate` and the :func:`gate` factory
- control-flow ops (`IfElseOp`, `ForLoopOp`, `WhileLoopOp`)
- circuit constructors (`ghz_circuit`, `qft_circuit`, `random_circuit`, ...)
- Clifford groups for randomized benchmarking
"""

from .circuit import CircuitError, Instruction, QuantumCircuit
from .controlflow import (
    Condition,
    ControlFlowOp,
    ForLoopOp,
    IfElseOp,
    WhileLoopOp,
    has_control_flow,
    is_control_flow,
    measured_clbits_of,
)
from .clifford import (
    CliffordElement,
    CliffordGroup,
    clifford_group_1q,
    clifford_group_2q,
)
from .gates import BASIS_GATES, DIRECTIVES, Gate, GateError, gate
from .library import (
    bell_pair,
    bernstein_vazirani_circuit,
    deutsch_jozsa_circuit,
    ghz_circuit,
    qft_circuit,
    quantum_volume_circuit,
    random_circuit,
    w_state_circuit,
)

__all__ = [
    "BASIS_GATES",
    "DIRECTIVES",
    "CircuitError",
    "CliffordElement",
    "CliffordGroup",
    "Condition",
    "ControlFlowOp",
    "ForLoopOp",
    "IfElseOp",
    "WhileLoopOp",
    "has_control_flow",
    "is_control_flow",
    "measured_clbits_of",
    "Gate",
    "GateError",
    "Instruction",
    "QuantumCircuit",
    "bell_pair",
    "bernstein_vazirani_circuit",
    "clifford_group_1q",
    "deutsch_jozsa_circuit",
    "clifford_group_2q",
    "gate",
    "ghz_circuit",
    "qft_circuit",
    "quantum_volume_circuit",
    "random_circuit",
    "w_state_circuit",
]
