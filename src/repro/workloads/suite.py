"""The Table II benchmark suite.

Eight small circuits from RevLib / QASMBench, reconstructed to match the
paper's reported size exactly (qubits / total gates / CX count) and the
reported output type: ``Result = 1`` means the ideal output is a single
basis state (scored with PST), ``dist`` means a distribution (scored with
JSD).

``adder`` is the verbatim QASMBench ``adder_n4`` circuit.  The others are
structural reconstructions: the original sources are not bundled here, so
each circuit is rebuilt with the same gate budget, entanglement structure,
and output type, which is what the partitioning/mapping/fidelity pipeline
actually consumes.  (Documented in DESIGN.md.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..circuits.circuit import QuantumCircuit

__all__ = [
    "Workload",
    "workload",
    "all_workloads",
    "workload_names",
    "TABLE_II",
]


@dataclass(frozen=True)
class Workload:
    """One benchmark: its circuit and how to score it."""

    name: str
    num_qubits: int
    num_gates: int
    num_cx: int
    deterministic: bool
    builder: Callable[[], QuantumCircuit]

    @property
    def metric(self) -> str:
        """"pst" for deterministic-output circuits, "jsd" otherwise."""
        return "pst" if self.deterministic else "jsd"

    def circuit(self, measured: bool = True) -> QuantumCircuit:
        """Build the benchmark circuit (with measurements by default)."""
        qc = self.builder()
        if measured:
            qc.measure_all()
        return qc


def _ccx_block(qc: QuantumCircuit, a: int, b: int, t: int) -> None:
    """Standard 15-gate (6 CX) Toffoli decomposition, appended in place."""
    qc.h(t)
    qc.cx(b, t)
    qc.tdg(t)
    qc.cx(a, t)
    qc.t(t)
    qc.cx(b, t)
    qc.tdg(t)
    qc.cx(a, t)
    qc.t(b)
    qc.t(t)
    qc.h(t)
    qc.cx(a, b)
    qc.t(a)
    qc.tdg(b)
    qc.cx(a, b)


def _adder() -> QuantumCircuit:
    """QASMBench ``adder_n4``: 4 qubits, 23 gates, 10 CX, deterministic."""
    qc = QuantumCircuit(4, name="adder")
    qc.x(0)
    qc.x(1)
    qc.h(3)
    qc.cx(2, 3)
    qc.t(0)
    qc.t(1)
    qc.t(2)
    qc.tdg(3)
    qc.cx(0, 1)
    qc.cx(2, 3)
    qc.cx(3, 0)
    qc.cx(1, 2)
    qc.cx(0, 1)
    qc.cx(2, 3)
    qc.tdg(0)
    qc.tdg(1)
    qc.tdg(2)
    qc.t(3)
    qc.cx(0, 1)
    qc.cx(2, 3)
    qc.s(3)
    qc.cx(3, 0)
    qc.h(3)
    return qc


def _linearsolver() -> QuantumCircuit:
    """Linear-solver style HHL toy: 3 qubits, 19 gates, 4 CX, dist."""
    qc = QuantumCircuit(3, name="linearsolver")
    qc.ry(math.pi / 4, 0)
    qc.h(1)
    qc.h(2)
    qc.cx(1, 0)
    qc.rz(math.pi / 8, 0)
    qc.cx(2, 0)
    qc.rz(-math.pi / 8, 0)
    qc.ry(math.pi / 3, 1)
    qc.ry(math.pi / 5, 2)
    qc.cx(1, 2)
    qc.rz(math.pi / 7, 2)
    qc.h(0)
    qc.t(1)
    qc.tdg(2)
    qc.cx(0, 1)
    qc.h(1)
    qc.h(2)
    qc.s(0)
    qc.ry(math.pi / 6, 2)
    return qc


def _fourmod5() -> QuantumCircuit:
    """RevLib ``4mod5-v1_22`` shape: 5 qubits, 21 gates, 11 CX, det."""
    qc = QuantumCircuit(5, name="4mod5-v1_22")
    qc.x(4)
    _ccx_block(qc, 0, 3, 4)     # 15 gates, 6 cx
    qc.cx(1, 4)
    qc.cx(2, 4)
    qc.cx(0, 4)
    qc.cx(3, 4)
    qc.cx(2, 4)
    return qc


def _fredkin() -> QuantumCircuit:
    """QASMBench ``fredkin_n3`` shape: 3 qubits, 19 gates, 8 CX, det."""
    qc = QuantumCircuit(3, name="fredkin")
    qc.x(0)
    qc.x(1)
    qc.cx(2, 1)
    _ccx_block(qc, 0, 1, 2)     # 15 gates, 6 cx
    qc.cx(2, 1)
    return qc


def _qec_en() -> QuantumCircuit:
    """QEC encoder shape (``qec_en_n5``): 5 qubits, 25 gates, 10 CX, dist."""
    qc = QuantumCircuit(5, name="qec_en")
    qc.ry(math.pi / 3, 0)       # data qubit in a superposed state
    qc.h(1)
    qc.h(2)
    qc.cx(0, 3)
    qc.cx(0, 4)
    qc.cx(1, 3)
    qc.cx(2, 4)
    qc.rz(math.pi / 8, 3)
    qc.rz(-math.pi / 8, 4)
    qc.cx(1, 0)
    qc.cx(2, 0)
    qc.h(1)
    qc.h(2)
    qc.t(0)
    qc.t(3)
    qc.tdg(4)
    qc.cx(3, 1)
    qc.cx(4, 2)
    qc.s(1)
    qc.s(2)
    qc.ry(math.pi / 5, 3)
    qc.ry(-math.pi / 5, 4)
    qc.cx(0, 3)
    qc.cx(0, 4)
    qc.h(0)
    return qc


def _alu() -> QuantumCircuit:
    """RevLib ``alu-v0_27`` shape: 5 qubits, 36 gates, 17 CX, det."""
    qc = QuantumCircuit(5, name="alu-v0_27")
    qc.x(4)
    _ccx_block(qc, 0, 1, 2)     # 15 gates, 6 cx
    _ccx_block(qc, 2, 3, 4)     # 15 gates, 6 cx
    qc.cx(0, 2)
    qc.cx(3, 4)
    qc.cx(1, 2)
    qc.cx(2, 4)
    qc.cx(0, 2)
    return qc


def _bell() -> QuantumCircuit:
    """Bell-inequality test shape (``bell_n4``): 4 qubits, 33 gates,
    7 CX, dist."""
    qc = QuantumCircuit(4, name="bell")
    angles = [math.pi / 4, math.pi / 3, math.pi / 5, math.pi / 7]
    for q, a in enumerate(angles):
        qc.ry(a, q)
    qc.cx(0, 1)
    qc.cx(2, 3)
    for q, a in enumerate(angles):
        qc.rz(a / 2, q)
    qc.cx(1, 2)
    for q in range(4):
        qc.h(q)
    qc.cx(0, 1)
    qc.cx(2, 3)
    for q, a in enumerate(angles):
        qc.ry(-a / 3, q)
    qc.cx(1, 2)
    qc.cx(0, 3)
    qc.t(0)
    qc.tdg(1)
    qc.s(2)
    qc.h(3)
    qc.rz(math.pi / 9, 0)
    qc.ry(math.pi / 11, 2)
    qc.sdg(1)
    qc.h(0)
    qc.t(2)
    qc.rz(-math.pi / 6, 3)
    return qc


def _variation() -> QuantumCircuit:
    """Variational-ansatz shape (``variational_n4``): 4 qubits, 54 gates,
    16 CX, dist."""
    qc = QuantumCircuit(4, name="variation")
    layer_angles = [
        (0.3, 0.7), (1.1, 0.2), (0.5, 1.3), (0.9, 0.4),
    ]
    for layer in range(4):
        for q in range(4):
            theta, phi = layer_angles[q]
            qc.ry(theta + 0.2 * layer, q)
            qc.rz(phi - 0.1 * layer, q)
        qc.cx(0, 1)
        qc.cx(1, 2)
        qc.cx(2, 3)
        qc.cx(3, 0)
    for q in range(4):
        qc.ry(0.15 * (q + 1), q)
    qc.rz(0.25, 0)
    qc.rz(-0.25, 3)
    return qc


_REGISTRY: Dict[str, Workload] = {}


def _register(name: str, num_qubits: int, num_gates: int, num_cx: int,
              deterministic: bool,
              builder: Callable[[], QuantumCircuit]) -> None:
    _REGISTRY[name] = Workload(name, num_qubits, num_gates, num_cx,
                               deterministic, builder)


_register("adder", 4, 23, 10, True, _adder)
_register("linearsolver", 3, 19, 4, False, _linearsolver)
_register("4mod5-v1_22", 5, 21, 11, True, _fourmod5)
_register("fredkin", 3, 19, 8, True, _fredkin)
_register("qec_en", 5, 25, 10, False, _qec_en)
_register("alu-v0_27", 5, 36, 17, True, _alu)
_register("bell", 4, 33, 7, False, _bell)
_register("variation", 4, 54, 16, False, _variation)

#: The paper's Table II rows: (qubits, gates, cx, result-type).
TABLE_II: Dict[str, Tuple[int, int, int, str]] = {
    "adder": (4, 23, 10, "1"),
    "linearsolver": (3, 19, 4, "dist"),
    "4mod5-v1_22": (5, 21, 11, "1"),
    "fredkin": (3, 19, 8, "1"),
    "qec_en": (5, 25, 10, "dist"),
    "alu-v0_27": (5, 36, 17, "1"),
    "bell": (4, 33, 7, "dist"),
    "variation": (4, 54, 16, "dist"),
}

#: Short aliases used in the paper's figure labels.
ALIASES: Dict[str, str] = {
    "lin": "linearsolver",
    "qec": "qec_en",
    "var": "variation",
    "4mod": "4mod5-v1_22",
    "fred": "fredkin",
    "alu": "alu-v0_27",
}


def workload(name: str) -> Workload:
    """Look up a workload by name or paper alias."""
    name = ALIASES.get(name, name)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def workload_names() -> List[str]:
    """All workload names in Table II order."""
    return list(TABLE_II)


def all_workloads() -> List[Workload]:
    """All workloads in Table II order."""
    return [workload(n) for n in workload_names()]
