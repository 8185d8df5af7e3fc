"""Control-flow IR: ``if``/``for``/``while`` operations with nested bodies.

This module extends the static circuit IR with three control-flow
operations — :class:`IfElseOp`, :class:`ForLoopOp`, and
:class:`WhileLoopOp` — each carrying one or more nested
:class:`~repro.circuits.circuit.QuantumCircuit` bodies and (for the
conditional forms) a clbit-valued :class:`Condition`.

Design invariants
-----------------
* **Outer-indexed bodies.** A body is expressed over the *same*
  qubit/clbit index space as the circuit that contains the op.  Unrolling
  a body is therefore a plain instruction splice, and relabeling the
  outer circuit relabels the bodies through the very same map (see
  :meth:`ControlFlowOp.remapped`).  Bodies keep the outer circuit's
  width so indices never need translation.
* **Touched-bit footprint.** The instruction that carries a control-flow
  op lists the sorted union of every qubit its bodies touch as
  ``inst.qubits`` and the union of body clbits plus condition clbits as
  ``inst.clbits``.  Dependency-based analyses (depth, ASAP/ALAP timing,
  cancellation barriers) then treat the op as one opaque block over that
  footprint without knowing anything about control flow.
* **Conditions read classical bits.** :class:`Condition` compares a
  little-endian register formed from ``clbits`` (``clbits[0]`` is the
  least-significant bit) against ``value``.  Mid-circuit ``measure``
  instructions write those bits; the feed-forward simulator evaluates
  conditions per shot, while :func:`repro.transpiler.controlflow.
  expand_control_flow` resolves conditions whose bits were never written
  (all clbits start at 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Mapping,
                    Optional, Sequence, Tuple, Union)

from .gates import Gate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .circuit import QuantumCircuit

__all__ = [
    "Condition",
    "ControlFlowOp",
    "IfElseOp",
    "ForLoopOp",
    "WhileLoopOp",
    "CONTROL_FLOW_NAMES",
    "DEFAULT_MAX_ITERATIONS",
    "is_control_flow",
    "has_control_flow",
    "measured_clbits_of",
    "written_clbits_of",
]

#: Instruction names reserved for control-flow operations.
CONTROL_FLOW_NAMES = frozenset({"if_else", "for_loop", "while_loop"})

#: Iteration cap applied to ``while`` loops that never exit on their own.
DEFAULT_MAX_ITERATIONS = 16

ConditionLike = Union["Condition", Tuple[Union[int, Sequence[int]], int]]


def _circuit_error(msg: str):
    from .circuit import CircuitError

    return CircuitError(msg)


@dataclass(frozen=True)
class Condition:
    """An equality test on classical bits.

    ``clbits`` forms a little-endian register (``clbits[0]`` is bit 0);
    the condition holds when that register equals ``value``.
    """

    clbits: Tuple[int, ...]
    value: int

    def __post_init__(self) -> None:
        clbits = tuple(int(c) for c in self.clbits)
        object.__setattr__(self, "clbits", clbits)
        object.__setattr__(self, "value", int(self.value))
        if not clbits:
            raise _circuit_error("condition needs at least one clbit")
        if len(set(clbits)) != len(clbits):
            raise _circuit_error(f"duplicate clbit in condition: {clbits}")
        if any(c < 0 for c in clbits):
            raise _circuit_error(f"negative clbit in condition: {clbits}")
        if not 0 <= self.value < (1 << len(clbits)):
            raise _circuit_error(
                f"condition value {self.value} out of range for "
                f"{len(clbits)} clbit(s)")

    @classmethod
    def coerce(cls, cond: ConditionLike) -> "Condition":
        """Accept ``Condition``, ``(clbit, value)``, or ``(bits, value)``."""
        if isinstance(cond, Condition):
            return cond
        try:
            target, value = cond
        except (TypeError, ValueError):
            raise _circuit_error(
                f"condition must be a Condition or a (clbits, value) "
                f"pair, got {cond!r}") from None
        if isinstance(target, (int,)):
            return cls((int(target),), int(value))
        return cls(tuple(int(c) for c in target), int(value))

    def evaluate(self, bits: Mapping[int, int]) -> bool:
        """Evaluate against a clbit -> 0/1 mapping (missing bits are 0)."""
        register = 0
        for position, clbit in enumerate(self.clbits):
            register |= (int(bits.get(clbit, 0)) & 1) << position
        return register == self.value

    def remapped(self, clbit_map: Optional[Dict[int, int]]) -> "Condition":
        """Return a copy with clbits renumbered through *clbit_map*."""
        if clbit_map is None:
            return self
        return Condition(tuple(clbit_map[c] for c in self.clbits),
                         self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if len(self.clbits) == 1:
            return f"c{self.clbits[0]}=={self.value}"
        return f"c{list(self.clbits)}=={self.value}"


def _body_footprint(bodies, condition):
    """Sorted (qubits, clbits) touched by *bodies* plus condition bits."""
    qubits, clbits = set(), set()
    for body in bodies:
        for inst in body:
            qubits.update(inst.qubits)
            clbits.update(inst.clbits)
    if condition is not None:
        clbits.update(condition.clbits)
    return tuple(sorted(qubits)), tuple(sorted(clbits))


class ControlFlowOp(Gate):
    """Base class for ops that carry nested circuit bodies.

    Subclasses bypass :meth:`Gate.__post_init__` (control-flow names are
    not in the gate tables) and add ``bodies``/``condition`` payloads.
    Instances are *unhashable* — bodies are mutable circuits — so they
    must never be used as dict keys; the cache layer builds structural
    tuples via :meth:`structural_key` instead.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, name: str, bodies: Sequence["QuantumCircuit"],
                 condition: Optional[Condition] = None) -> None:
        from .circuit import QuantumCircuit

        bodies = tuple(bodies)
        if not bodies:
            raise _circuit_error(f"{name} needs at least one body")
        for body in bodies:
            if not isinstance(body, QuantumCircuit):
                raise _circuit_error(
                    f"{name} body must be a QuantumCircuit, "
                    f"got {type(body).__name__}")
        qubits, clbits = _body_footprint(bodies, condition)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "num_qubits", len(qubits))
        object.__setattr__(self, "params", ())
        object.__setattr__(self, "bodies", bodies)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "touched_qubits", qubits)
        object.__setattr__(self, "touched_clbits", clbits)

    # -- structural helpers -------------------------------------------
    @property
    def blocks(self) -> Tuple["QuantumCircuit", ...]:
        """Alias for ``bodies`` (mainstream-compiler naming)."""
        return self.bodies

    def matrix(self):
        raise _circuit_error(
            f"{self.name!r} has no unitary matrix; expand control flow "
            "(repro.transpiler.controlflow.expand_control_flow) or run "
            "through the feed-forward simulator")

    def inverse(self) -> Gate:
        raise _circuit_error(
            f"cannot invert control-flow op {self.name!r}; expand it "
            "first with expand_control_flow")

    # -- subclass API --------------------------------------------------
    def with_bodies(self, bodies) -> "ControlFlowOp":
        """Rebuild the op around replacement *bodies* (same shape)."""
        raise NotImplementedError

    def remapped(self, qubit_map: Dict[int, int],
                 clbit_map: Optional[Dict[int, int]] = None,
                 ) -> "ControlFlowOp":
        """Return a copy with bodies/condition renumbered."""
        raise NotImplementedError

    def depth_bound(self, include_directives: bool = False) -> int:
        """Worst-case depth contribution (static bound, recursive)."""
        raise NotImplementedError

    def duration_bound(
            self, body_duration: Callable[["QuantumCircuit"], float],
    ) -> float:
        """Worst-case wall-clock contribution given a body-makespan fn."""
        raise NotImplementedError

    # -- equality ------------------------------------------------------
    def _payload(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._payload() == other._payload()  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gate({self.name}/{len(self.bodies)} bodies)"

    # -- shared remap plumbing ----------------------------------------
    @staticmethod
    def _remap_body(body: "QuantumCircuit", qubit_map: Dict[int, int],
                    clbit_map: Optional[Dict[int, int]]) -> "QuantumCircuit":
        new_q = [qubit_map[q] for inst in body for q in inst.qubits]
        if clbit_map is None:
            new_c = [c for inst in body for c in inst.clbits]
        else:
            new_c = [clbit_map[c] for inst in body for c in inst.clbits]
        nq = max(new_q, default=-1) + 1
        nc = max(new_c, default=-1) + 1
        return body.remapped(qubit_map, num_qubits=max(nq, 1),
                             clbit_map=clbit_map,
                             num_clbits=max(nc, body.num_clbits
                                            if clbit_map is None else 0))


class IfElseOp(ControlFlowOp):
    """Run ``true_body`` when the condition holds, else ``false_body``."""

    def __init__(self, condition: ConditionLike,
                 true_body: "QuantumCircuit",
                 false_body: Optional["QuantumCircuit"] = None) -> None:
        condition = Condition.coerce(condition)
        bodies = (true_body,) if false_body is None else (true_body,
                                                          false_body)
        super().__init__("if_else", bodies, condition)

    @property
    def true_body(self) -> "QuantumCircuit":
        return self.bodies[0]

    @property
    def false_body(self) -> Optional["QuantumCircuit"]:
        return self.bodies[1] if len(self.bodies) > 1 else None

    def body_for(self, taken: bool) -> Optional["QuantumCircuit"]:
        """The body executed when the condition evaluates to *taken*."""
        return self.true_body if taken else self.false_body

    def with_bodies(self, bodies) -> "IfElseOp":
        bodies = tuple(bodies)
        return IfElseOp(self.condition, bodies[0],
                        bodies[1] if len(bodies) > 1 else None)

    def remapped(self, qubit_map, clbit_map=None) -> "IfElseOp":
        false = self.false_body
        return IfElseOp(
            self.condition.remapped(clbit_map),
            self._remap_body(self.true_body, qubit_map, clbit_map),
            None if false is None
            else self._remap_body(false, qubit_map, clbit_map))

    def depth_bound(self, include_directives: bool = False) -> int:
        return max(body.depth(include_directives) for body in self.bodies)

    def duration_bound(self, body_duration) -> float:
        return max(body_duration(body) for body in self.bodies)

    def _payload(self) -> tuple:
        return (self.condition, self.bodies)


class ForLoopOp(ControlFlowOp):
    """Run ``body`` once per value in ``indexset`` (statically bounded)."""

    def __init__(self, indexset: Iterable[int],
                 body: "QuantumCircuit") -> None:
        indexset = tuple(int(v) for v in indexset)
        super().__init__("for_loop", (body,), None)
        object.__setattr__(self, "indexset", indexset)

    @property
    def body(self) -> "QuantumCircuit":
        return self.bodies[0]

    def with_bodies(self, bodies) -> "ForLoopOp":
        (body,) = tuple(bodies)
        return ForLoopOp(self.indexset, body)

    def remapped(self, qubit_map, clbit_map=None) -> "ForLoopOp":
        return ForLoopOp(self.indexset,
                         self._remap_body(self.body, qubit_map, clbit_map))

    def depth_bound(self, include_directives: bool = False) -> int:
        return len(self.indexset) * self.body.depth(include_directives)

    def duration_bound(self, body_duration) -> float:
        return len(self.indexset) * body_duration(self.body)

    def _payload(self) -> tuple:
        return (self.indexset, self.bodies)


class WhileLoopOp(ControlFlowOp):
    """Run ``body`` while the condition holds, up to ``max_iterations``.

    The iteration cap makes every dynamic program statically bounded —
    the scheduler's duration model and ``depth()`` both use it as the
    worst case, and the feed-forward simulator stops a shot's loop after
    that many passes even if the condition is still true.
    """

    def __init__(self, condition: ConditionLike, body: "QuantumCircuit",
                 max_iterations: int = DEFAULT_MAX_ITERATIONS) -> None:
        condition = Condition.coerce(condition)
        max_iterations = int(max_iterations)
        if max_iterations < 1:
            raise _circuit_error(
                f"while_loop max_iterations must be >= 1, "
                f"got {max_iterations}")
        super().__init__("while_loop", (body,), condition)
        object.__setattr__(self, "max_iterations", max_iterations)

    @property
    def body(self) -> "QuantumCircuit":
        return self.bodies[0]

    def with_bodies(self, bodies) -> "WhileLoopOp":
        (body,) = tuple(bodies)
        return WhileLoopOp(self.condition, body, self.max_iterations)

    def remapped(self, qubit_map, clbit_map=None) -> "WhileLoopOp":
        return WhileLoopOp(self.condition.remapped(clbit_map),
                           self._remap_body(self.body, qubit_map, clbit_map),
                           self.max_iterations)

    def depth_bound(self, include_directives: bool = False) -> int:
        return self.max_iterations * self.body.depth(include_directives)

    def duration_bound(self, body_duration) -> float:
        return self.max_iterations * body_duration(self.body)

    def _payload(self) -> tuple:
        return (self.condition, self.max_iterations, self.bodies)


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
def is_control_flow(obj) -> bool:
    """True when *obj* (a Gate or Instruction) is a control-flow op."""
    g = getattr(obj, "gate", obj)
    return isinstance(g, ControlFlowOp)


def has_control_flow(circuit: "QuantumCircuit") -> bool:
    """True when any top-level instruction is a control-flow op.

    Nested control flow only ever appears inside a top-level op's body,
    so the top-level scan is sufficient.
    """
    return any(isinstance(inst.gate, ControlFlowOp) for inst in circuit)


def written_clbits_of(circuit: "QuantumCircuit") -> Tuple[int, ...]:
    """Sorted clbits written by ``measure`` anywhere, bodies included."""
    written = set()
    for inst in circuit:
        if inst.name == "measure":
            written.update(inst.clbits)
        elif isinstance(inst.gate, ControlFlowOp):
            for body in inst.gate.bodies:
                written.update(written_clbits_of(body))
    return tuple(sorted(written))


#: Alias — the only writers of clbits are measurements.
measured_clbits_of = written_clbits_of
