"""The :class:`QuantumCircuit` container.

A circuit is an ordered list of :class:`Instruction` objects over ``num_qubits``
qubits and ``num_clbits`` classical bits.  The class offers the builder methods
familiar from mainstream compilers (``h``, ``cx``, ``rz``, ...), structural
queries (depth, gate counts), and transformations (compose, inverse, remap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .gates import Gate, gate

__all__ = ["Instruction", "QuantumCircuit", "CircuitError"]


class CircuitError(ValueError):
    """Raised on malformed circuit operations (bad indices, size mismatch)."""


@dataclass(frozen=True)
class Instruction:
    """A gate (or directive) applied to specific qubits/clbits.

    ``qubits`` are circuit qubit indices; ``clbits`` is non-empty only for
    ``measure`` instructions.  ``duration`` is an optional length in ``dt``
    units filled in by the scheduler.
    """

    gate: Gate
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def name(self) -> str:
        """Gate name shortcut."""
        return self.gate.name

    @property
    def params(self) -> Tuple[float, ...]:
        """Gate parameters shortcut."""
        return self.gate.params

    def remap(self, qubit_map: Dict[int, int],
              clbit_map: Optional[Dict[int, int]] = None) -> "Instruction":
        """Return a copy with qubits (and optionally clbits) renumbered.

        Control-flow gates are rebuilt recursively: their nested bodies
        and conditions pass through the same maps, and the instruction's
        footprint is recomputed from the remapped op.
        """
        from .controlflow import ControlFlowOp

        if isinstance(self.gate, ControlFlowOp):
            new_gate = self.gate.remapped(qubit_map, clbit_map)
            return Instruction(new_gate, new_gate.touched_qubits,
                               new_gate.touched_clbits)
        new_q = tuple(qubit_map[q] for q in self.qubits)
        if clbit_map is None:
            new_c = self.clbits
        else:
            new_c = tuple(clbit_map[c] for c in self.clbits)
        return Instruction(self.gate, new_q, new_c)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        core = f"{self.name}{list(self.qubits)}"
        if self.clbits:
            core += f"->c{list(self.clbits)}"
        return core


class QuantumCircuit:
    """An ordered sequence of instructions over qubits and classical bits.

    >>> qc = QuantumCircuit(2, 2)
    >>> qc.h(0).cx(0, 1).measure_all()  # doctest: +ELLIPSIS
    <repro.circuits.circuit.QuantumCircuit object at ...>
    >>> qc.depth()
    3
    """

    #: The circuit's structural fingerprint, cached by
    #: :func:`repro.cache.keys.fingerprint` (``None`` until first read).
    _fingerprint = None

    def __init__(self, num_qubits: int, num_clbits: int = 0,
                 name: str = "circuit") -> None:
        if num_qubits < 0 or num_clbits < 0:
            raise CircuitError("qubit/clbit counts must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self.name = name
        # Append-only: code may push onto this list but never removes,
        # replaces or reorders an entry, so a cached fingerprint stays
        # valid while the length and register sizes are unchanged.
        self._instructions: List[Instruction] = []

    def __getstate__(self) -> Dict:
        # Pickles and deep copies carry no fingerprint: their bytes do
        # not depend on whether the circuit was ever keyed.
        return {k: v for k, v in self.__dict__.items()
                if k != "_fingerprint"}

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The instruction sequence (read-only view)."""
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self._instructions[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self._instructions == other._instructions
        )

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, g: Gate, qubits: Sequence[int],
               clbits: Sequence[int] = ()) -> "QuantumCircuit":
        """Append gate *g* on *qubits*; validates indices and arity."""
        qubits = tuple(int(q) for q in qubits)
        clbits = tuple(int(c) for c in clbits)
        if not g.is_directive and len(qubits) != g.num_qubits:
            raise CircuitError(
                f"gate {g.name!r} needs {g.num_qubits} qubits, got {len(qubits)}"
            )
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(f"qubit index {q} out of range")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubit in {g.name!r}: {qubits}")
        for c in clbits:
            if not 0 <= c < self.num_clbits:
                raise CircuitError(f"clbit index {c} out of range")
        self._instructions.append(Instruction(g, qubits, clbits))
        return self

    def append_instruction(self, inst: Instruction) -> "QuantumCircuit":
        """Append an existing :class:`Instruction` (revalidated)."""
        return self.append(inst.gate, inst.qubits, inst.clbits)

    # ------------------------------------------------------------------
    # builder methods
    # ------------------------------------------------------------------
    def _add(self, name: str, qubits: Sequence[int],
             *params: float) -> "QuantumCircuit":
        return self.append(gate(name, *params), qubits)

    def i(self, q: int) -> "QuantumCircuit":
        """Identity gate."""
        return self._add("id", [q])

    def x(self, q: int) -> "QuantumCircuit":
        """Pauli-X gate."""
        return self._add("x", [q])

    def y(self, q: int) -> "QuantumCircuit":
        """Pauli-Y gate."""
        return self._add("y", [q])

    def z(self, q: int) -> "QuantumCircuit":
        """Pauli-Z gate."""
        return self._add("z", [q])

    def h(self, q: int) -> "QuantumCircuit":
        """Hadamard gate."""
        return self._add("h", [q])

    def s(self, q: int) -> "QuantumCircuit":
        """S (sqrt(Z)) gate."""
        return self._add("s", [q])

    def sdg(self, q: int) -> "QuantumCircuit":
        """S-dagger gate."""
        return self._add("sdg", [q])

    def t(self, q: int) -> "QuantumCircuit":
        """T (pi/8) gate."""
        return self._add("t", [q])

    def tdg(self, q: int) -> "QuantumCircuit":
        """T-dagger gate."""
        return self._add("tdg", [q])

    def sx(self, q: int) -> "QuantumCircuit":
        """sqrt(X) gate."""
        return self._add("sx", [q])

    def sxdg(self, q: int) -> "QuantumCircuit":
        """sqrt(X)-dagger gate."""
        return self._add("sxdg", [q])

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        """X-rotation."""
        return self._add("rx", [q], theta)

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        """Y-rotation."""
        return self._add("ry", [q], theta)

    def rz(self, phi: float, q: int) -> "QuantumCircuit":
        """Z-rotation."""
        return self._add("rz", [q], phi)

    def p(self, lam: float, q: int) -> "QuantumCircuit":
        """Phase gate."""
        return self._add("p", [q], lam)

    def u(self, theta: float, phi: float, lam: float, q: int) -> "QuantumCircuit":
        """General single-qubit rotation."""
        return self._add("u", [q], theta, phi, lam)

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-X (CNOT)."""
        return self._add("cx", [control, target])

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        """Controlled-Z."""
        return self._add("cz", [a, b])

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Y."""
        return self._add("cy", [control, target])

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Hadamard."""
        return self._add("ch", [control, target])

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled-phase."""
        return self._add("cp", [control, target], lam)

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled-RX."""
        return self._add("crx", [control, target], theta)

    def cry(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled-RY."""
        return self._add("cry", [control, target], theta)

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled-RZ."""
        return self._add("crz", [control, target], theta)

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        """ZZ interaction."""
        return self._add("rzz", [a, b], theta)

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        """SWAP gate."""
        return self._add("swap", [a, b])

    def ccx(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        """Toffoli gate."""
        return self._add("ccx", [c1, c2, target])

    def cswap(self, control: int, a: int, b: int) -> "QuantumCircuit":
        """Fredkin (controlled-SWAP) gate."""
        return self._add("cswap", [control, a, b])

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        """Barrier directive over *qubits* (all qubits when omitted)."""
        qs = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        self._instructions.append(
            Instruction(Gate("barrier", len(qs)), qs))
        return self

    def reset(self, q: int) -> "QuantumCircuit":
        """Reset a qubit to |0>."""
        self._instructions.append(Instruction(Gate("reset", 1), (int(q),)))
        return self

    def delay(self, q: int, duration: float) -> "QuantumCircuit":
        """Idle delay directive (duration in dt units, kept as a param)."""
        self._instructions.append(
            Instruction(Gate("delay", 1, (float(duration),)), (int(q),)))
        return self

    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        """Measure *qubit* into classical bit *clbit*."""
        if not 0 <= qubit < self.num_qubits:
            raise CircuitError(f"qubit index {qubit} out of range")
        if not 0 <= clbit < self.num_clbits:
            raise CircuitError(f"clbit index {clbit} out of range")
        self._instructions.append(
            Instruction(Gate("measure", 1), (int(qubit),), (int(clbit),)))
        return self

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into the matching classical bit.

        Grows the classical register to ``num_qubits`` if needed.
        """
        if self.num_clbits < self.num_qubits:
            self.num_clbits = self.num_qubits
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------
    def _append_control_flow(self, op) -> "QuantumCircuit":
        """Validate a control-flow op's footprint and append it."""
        for body in op.bodies:
            if body.num_qubits > self.num_qubits:
                raise CircuitError(
                    f"{op.name} body spans {body.num_qubits} qubits but "
                    f"the circuit has {self.num_qubits}; bodies are "
                    "indexed in the outer circuit's qubit space")
        for q in op.touched_qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(f"qubit index {q} out of range")
        for c in op.touched_clbits:
            if not 0 <= c < self.num_clbits:
                raise CircuitError(f"clbit index {c} out of range")
        self._instructions.append(
            Instruction(op, op.touched_qubits, op.touched_clbits))
        return self

    def if_test(self, condition, true_body: "QuantumCircuit",
                false_body: Optional["QuantumCircuit"] = None,
                ) -> "QuantumCircuit":
        """Append an ``if``/``else`` over outer-indexed *bodies*.

        *condition* is a :class:`~repro.circuits.controlflow.Condition`
        or a ``(clbit, value)`` / ``(clbits, value)`` pair.  Bodies are
        circuits over this circuit's qubit/clbit index space.
        """
        from .controlflow import IfElseOp

        return self._append_control_flow(
            IfElseOp(condition, true_body, false_body))

    def for_loop(self, indexset, body: "QuantumCircuit") -> "QuantumCircuit":
        """Append a statically-bounded loop running *body* per index."""
        from .controlflow import ForLoopOp

        return self._append_control_flow(ForLoopOp(indexset, body))

    def while_loop(self, condition, body: "QuantumCircuit",
                   max_iterations: Optional[int] = None) -> "QuantumCircuit":
        """Append a condition-guarded loop (capped at *max_iterations*)."""
        from .controlflow import DEFAULT_MAX_ITERATIONS, WhileLoopOp

        if max_iterations is None:
            max_iterations = DEFAULT_MAX_ITERATIONS
        return self._append_control_flow(
            WhileLoopOp(condition, body, max_iterations))

    def has_control_flow(self) -> bool:
        """True when any instruction is an if/for/while op."""
        from .controlflow import has_control_flow

        return has_control_flow(self)

    def has_midcircuit_measurement(self) -> bool:
        """True when a measured qubit is *operated on* again afterwards.

        These are the circuits whose semantics the deferred-measurement
        simulators (final-state projection, "last measure per clbit
        wins") get wrong: the qubit must be collapsed at measurement
        time, so they execute on the per-shot feed-forward path.  Delays
        and barriers after a measure don't count (ALAP scheduling pads
        every measured circuit with them), and re-measuring an untouched
        qubit doesn't either (projective measurement is repeatable).
        """
        from .controlflow import ControlFlowOp

        measured: set = set()
        for inst in self._instructions:
            name = inst.gate.name
            if name == "delay" or name == "barrier":
                continue
            if name == "measure":
                measured.add(inst.qubits[0])
                continue
            if isinstance(inst.gate, ControlFlowOp):
                if not measured.isdisjoint(inst.gate.touched_qubits):
                    return True
                # Conservative: any qubit a body might measure counts as
                # measured from here on.
                stack = [i for body in inst.gate.bodies
                         for i in body.instructions]
                while stack:
                    nested = stack.pop()
                    if nested.name == "measure":
                        measured.add(nested.qubits[0])
                    elif isinstance(nested.gate, ControlFlowOp):
                        stack.extend(
                            i for body in nested.gate.bodies
                            for i in body.instructions)
                continue
            if measured and not measured.isdisjoint(inst.qubits):
                return True
        return False

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def size(self, include_directives: bool = False) -> int:
        """Number of gates (directives excluded by default)."""
        if include_directives:
            return len(self._instructions)
        return sum(1 for inst in self if not inst.gate.is_directive)

    def count_ops(self) -> Dict[str, int]:
        """Histogram of instruction names."""
        counts: Dict[str, int] = {}
        for inst in self:
            counts[inst.name] = counts.get(inst.name, 0) + 1
        return counts

    def num_twoq_gates(self) -> int:
        """Number of 2-qubit (and larger) unitary gates."""
        return sum(
            1 for inst in self
            if not inst.gate.is_directive and len(inst.qubits) >= 2
        )

    def num_cx(self) -> int:
        """Number of CX gates."""
        return self.count_ops().get("cx", 0)

    def depth(self, include_directives: bool = False) -> int:
        """Circuit depth: longest qubit-wise dependency chain.

        Control-flow ops contribute their *worst-case* depth bound
        (``if``: deepest branch; ``for``: iterations x body depth;
        ``while``: ``max_iterations`` x body depth) over their full
        qubit/clbit footprint, so the result is a static upper bound
        rather than a per-shot depth.
        """
        from .controlflow import ControlFlowOp

        level: Dict[int, int] = {}
        clevel: Dict[int, int] = {}
        depth = 0
        for inst in self:
            if inst.gate.is_directive and not include_directives:
                if inst.name != "measure":
                    continue
            if isinstance(inst.gate, ControlFlowOp):
                weight = inst.gate.depth_bound(include_directives)
            else:
                weight = 1
            bits = inst.qubits
            start = max(
                [level.get(q, 0) for q in bits]
                + [clevel.get(c, 0) for c in inst.clbits]
                + [0]
            )
            end = start + weight
            for q in bits:
                level[q] = end
            for c in inst.clbits:
                clevel[c] = end
            depth = max(depth, end)
        return depth

    def qubits_used(self) -> Tuple[int, ...]:
        """Sorted tuple of qubit indices touched by any instruction."""
        used = set()
        for inst in self:
            used.update(inst.qubits)
        return tuple(sorted(used))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Shallow-copy the circuit (instructions are immutable); the
        copy keeps the cached fingerprint."""
        out = QuantumCircuit(self.num_qubits, self.num_clbits,
                             name or self.name)
        out._instructions = list(self._instructions)
        out._fingerprint = self._fingerprint
        return out

    def __copy__(self) -> "QuantumCircuit":
        """``copy.copy(circuit)`` is :meth:`copy`: the copy gets its own
        instruction list."""
        return self.copy()

    def inverse(self) -> "QuantumCircuit":
        """Return the adjoint circuit; fails on measure/reset/control flow."""
        from .controlflow import ControlFlowOp

        out = QuantumCircuit(self.num_qubits, self.num_clbits,
                             f"{self.name}_dg")
        for inst in reversed(self._instructions):
            if isinstance(inst.gate, ControlFlowOp):
                raise CircuitError(
                    f"cannot invert control-flow op {inst.name!r}: branch "
                    "outcomes are shot-dependent; statically resolvable "
                    "circuits can be flattened first with "
                    "repro.transpiler.controlflow.expand_control_flow")
            if inst.name in ("measure", "reset"):
                raise CircuitError("cannot invert a circuit with "
                                   f"{inst.name!r}")
            if inst.name in ("barrier", "delay"):
                out._instructions.append(inst)
                continue
            out.append(inst.gate.inverse(), inst.qubits)
        return out

    def adjoint(self) -> "QuantumCircuit":
        """Alias for :meth:`inverse` (same control-flow restrictions)."""
        return self.inverse()

    def without_measurements(self) -> "QuantumCircuit":
        """Return a copy with measure/barrier instructions stripped.

        Raises :class:`CircuitError` on control-flow ops: stripping a
        mid-circuit measurement that feeds a condition would silently
        change which branches run.
        """
        from .controlflow import ControlFlowOp

        out = QuantumCircuit(self.num_qubits, self.num_clbits, self.name)
        for inst in self:
            if isinstance(inst.gate, ControlFlowOp):
                raise CircuitError(
                    f"cannot strip measurements around control-flow op "
                    f"{inst.name!r}: conditions read measured clbits; "
                    "expand_control_flow the circuit first if it is "
                    "statically resolvable")
            if inst.name in ("measure", "barrier"):
                continue
            out._instructions.append(inst)
        return out

    def compose(self, other: "QuantumCircuit",
                qubits: Optional[Sequence[int]] = None,
                clbits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Return ``self`` followed by *other* (mapped onto *qubits*).

        ``qubits[i]`` is the qubit of ``self`` that qubit ``i`` of *other*
        lands on (identity mapping by default).
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if clbits is None:
            clbits = list(range(other.num_clbits))
        if len(qubits) != other.num_qubits:
            raise CircuitError("qubit mapping length mismatch")
        if len(clbits) != other.num_clbits:
            raise CircuitError("clbit mapping length mismatch")
        qmap = {i: q for i, q in enumerate(qubits)}
        cmap = {i: c for i, c in enumerate(clbits)}
        out = self.copy()
        for inst in other:
            out.append_instruction(inst.remap(qmap, cmap))
        return out

    def remapped(self, qubit_map: Dict[int, int],
                 num_qubits: Optional[int] = None,
                 clbit_map: Optional[Dict[int, int]] = None,
                 num_clbits: Optional[int] = None) -> "QuantumCircuit":
        """Return a copy with qubit indices renumbered via *qubit_map*."""
        nq = num_qubits if num_qubits is not None else self.num_qubits
        nc = num_clbits if num_clbits is not None else self.num_clbits
        out = QuantumCircuit(nq, nc, self.name)
        for inst in self:
            out.append_instruction(inst.remap(qubit_map, clbit_map))
        return out

    def repeated(self, reps: int) -> "QuantumCircuit":
        """Return the circuit repeated *reps* times (no measurements)."""
        if reps < 0:
            raise CircuitError("reps must be non-negative")
        body = self.without_measurements()
        out = QuantumCircuit(self.num_qubits, self.num_clbits,
                             f"{self.name}_x{reps}")
        for _ in range(reps):
            out = out.compose(body)
        return out

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QuantumCircuit {self.name!r}: {self.num_qubits}q "
            f"{self.num_clbits}c, {len(self)} instructions>"
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        ops = ", ".join(f"{k}:{v}" for k, v in sorted(self.count_ops().items()))
        return (
            f"{self.name}: {self.num_qubits} qubits, depth {self.depth()}, "
            f"{self.size()} gates ({ops})"
        )
