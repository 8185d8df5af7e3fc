"""Control-flow transpilation: static unrolling + the dynamic pipeline.

Two jobs live here:

1. :func:`expand_control_flow` — statically unroll every control-flow op
   whose outcome is decidable at compile time.  Clbits start at 0 and
   are only ever written by ``measure``, so a condition is *resolvable*
   exactly when none of its clbits has a preceding measurement.  Bounded
   ``for`` loops always unroll (the indexset is static); resolvable
   branches splice the taken body; a ``while`` whose condition starts
   false disappears.  The result is a flat circuit the existing
   transpile/allocate/schedule path handles unchanged — and on fully
   resolvable circuits the flat circuit is *the* execution semantics the
   feed-forward simulator must reproduce bit-for-bit (see
   ``tests/test_controlflow_equivalence.py``).

2. :func:`transpile_dynamic` — the compile pipeline for circuits that
   keep data-dependent ops after expansion.  Control-flow bodies cannot
   be SWAP-routed (a router would have to commit to a branch), so the
   dynamic pipeline decomposes outer code *and* bodies to the device
   basis, picks a noise-aware layout from a static interaction profile
   (every branch counted once), and then requires the chosen layout to
   be *routing-free*: every 2q interaction, inside or outside a body,
   must land on a coupling edge.  When the noise-aware choice fails, a
   small exhaustive search over placements runs; if no routing-free
   placement exists the circuit is rejected with a typed error telling
   the caller to simplify bodies (feed-forward corrections are 1q in
   every workload this repo ships).
"""

from __future__ import annotations

from itertools import permutations
from typing import TYPE_CHECKING, Optional, Set, Tuple

from ..circuits.circuit import CircuitError, QuantumCircuit
from ..circuits.controlflow import (ControlFlowOp, ForLoopOp, IfElseOp,
                                    WhileLoopOp, has_control_flow,
                                    written_clbits_of)
from ..hardware.calibration import Calibration
from ..hardware.topology import CouplingMap
from .basis import decompose_to_basis
from .context import DeviceContext, device_context
from .layout import Layout
from .mapping import noise_aware_layout
from .optimize import combine_adjacent_delays, optimize_circuit
from .schedule import schedule_alap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transpile import TranspileResult

__all__ = ["expand_control_flow", "is_statically_resolvable",
           "transpile_dynamic"]

#: Exhaustive placement search bounds for the routing-free fallback.
_EXHAUSTIVE_MAX_LOGICAL = 5
_EXHAUSTIVE_MAX_PHYSICAL = 9


# ----------------------------------------------------------------------
# static unrolling
# ----------------------------------------------------------------------
def expand_control_flow(circuit: QuantumCircuit,
                        strict: bool = False) -> QuantumCircuit:
    """Unroll every compile-time-resolvable control-flow op.

    With ``strict=True`` any op that survives (a condition fed by a
    preceding measurement) raises :class:`CircuitError` instead of being
    kept.  A ``while`` whose condition starts true but whose body never
    writes the condition's clbits is statically infinite and always
    raises.
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    written: Set[int] = set()
    _expand_into(out, circuit.instructions, written, strict)
    return out


def _keep_op(out: QuantumCircuit, inst, written: Set[int],
             strict: bool) -> None:
    if strict:
        raise CircuitError(
            f"control-flow op {inst.name!r} is not statically "
            "resolvable: its condition reads clbits "
            f"{inst.gate.condition.clbits} written by a preceding "
            "measurement")
    out._instructions.append(inst)  # noqa: SLF001 - revalidated at build
    for body in inst.gate.bodies:
        written.update(written_clbits_of(body))


def _expand_into(out: QuantumCircuit, instructions, written: Set[int],
                 strict: bool) -> None:
    for inst in instructions:
        op = inst.gate
        if not isinstance(op, ControlFlowOp):
            if inst.name == "measure":
                written.update(inst.clbits)
            out._instructions.append(inst)  # noqa: SLF001
            continue
        if isinstance(op, ForLoopOp):
            # The indexset is static: always unrollable, even when the
            # body itself contains data-dependent ops (those recurse).
            for _ in op.indexset:
                _expand_into(out, op.body.instructions, written, strict)
            continue
        condition = op.condition
        resolvable = not (set(condition.clbits) & written)
        if isinstance(op, IfElseOp):
            if not resolvable:
                _keep_op(out, inst, written, strict)
                continue
            body = op.body_for(condition.evaluate({}))
            if body is not None:
                _expand_into(out, body.instructions, written, strict)
            continue
        if isinstance(op, WhileLoopOp):
            if not resolvable:
                _keep_op(out, inst, written, strict)
                continue
            if not condition.evaluate({}):
                continue  # never entered
            body_writes = set(written_clbits_of(op.body))
            if not body_writes & set(condition.clbits):
                raise CircuitError(
                    "while_loop condition "
                    f"{condition!r} starts true and the body never "
                    "writes its clbits: the loop is statically infinite")
            _keep_op(out, inst, written, strict)
            continue
        raise CircuitError(  # pragma: no cover - future op kinds
            f"unknown control-flow op {inst.name!r}")


def is_statically_resolvable(circuit: QuantumCircuit) -> bool:
    """True when :func:`expand_control_flow` flattens *circuit* fully."""
    if not has_control_flow(circuit):
        return True
    try:
        return not has_control_flow(expand_control_flow(circuit))
    except CircuitError:
        return False


# ----------------------------------------------------------------------
# dynamic transpile pipeline
# ----------------------------------------------------------------------
def _decompose_dynamic(circuit: QuantumCircuit) -> QuantumCircuit:
    """Basis-decompose a circuit, recursing through control-flow bodies.

    Static instruction runs between control-flow ops go through the
    ordinary :func:`decompose_to_basis`; bodies are decomposed
    recursively and the op rebuilt around them.
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         circuit.name)
    segment = QuantumCircuit(circuit.num_qubits, circuit.num_clbits)

    def flush_segment() -> None:
        nonlocal segment
        if not len(segment):
            return
        for inst in decompose_to_basis(segment):
            out._instructions.append(inst)  # noqa: SLF001
        segment = QuantumCircuit(circuit.num_qubits, circuit.num_clbits)

    for inst in circuit:
        if isinstance(inst.gate, ControlFlowOp):
            flush_segment()
            op = inst.gate.with_bodies(
                tuple(_decompose_dynamic(body)
                      for body in inst.gate.bodies))
            out._append_control_flow(op)
            continue
        segment._instructions.append(inst)  # noqa: SLF001
    flush_segment()
    return out


def _static_profile(circuit: QuantumCircuit) -> QuantumCircuit:
    """Flatten every branch once — the layout pass's interaction view."""
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         f"{circuit.name}__profile")

    def splice(instructions) -> None:
        for inst in instructions:
            if isinstance(inst.gate, ControlFlowOp):
                for body in inst.gate.bodies:
                    splice(body.instructions)
            else:
                out._instructions.append(inst)  # noqa: SLF001

    splice(circuit.instructions)
    return out


def _interaction_pairs(circuit: QuantumCircuit) -> Set[Tuple[int, int]]:
    """Every 2q interaction, bodies included (post-decomposition)."""
    pairs: Set[Tuple[int, int]] = set()

    def visit(instructions) -> None:
        for inst in instructions:
            if isinstance(inst.gate, ControlFlowOp):
                for body in inst.gate.bodies:
                    visit(body.instructions)
                continue
            if inst.gate.is_directive or len(inst.qubits) < 2:
                continue
            a, b = inst.qubits[0], inst.qubits[1]
            pairs.add((a, b) if a <= b else (b, a))

    visit(circuit.instructions)
    return pairs


def _layout_feasible(layout: Layout, pairs, coupling: CouplingMap) -> bool:
    for a, b in pairs:
        if a not in layout or b not in layout:
            return False
        if not coupling.is_edge(layout.physical(a), layout.physical(b)):
            return False
    return True


def _routing_free_layout(circuit: QuantumCircuit, coupling: CouplingMap,
                         calibration: Optional[Calibration],
                         seed: int, context: DeviceContext) -> Layout:
    pairs = _interaction_pairs(circuit)
    profile = _static_profile(circuit)
    layout = noise_aware_layout(profile, coupling, calibration, seed=seed,
                                context=context)
    # noise_aware_layout only places *used* qubits; extend to all logical
    # qubits so body instructions on rarely-touched qubits still map.
    free = [p for p in range(coupling.num_qubits)
            if layout.logical(p) is None]
    mapping = layout.as_dict()
    for q in range(circuit.num_qubits):
        if q not in mapping:
            mapping[q] = free.pop(0)
    layout = Layout(mapping)
    if _layout_feasible(layout, pairs, coupling):
        return layout
    n_logical = circuit.num_qubits
    n_physical = coupling.num_qubits
    if (n_logical <= _EXHAUSTIVE_MAX_LOGICAL
            and n_physical <= _EXHAUSTIVE_MAX_PHYSICAL):
        for placement in permutations(range(n_physical), n_logical):
            candidate = Layout.from_sequence(placement)
            if _layout_feasible(candidate, pairs, coupling):
                return candidate
    raise CircuitError(
        "dynamic circuit cannot be placed without SWAP routing on this "
        f"coupling map (interactions: {sorted(pairs)}); control-flow "
        "bodies cannot be routed — keep in-body gates single-qubit or "
        "simplify the circuit with expand_control_flow")


def _optimize_dynamic(circuit: QuantumCircuit,
                      optimization_level: int) -> QuantumCircuit:
    out = optimize_circuit(circuit, optimization_level)
    rebuilt = QuantumCircuit(out.num_qubits, out.num_clbits, out.name)
    for inst in out:
        if isinstance(inst.gate, ControlFlowOp):
            op = inst.gate.with_bodies(
                tuple(optimize_circuit(body, optimization_level)
                      for body in inst.gate.bodies))
            rebuilt._append_control_flow(op)
        else:
            rebuilt._instructions.append(inst)  # noqa: SLF001
    return rebuilt


def transpile_dynamic(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    calibration: Optional[Calibration] = None,
    optimization_level: int = 3,
    schedule: bool = False,
    seed: int = 0,
    context: Optional[DeviceContext] = None,
) -> "TranspileResult":
    """Compile a circuit that keeps data-dependent control flow.

    The caller (``transpile``) has already expanded what was statically
    resolvable.  The output circuit is expressed over physical indices
    like every other transpile result; ``num_swaps`` is always 0 because
    the pipeline rejects placements that would need routing.
    """
    from .transpile import TranspileResult

    if context is None:
        context = device_context(coupling, calibration)
    basis = _decompose_dynamic(circuit)
    layout = _routing_free_layout(basis, coupling, calibration, seed,
                                  context)
    qubit_map = {q: layout.physical(q) for q in range(basis.num_qubits)}
    physical = basis.remapped(qubit_map, num_qubits=coupling.num_qubits)
    physical = _optimize_dynamic(physical, optimization_level)
    if schedule and calibration is not None:
        physical = schedule_alap(physical, calibration.gate_duration)
        if optimization_level >= 1:
            physical = combine_adjacent_delays(physical)
    return TranspileResult(
        circuit=physical,
        initial_layout=layout,
        final_layout=layout.copy(),
        num_swaps=0,
    )
