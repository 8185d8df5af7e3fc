"""Unit tests for the control-flow IR and static expansion pass."""

import pytest

from repro.circuits import QuantumCircuit
from repro.circuits.circuit import CircuitError
from repro.circuits.controlflow import (
    DEFAULT_MAX_ITERATIONS,
    Condition,
    ForLoopOp,
    IfElseOp,
    WhileLoopOp,
    has_control_flow,
    is_control_flow,
    written_clbits_of,
)
from repro.transpiler import expand_control_flow, is_statically_resolvable


def _body(num_qubits=2, num_clbits=2, gates=(("x", 0),)):
    qc = QuantumCircuit(num_qubits, num_clbits)
    for name, q in gates:
        qc._add(name, [q])
    return qc


def _teleport_like():
    """Measure feeds two if_tests — the canonical unresolvable shape."""
    qc = QuantumCircuit(3, 3)
    qc.h(0)
    qc.cx(0, 1)
    qc.measure(0, 0)
    qc.measure(1, 1)
    qc.if_test(([1], 1), _body(3, 3, (("x", 2),)))
    qc.if_test(([0], 1), _body(3, 3, (("z", 2),)))
    qc.measure(2, 2)
    return qc


class TestCondition:
    def test_coerce_single_clbit(self):
        cond = Condition.coerce((2, 1))
        assert cond.clbits == (2,) and cond.value == 1

    def test_coerce_register(self):
        cond = Condition.coerce(([0, 3], 2))
        assert cond.clbits == (0, 3) and cond.value == 2

    def test_little_endian_evaluation(self):
        # clbits[0] is the least-significant bit.
        cond = Condition((0, 1), 2)
        assert cond.evaluate({0: 0, 1: 1})
        assert not cond.evaluate({0: 1, 1: 0})

    def test_missing_bits_read_zero(self):
        assert Condition((5,), 0).evaluate({})
        assert not Condition((5,), 1).evaluate({})

    @pytest.mark.parametrize("clbits,value", [
        ((), 0), ((0, 0), 1), ((-1,), 0), ((0,), 2), ((0, 1), 4),
    ])
    def test_validation(self, clbits, value):
        with pytest.raises(CircuitError):
            Condition(clbits, value)

    def test_remapped(self):
        cond = Condition((0, 2), 3).remapped({0: 5, 2: 1})
        assert cond.clbits == (5, 1) and cond.value == 3

    def test_coerce_garbage_rejected(self):
        with pytest.raises(CircuitError):
            Condition.coerce("c0 == 1")


class TestBuilders:
    def test_if_test_footprint(self):
        qc = QuantumCircuit(3, 3)
        qc.if_test(([2], 1), _body(3, 3, (("x", 0), ("x", 1))))
        inst = qc.instructions[-1]
        assert is_control_flow(inst)
        assert inst.qubits == (0, 1)
        # Condition clbits join the footprint even though no body
        # instruction touches them.
        assert inst.clbits == (2,)

    def test_for_loop_payload(self):
        qc = QuantumCircuit(2, 2)
        qc.for_loop(range(3), _body())
        op = qc.instructions[-1].gate
        assert isinstance(op, ForLoopOp)
        assert op.indexset == (0, 1, 2)

    def test_while_loop_default_cap(self):
        qc = QuantumCircuit(2, 2)
        qc.while_loop(([0], 0), _body(gates=(("x", 0),)))
        op = qc.instructions[-1].gate
        assert isinstance(op, WhileLoopOp)
        assert op.max_iterations == DEFAULT_MAX_ITERATIONS

    def test_while_loop_rejects_bad_cap(self):
        qc = QuantumCircuit(1, 1)
        with pytest.raises(CircuitError):
            qc.while_loop(([0], 0), _body(1, 1, (("x", 0),)),
                          max_iterations=0)

    def test_empty_bodies_rejected(self):
        from repro.circuits.controlflow import ControlFlowOp

        with pytest.raises(CircuitError):
            ControlFlowOp("if_else", ())

    def test_body_must_be_circuit(self):
        with pytest.raises(CircuitError):
            ForLoopOp(range(2), "not a circuit")

    def test_ops_are_unhashable(self):
        op = IfElseOp(([0], 1), _body())
        with pytest.raises(TypeError):
            hash(op)


class TestLoopOps:
    """Relabeling, body replacement and equality of the loop ops."""

    def test_for_loop_remaps_like_if_else(self):
        body = _body(3, 3, (("x", 0), ("h", 2)))
        body.measure(2, 1)
        qmap, cmap = {0: 4, 1: 3, 2: 1}, {0: 2, 1: 0, 2: 1}
        loop = ForLoopOp(range(1, 4), body).remapped(qmap, cmap)
        branch = IfElseOp(([2], 1), body).remapped(qmap, cmap)
        assert isinstance(loop, ForLoopOp)
        assert loop.indexset == (1, 2, 3)
        assert loop.body == branch.true_body
        assert [(i.name, i.qubits, i.clbits) for i in loop.body] == [
            ("x", (4,), ()), ("h", (1,), ()), ("measure", (1,), (0,))]
        assert loop.touched_qubits == (1, 4)
        assert loop.touched_clbits == (0,)

    def test_with_bodies_keeps_indexset(self):
        other = _body(gates=(("z", 1),))
        rebuilt = ForLoopOp((2, 0, 5), _body()).with_bodies((other,))
        assert isinstance(rebuilt, ForLoopOp)
        assert rebuilt.indexset == (2, 0, 5)
        assert rebuilt.body is other

    def test_for_loop_equality(self):
        loop = ForLoopOp(range(3), _body())
        assert loop == ForLoopOp(range(3), _body())
        assert loop != ForLoopOp(range(4), _body())
        assert loop != ForLoopOp(range(3), _body(gates=(("z", 0),)))

    def test_while_loop_equality(self):
        loop = WhileLoopOp(([0], 1), _body(), 5)
        assert loop == WhileLoopOp(([0], 1), _body(), 5)
        assert loop != WhileLoopOp(([0], 0), _body(), 5)
        assert loop != WhileLoopOp(([1], 1), _body(), 5)
        assert loop != WhileLoopOp(([0], 1), _body(), 6)
        assert loop != WhileLoopOp(([0], 1), _body(gates=(("z", 0),)), 5)


class TestDepthBounds:
    def test_for_loop_multiplies(self):
        qc = QuantumCircuit(1, 1)
        body = QuantumCircuit(1, 1)
        body.x(0)
        body.x(0)
        qc.for_loop(range(5), body)
        assert qc.depth() == 10

    def test_if_takes_deepest_branch(self):
        qc = QuantumCircuit(2, 2)
        deep = QuantumCircuit(2, 2)
        for _ in range(4):
            deep.x(0)
        qc.if_test(([0], 1), _body(), deep)
        assert qc.depth() == 4

    def test_while_uses_iteration_cap(self):
        qc = QuantumCircuit(1, 1)
        body = QuantumCircuit(1, 1)
        body.x(0)
        body.measure(0, 0)
        qc.while_loop(([0], 0), body, max_iterations=7)
        assert qc.depth() == 14


class TestTypedErrors:
    def test_inverse_raises(self):
        qc = QuantumCircuit(3, 3)
        qc.if_test(([0], 1), _body(3, 3, (("x", 2),)))
        with pytest.raises(CircuitError, match="expand_control_flow"):
            qc.inverse()

    def test_adjoint_raises(self):
        qc = QuantumCircuit(3, 3)
        qc.for_loop(range(2), _body(3, 3))
        with pytest.raises(CircuitError):
            qc.adjoint()

    def test_without_measurements_raises(self):
        qc = _teleport_like()
        with pytest.raises(CircuitError):
            qc.without_measurements()

    def test_matrix_raises(self):
        op = ForLoopOp(range(2), _body())
        with pytest.raises(CircuitError, match="no unitary matrix"):
            op.matrix()


class TestMidcircuitPredicate:
    def test_end_measured_is_static(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure(0, 0)
        qc.measure(1, 1)
        assert not qc.has_midcircuit_measurement()

    def test_gate_after_measure_is_dynamic(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        qc.x(0)
        assert qc.has_midcircuit_measurement()

    def test_delay_and_barrier_after_measure_ignored(self):
        # ALAP pads measured circuits with delays — those must not
        # reroute static circuits onto the per-shot path.
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.delay(0, 100.0)
        qc.barrier(0, 1)
        assert not qc.has_midcircuit_measurement()

    def test_remeasure_untouched_qubit_ignored(self):
        qc = QuantumCircuit(1, 2)
        qc.measure(0, 0)
        qc.measure(0, 1)
        assert not qc.has_midcircuit_measurement()

    def test_gate_on_other_qubit_ignored(self):
        qc = QuantumCircuit(2, 1)
        qc.measure(0, 0)
        qc.x(1)
        assert not qc.has_midcircuit_measurement()

    def test_reuse_after_reset_is_dynamic(self):
        qc = QuantumCircuit(1, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.reset(0)
        qc.h(0)
        qc.measure(0, 1)
        assert qc.has_midcircuit_measurement()


class TestExpandControlFlow:
    def test_for_loop_unrolls(self):
        qc = QuantumCircuit(1, 1)
        body = QuantumCircuit(1, 1)
        body.x(0)
        qc.for_loop(range(4), body)
        flat = expand_control_flow(qc)
        assert not has_control_flow(flat)
        assert flat.count_ops()["x"] == 4

    def test_resolvable_if_splices_taken_branch(self):
        qc = QuantumCircuit(1, 1)
        taken = QuantumCircuit(1, 1)
        taken.x(0)
        dropped = QuantumCircuit(1, 1)
        dropped.h(0)
        # Clbit 0 never written: reads 0, so the else branch runs.
        qc.if_test(([0], 1), dropped, taken)
        flat = expand_control_flow(qc)
        assert flat.count_ops() == {"x": 1}

    def test_unresolvable_if_kept(self):
        flat = expand_control_flow(_teleport_like())
        assert has_control_flow(flat)
        assert not is_statically_resolvable(_teleport_like())

    def test_strict_raises_on_unresolvable(self):
        with pytest.raises(CircuitError, match="not statically"):
            expand_control_flow(_teleport_like(), strict=True)

    def test_initially_false_while_dropped(self):
        qc = QuantumCircuit(1, 1)
        body = QuantumCircuit(1, 1)
        body.x(0)
        body.measure(0, 0)
        qc.while_loop(([0], 1), body)  # clbit 0 reads 0: never entered
        assert expand_control_flow(qc).count_ops() == {}

    def test_statically_infinite_while_raises(self):
        qc = QuantumCircuit(1, 1)
        body = QuantumCircuit(1, 1)
        body.x(0)  # never writes clbit 0
        qc.while_loop(([0], 0), body)
        with pytest.raises(CircuitError, match="statically infinite"):
            expand_control_flow(qc)

    def test_nested_loops_unroll_recursively(self):
        inner = QuantumCircuit(1, 1)
        inner.x(0)
        mid = QuantumCircuit(1, 1)
        mid.for_loop(range(3), inner)
        qc = QuantumCircuit(1, 1)
        qc.for_loop(range(2), mid)
        assert expand_control_flow(qc).count_ops()["x"] == 6

    def test_measure_inside_loop_poisons_later_conditions(self):
        qc = QuantumCircuit(1, 1)
        body = QuantumCircuit(1, 1)
        body.h(0)
        body.measure(0, 0)
        qc.for_loop(range(1), body)
        fix = QuantumCircuit(1, 1)
        fix.x(0)
        qc.if_test(([0], 1), fix)
        flat = expand_control_flow(qc)
        assert has_control_flow(flat)

    def test_written_clbits_descend_into_bodies(self):
        qc = QuantumCircuit(2, 3)
        qc.measure(0, 0)
        body = QuantumCircuit(2, 3)
        body.measure(1, 2)
        qc.if_test(([0], 1), body)
        assert written_clbits_of(qc) == (0, 2)
