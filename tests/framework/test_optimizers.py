"""Tests for optimizers and their Apply* update operations."""

import numpy as np
import pytest

from repro.framework import ops
from repro.framework.errors import DifferentiationError
from repro.framework.graph import get_default_graph
from repro.framework.optimizers import (AdamOptimizer,
                                        GradientDescentOptimizer,
                                        MomentumOptimizer, RMSPropOptimizer)
from repro.framework.ops.state_ops import VariableOp
from repro.framework.session import Session


def quadratic_problem():
    """min ||w - target||^2 over a 4-vector variable."""
    target = np.array([1.0, -2.0, 3.0, 0.5], dtype=np.float32)
    w = ops.variable(np.zeros(4, dtype=np.float32), name="w")
    loss = ops.reduce_sum(ops.square(ops.subtract(w, ops.constant(target))))
    return w, loss, target


OPTIMIZERS = [
    ("sgd", lambda: GradientDescentOptimizer(0.1), 100),
    ("momentum", lambda: MomentumOptimizer(0.05, momentum=0.9), 100),
    ("rmsprop", lambda: RMSPropOptimizer(0.05), 300),
    ("adam", lambda: AdamOptimizer(0.1), 300),
]


class TestConvergence:
    @pytest.mark.parametrize("name,make,steps", OPTIMIZERS,
                             ids=[o[0] for o in OPTIMIZERS])
    def test_reaches_quadratic_minimum(self, fresh_graph, name, make, steps):
        w, loss, target = quadratic_problem()
        train = make().minimize(loss)
        session = Session(fresh_graph, seed=0)
        initial = session.run(loss)
        for _ in range(steps):
            session.run(train)
        final = session.run(loss)
        assert final < 1e-2 * initial
        np.testing.assert_allclose(session.variable_value(w), target,
                                   atol=0.15)

    @pytest.mark.parametrize("name,make,steps", OPTIMIZERS,
                             ids=[o[0] for o in OPTIMIZERS])
    def test_loss_monotone_trend(self, fresh_graph, name, make, steps):
        _, loss, _ = quadratic_problem()
        train = make().minimize(loss)
        session = Session(fresh_graph, seed=0)
        losses = []
        for _ in range(30):
            value, _ = session.run([loss, train])
            losses.append(float(value))
        assert losses[-1] < losses[0]


class TestUpdateMath:
    def test_sgd_step_is_exact(self, fresh_graph):
        w = ops.variable(np.array([2.0], dtype=np.float32))
        loss = ops.reduce_sum(ops.square(w))  # dL/dw = 2w
        train = GradientDescentOptimizer(0.25).minimize(loss)
        session = Session(fresh_graph, seed=0)
        session.run(train)
        # w <- 2.0 - 0.25 * 4.0 = 1.0
        np.testing.assert_allclose(session.variable_value(w), [1.0],
                                   rtol=1e-6)

    def test_momentum_accumulates(self, fresh_graph):
        w = ops.variable(np.array([1.0], dtype=np.float32))
        loss = ops.reduce_sum(w)  # constant gradient of 1
        train = MomentumOptimizer(0.1, momentum=0.5).minimize(loss)
        session = Session(fresh_graph, seed=0)
        session.run(train)  # accum=1, w = 1 - 0.1 = 0.9
        session.run(train)  # accum=1.5, w = 0.9 - 0.15 = 0.75
        np.testing.assert_allclose(session.variable_value(w), [0.75],
                                   rtol=1e-5)

    def test_adam_step_counter_advances(self, fresh_graph):
        w = ops.variable(np.array([1.0], dtype=np.float32))
        loss = ops.reduce_sum(ops.square(w))
        optimizer = AdamOptimizer(0.1)
        train = optimizer.minimize(loss)
        session = Session(fresh_graph, seed=0)
        first = session.run(loss)
        session.run(train)
        second = session.run(loss)
        assert second < first

    def test_rmsprop_normalizes_gradient_scale(self, fresh_graph):
        # Two coordinates with wildly different gradient scales should
        # move at comparable speeds under RMSProp.
        w = ops.variable(np.array([1.0, 1.0], dtype=np.float32))
        scales = ops.constant(np.array([100.0, 0.01], dtype=np.float32))
        loss = ops.reduce_sum(ops.multiply(scales, ops.square(w)))
        train = RMSPropOptimizer(0.01).minimize(loss)
        session = Session(fresh_graph, seed=0)
        for _ in range(10):
            session.run(train)
        value = session.variable_value(w)
        moved = 1.0 - value
        assert moved[0] > 0.0 and moved[1] > 0.0
        assert moved[0] / moved[1] < 10.0


def textbook_momentum(grad, state, a):
    accum = a["momentum"] * state["accumulator"] + grad
    return {"accumulator": accum,
            "variable": state["variable"] - a["learning_rate"] * accum}


def textbook_rmsprop(grad, state, a):
    mean_square = (a["decay"] * state["mean_square"]
                   + (1.0 - a["decay"]) * np.square(grad))
    denom = np.sqrt(mean_square) + a["epsilon"]
    momentum = (a["momentum"] * state["momentum_slot"]
                + a["learning_rate"] * grad / denom)
    return {"mean_square": mean_square, "momentum_slot": momentum,
            "variable": state["variable"] - momentum}


def textbook_adam(grad, state, a):
    beta1, beta2 = a["beta1"], a["beta2"]
    step = float(state["step"]) + 1.0
    first = beta1 * state["first_moment"] + (1.0 - beta1) * grad
    second = beta2 * state["second_moment"] + (1.0 - beta2) * np.square(grad)
    corrected_lr = float(a["learning_rate"] * (1.0 - beta2 ** step) ** 0.5
                         / (1.0 - beta1 ** step))
    return {"step": np.float32(step), "first_moment": first,
            "second_moment": second,
            "variable": state["variable"] - corrected_lr * first / (
                np.sqrt(second) + a["epsilon"])}


def assert_bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype == np.float32
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


APPLY_KERNELS = [
    ("momentum", lambda: MomentumOptimizer(0.05, momentum=0.9),
     textbook_momentum),
    ("rmsprop", lambda: RMSPropOptimizer(0.01, momentum=0.5),
     textbook_rmsprop),
    ("adam", lambda: AdamOptimizer(0.01), textbook_adam),
]


class TestApplyKernelsBitwise:
    """The ``out=`` kernels against the one-expression-per-line formulas.

    Same float32 operations in the same order, so every slot and the
    variable must agree to the bit, step after step.
    """

    @pytest.mark.parametrize("shape", [(37, 19), (5,), ()],
                             ids=["matrix", "vector", "scalar"])
    @pytest.mark.parametrize("name,make,textbook", APPLY_KERNELS,
                             ids=[k[0] for k in APPLY_KERNELS])
    def test_matches_textbook_formula(self, fresh_graph, rng, name, make,
                                      textbook, shape):
        initial = rng.standard_normal(shape).astype(np.float32)
        w = ops.variable(initial, name="w")
        grad_in = ops.placeholder(shape, name="g")
        apply_op = make().apply_gradients([(grad_in, w)]).op.inputs[0].op
        slots = [key for key, value in apply_op.attrs.items()
                 if isinstance(value, VariableOp)]
        session = Session(fresh_graph, seed=0)
        ctx = session._ctx
        for _ in range(4):
            grad = rng.standard_normal(shape).astype(np.float32)
            before = {key: ctx.read_variable(apply_op.attrs[key])
                      for key in slots}
            frozen = {key: value.copy() for key, value in before.items()}
            expected = textbook(grad, before, apply_op.attrs)
            out, = apply_op.compute((grad,), ctx)
            for key in slots:
                stored = ctx.read_variable(apply_op.attrs[key])
                assert_bitwise_equal(stored, expected[key])
                # replaced, never mutated: a snapshot may hold the old one
                assert stored is not before[key]
                np.testing.assert_array_equal(before[key], frozen[key])
            assert_bitwise_equal(out, expected["variable"])

    def test_adam_step_slot_stays_zero_dimensional(self, fresh_graph):
        w = ops.variable(np.ones((3, 2), dtype=np.float32), name="w")
        train = AdamOptimizer(0.1).minimize(ops.reduce_sum(ops.square(w)))
        session = Session(fresh_graph, seed=0)
        step_op = train.op.inputs[0].op.attrs["step"]
        for expected in (1.0, 2.0, 3.0):
            session.run(train)
            step = session._ctx.read_variable(step_op)
            assert step.shape == () and step.dtype == np.float32
            assert float(step) == expected


class TestStructure:
    def test_minimize_defaults_to_trainable_variables(self, fresh_graph):
        w = ops.variable(np.ones(2, dtype=np.float32), name="trainme")
        frozen = ops.variable(np.ones(2, dtype=np.float32), name="frozen",
                              trainable=False)
        loss = ops.reduce_sum(ops.multiply(w, frozen))
        train = GradientDescentOptimizer(0.5).minimize(loss)
        session = Session(fresh_graph, seed=0)
        session.run(train)
        np.testing.assert_allclose(session.variable_value(frozen),
                                   [1.0, 1.0])
        assert not np.allclose(session.variable_value(w), [1.0, 1.0])

    def test_var_list_restricts_updates(self, fresh_graph):
        a = ops.variable(np.ones(1, dtype=np.float32), name="a")
        b = ops.variable(np.ones(1, dtype=np.float32), name="b")
        loss = ops.reduce_sum(ops.multiply(a, b))
        train = GradientDescentOptimizer(0.5).minimize(loss, var_list=[a])
        session = Session(fresh_graph, seed=0)
        session.run(train)
        np.testing.assert_allclose(session.variable_value(b), [1.0])

    def test_no_dependence_raises(self, fresh_graph):
        ops.variable(np.ones(1, dtype=np.float32))
        loss = ops.constant(1.0)
        with pytest.raises(DifferentiationError):
            GradientDescentOptimizer(0.1).minimize(loss)

    def test_no_trainables_raises(self, fresh_graph):
        loss = ops.constant(1.0)
        with pytest.raises(DifferentiationError, match="no trainable"):
            GradientDescentOptimizer(0.1).minimize(loss)

    def test_apply_ops_are_optimization_class(self, fresh_graph):
        from repro.framework.graph import OpClass
        _, loss, _ = quadratic_problem()
        RMSPropOptimizer(0.01).minimize(loss)
        graph = get_default_graph()
        apply_ops = [op for op in graph.operations
                     if op.type_name == "ApplyRMSProp"]
        assert apply_ops
        assert all(op.op_class is OpClass.OPTIMIZATION for op in apply_ops)

    def test_shared_training_node_updates_all_variables(self, fresh_graph):
        a = ops.variable(np.full(2, 5.0, dtype=np.float32), name="a")
        b = ops.variable(np.full(3, -5.0, dtype=np.float32), name="b")
        loss = ops.add(ops.reduce_sum(ops.square(a)),
                       ops.reduce_sum(ops.square(b)))
        train = GradientDescentOptimizer(0.4).minimize(loss)
        session = Session(fresh_graph, seed=0)
        session.run(train)
        np.testing.assert_allclose(session.variable_value(a), [1.0, 1.0],
                                   rtol=1e-5)
        np.testing.assert_allclose(session.variable_value(b),
                                   [-1.0, -1.0, -1.0], rtol=1e-5)
