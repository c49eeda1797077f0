"""Tests for the public gradient-check utility and check_numerics."""

import numpy as np
import pytest

from repro.framework import ops
from repro.framework.errors import DifferentiationError, ExecutionError
from repro.framework.gradient_check import check_gradients
from repro.framework.session import Session


class TestCheckGradients:
    def test_clean_gradients_pass(self, fresh_graph, rng):
        x = ops.placeholder((3, 4), name="x")
        w = ops.variable(rng.standard_normal((4, 2)).astype(np.float32),
                         name="w")
        loss = ops.reduce_mean(ops.square(ops.matmul(x, w)))
        session = Session(fresh_graph, seed=0)
        feed = {x: rng.standard_normal((3, 4)).astype(np.float32)}
        report = check_gradients(loss, [x, w], session, feed_dict=feed,
                                 samples_per_tensor=4)
        assert report.max_relative_error < 2e-2
        assert len(report.entries) == 8

    def test_variable_state_restored_after_check(self, fresh_graph, rng):
        w = ops.variable(np.ones(3, dtype=np.float32), name="w")
        loss = ops.reduce_sum(ops.square(w))
        session = Session(fresh_graph, seed=0)
        check_gradients(loss, [w], session)
        np.testing.assert_array_equal(session.variable_value(w),
                                      [1.0, 1.0, 1.0])

    def test_rejects_non_scalar_loss(self, fresh_graph):
        x = ops.placeholder((3,), name="x")
        with pytest.raises(DifferentiationError, match="scalar"):
            check_gradients(ops.square(x), [x], Session(fresh_graph))

    def test_rejects_independent_target(self, fresh_graph):
        x = ops.placeholder((3,), name="x")
        y = ops.placeholder((3,), name="y")
        loss = ops.reduce_sum(x)
        session = Session(fresh_graph, seed=0)
        with pytest.raises(DifferentiationError, match="depend"):
            check_gradients(loss, [y], session,
                            feed_dict={x: np.ones(3, np.float32),
                                       y: np.ones(3, np.float32)})

    def test_detects_a_wrong_gradient(self, fresh_graph, rng):
        """A deliberately broken gradient rule must produce a large
        reported error (guard against the checker silently passing)."""
        from repro.framework.cost_model import elementwise_work
        from repro.framework.graph import Operation, OpClass

        class BadSquare(Operation):
            type_name = "BadSquare"
            op_class = OpClass.ELEMENTWISE

            def _output_specs(self):
                return [(self.inputs[0].shape, self.inputs[0].dtype)]

            def compute(self, inputs, ctx):
                return (np.square(inputs[0]),)

            def gradient(self, grads):
                # WRONG on purpose: forgets the factor of 2x.
                return [grads[0]]

        x = ops.placeholder((4,), name="x")
        loss = ops.reduce_sum(BadSquare([x]).output)
        session = Session(fresh_graph, seed=0)
        feed = {x: (rng.standard_normal(4).astype(np.float32) + 2.0)}
        report = check_gradients(loss, [x], session, feed_dict=feed)
        assert report.max_relative_error > 0.3

    def test_render(self, fresh_graph, rng):
        x = ops.placeholder((2, 2), name="x")
        loss = ops.reduce_sum(ops.tanh(x))
        session = Session(fresh_graph, seed=0)
        report = check_gradients(
            loss, [x], session,
            feed_dict={x: rng.standard_normal((2, 2)).astype(np.float32)})
        text = report.render()
        assert "max relative error" in text


class TestCheckNumerics:
    def test_flags_nan_with_op_name(self, fresh_graph):
        x = ops.placeholder((2,), name="x")
        bad = ops.log(x, name="log_op")
        session = Session(fresh_graph, seed=0)
        with pytest.raises(ExecutionError, match="log_op.*NaN"), \
                np.errstate(invalid="ignore"):
            session.run(bad, feed_dict={x: np.array([-1.0, 1.0],
                                                    np.float32)},
                        check_numerics=True)

    def test_flags_inf(self, fresh_graph):
        x = ops.placeholder((2,), name="x")
        bad = ops.divide(1.0, x, name="div_op")
        session = Session(fresh_graph, seed=0)
        with pytest.raises(ExecutionError, match="Inf"), \
                np.errstate(divide="ignore"):
            session.run(bad, feed_dict={x: np.array([0.0, 1.0],
                                                    np.float32)},
                        check_numerics=True)

    def test_clean_run_unaffected(self, fresh_graph):
        x = ops.constant(np.ones(4, dtype=np.float32))
        out = ops.reduce_sum(ops.exp(x))
        session = Session(fresh_graph, seed=0)
        value = session.run(out, check_numerics=True)
        assert np.isfinite(value)

    def test_off_by_default(self, fresh_graph):
        x = ops.placeholder((2,), name="x")
        bad = ops.log(x)
        session = Session(fresh_graph, seed=0)
        with np.errstate(invalid="ignore"):
            out = session.run(bad, feed_dict={x: np.array([-1.0, 1.0],
                                                          np.float32)})
        assert np.isnan(out[0])


class TestTopK:
    def test_values_and_indices(self, session):
        x = ops.constant(np.array([[1.0, 5.0, 3.0, 2.0]], dtype=np.float32))
        values, indices = ops.top_k(x, k=2)
        v, i = session.run([values, indices])
        np.testing.assert_array_equal(v, [[5.0, 3.0]])
        np.testing.assert_array_equal(i, [[1, 2]])

    def test_k_out_of_range_rejected(self):
        from repro.framework.errors import ShapeError
        x = ops.constant(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            ops.top_k(x, k=4)

    def test_batched(self, session, rng):
        x = rng.standard_normal((5, 8)).astype(np.float32)
        values, _ = ops.top_k(ops.constant(x), k=3)
        out = session.run(values)
        expected = np.sort(x, axis=-1)[:, ::-1][:, :3]
        np.testing.assert_allclose(out, expected)

    def test_classifier_reports_top5(self):
        from repro import workloads
        model = workloads.create("alexnet", config="tiny", seed=0)
        metrics = model.evaluate(batches=1)
        assert "top5_accuracy" in metrics
        assert metrics["top5_accuracy"] >= metrics["accuracy"]
