"""Tests for the session executor: feeds, state, pruning, tracing."""

import numpy as np
import pytest

from repro.framework import ops
from repro.framework.errors import ExecutionError, FeedError
from repro.framework.graph import Graph, get_default_graph
from repro.framework.session import Session
from repro.profiling.tracer import Tracer


class TestFetching:
    def test_single_fetch_returns_array(self, session):
        out = session.run(ops.constant(np.ones(3, dtype=np.float32)))
        np.testing.assert_array_equal(out, np.ones(3))

    def test_list_fetch_returns_list(self, session):
        a = ops.constant(1.0)
        b = ops.constant(2.0)
        out = session.run([a, b])
        assert isinstance(out, list) and len(out) == 2

    def test_fetching_intermediate_and_final(self, session):
        x = ops.constant(np.array([1.0, 2.0], dtype=np.float32))
        mid = ops.multiply(x, 2.0)
        final = ops.reduce_sum(mid)
        mid_val, final_val = session.run([mid, final])
        np.testing.assert_array_equal(mid_val, [2.0, 4.0])
        assert final_val == 6.0

    def test_unneeded_placeholder_not_required(self, session):
        used = ops.placeholder((2,), name="used")
        ops.placeholder((2,), name="unused")
        out = session.run(ops.reduce_sum(used),
                          feed_dict={used: np.ones(2, np.float32)})
        assert out == 2.0


class TestFeeds:
    def test_missing_placeholder_raises(self, session):
        x = ops.placeholder((2,), name="x")
        with pytest.raises(FeedError, match="was not fed"):
            session.run(ops.reduce_sum(x))

    def test_wrong_shape_feed_raises(self, session):
        x = ops.placeholder((2,), name="x")
        with pytest.raises(FeedError, match="shape"):
            session.run(ops.reduce_sum(x),
                        feed_dict={x: np.ones(3, np.float32)})

    def test_feeding_non_placeholder_raises(self, session):
        c = ops.constant(np.ones(2, dtype=np.float32))
        with pytest.raises(FeedError, match="placeholders"):
            session.run(c, feed_dict={c: np.zeros(2, np.float32)})

    def test_feed_value_cast_to_placeholder_dtype(self, session):
        x = ops.placeholder((2,), name="x")
        out = session.run(ops.multiply(x, 2.0),
                          feed_dict={x: [1, 2]})
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, [2.0, 4.0])


class TestVariables:
    def test_lazy_initialization(self, session):
        v = ops.variable(np.full(3, 7.0, dtype=np.float32))
        np.testing.assert_array_equal(session.run(v), [7.0, 7.0, 7.0])

    def test_assign_persists_across_runs(self, session):
        v = ops.variable(np.zeros(2, dtype=np.float32))
        update = ops.assign(v, ops.constant(np.ones(2, dtype=np.float32)))
        session.run(update)
        np.testing.assert_array_equal(session.run(v), [1.0, 1.0])

    def test_sessions_have_independent_state(self, fresh_graph):
        v = ops.variable(np.zeros(2, dtype=np.float32))
        update = ops.assign(v, ops.constant(np.ones(2, dtype=np.float32)))
        first = Session(fresh_graph, seed=0)
        second = Session(fresh_graph, seed=0)
        first.run(update)
        np.testing.assert_array_equal(first.run(v), [1.0, 1.0])
        np.testing.assert_array_equal(second.run(v), [0.0, 0.0])

    def test_set_and_get_variable(self, session):
        v = ops.variable(np.zeros(2, dtype=np.float32))
        session.set_variable(v, np.array([3.0, 4.0], dtype=np.float32))
        np.testing.assert_array_equal(session.variable_value(v), [3.0, 4.0])

    def test_set_variable_shape_checked(self, session):
        v = ops.variable(np.zeros(2, dtype=np.float32))
        with pytest.raises(FeedError, match="shape"):
            session.set_variable(v, np.zeros(3, dtype=np.float32))

    def test_set_variable_on_non_variable_raises(self, session):
        c = ops.constant(np.zeros(2, dtype=np.float32))
        with pytest.raises(FeedError, match="not a variable"):
            session.set_variable(c, np.zeros(2, dtype=np.float32))


class TestRandomness:
    def test_same_seed_reproduces(self, fresh_graph):
        sample = ops.random_normal((4, 4))
        a = Session(fresh_graph, seed=42).run(sample)
        b = Session(fresh_graph, seed=42).run(sample)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, fresh_graph):
        sample = ops.random_normal((4, 4))
        a = Session(fresh_graph, seed=1).run(sample)
        b = Session(fresh_graph, seed=2).run(sample)
        assert not np.array_equal(a, b)

    def test_sample_shared_within_run_fresh_across_runs(self, session):
        noise = ops.random_normal((8,))
        doubled = ops.multiply(noise, 2.0)
        noise_val, doubled_val = session.run([noise, doubled])
        np.testing.assert_allclose(doubled_val, 2 * noise_val, rtol=1e-6)
        second = session.run(noise)
        assert not np.array_equal(noise_val, second)


class TestErrors:
    def test_compute_failure_names_the_op(self, session):
        x = ops.placeholder((2, 2), name="x")
        # Gather with out-of-range indices fails at run time.
        bad = ops.gather(x, ops.constant(np.array([5], dtype=np.int32)))
        with pytest.raises(ExecutionError, match="Gather"):
            session.run(bad, feed_dict={x: np.zeros((2, 2), np.float32)})

    def test_chains_the_original_exception(self, session):
        x = ops.placeholder((2, 2), name="x")
        bad = ops.gather(x, ops.constant(np.array([5], dtype=np.int32)))
        with pytest.raises(ExecutionError) as info:
            session.run(bad, feed_dict={x: np.zeros((2, 2), np.float32)})
        # The kernel's own exception rides along as __cause__ so the
        # full traceback points at the real failure, not the wrapper.
        assert isinstance(info.value.__cause__, Exception)
        assert info.value.__cause__ is not info.value
        assert not info.value.transient

    def test_reports_input_shapes_of_failing_op(self, session):
        x = ops.placeholder((2, 3), name="x")
        bad = ops.gather(x, ops.constant(np.array([9], dtype=np.int32)))
        with pytest.raises(ExecutionError) as info:
            session.run(bad, feed_dict={x: np.zeros((2, 3), np.float32)})
        assert info.value.input_shapes == ((2, 3), (1,))
        assert "input shapes: (2, 3), (1,)" in str(info.value)


class TestCheckNumericsFirstOffender:
    def test_names_the_first_bad_op_not_a_downstream_one(self, session):
        """With two non-finite producers in topological order, the error
        must name the *earlier* one — that is where divergence started."""
        x = ops.placeholder((2,), name="x")
        first = ops.log(x, name="first_bad")        # NaN for x < 0
        second = ops.log(first, name="second_bad")  # NaN of NaN
        out = ops.reduce_sum(second, name="total")
        with pytest.raises(ExecutionError, match="first_bad") as info, \
                np.errstate(invalid="ignore"):
            session.run(out, feed_dict={x: np.array([-1.0, 1.0],
                                                    np.float32)},
                        check_numerics=True)
        assert "second_bad" not in str(info.value)
        assert info.value.op_name == "first_bad"

    def test_clean_prefix_executes_before_the_guard_fires(self, session):
        """Ops upstream of the offender run normally; the guard aborts
        the step at the first non-finite output."""
        x = ops.placeholder((2,), name="x")
        shifted = ops.add(x, 1.0, name="clean_shift")
        bad = ops.log(ops.subtract(shifted, 5.0), name="bad_log")
        tracer = Tracer()
        with pytest.raises(ExecutionError, match="bad_log"), \
                np.errstate(invalid="ignore"):
            session.run(bad, feed_dict={x: np.array([0.0, 1.0],
                                                    np.float32)},
                        tracer=tracer, check_numerics=True)
        executed = [r.op.name for r in tracer.records]
        assert "clean_shift" in executed
        assert executed[-1] == "bad_log"


class TestSnapshotRestore:
    def test_roundtrip_restores_variables_and_rng(self, session):
        w = ops.variable(np.zeros(3, dtype=np.float32), name="w")
        noise = ops.random_normal((3,))
        snapshot = session.state_snapshot()
        session.set_variable(w, np.full(3, 9.0, dtype=np.float32))
        first_draw = session.run(noise)
        session.restore_snapshot(snapshot)
        np.testing.assert_array_equal(session.variable_value(w),
                                      [0.0, 0.0, 0.0])
        # The RNG stream rewinds too: the same draw repeats exactly.
        np.testing.assert_array_equal(session.run(noise), first_draw)

    def test_snapshot_is_isolated_from_later_mutation(self, session):
        w = ops.variable(np.ones(2, dtype=np.float32), name="w")
        session.run(w)  # materialise the variable in session state
        snapshot = session.state_snapshot()
        session.set_variable(w, np.full(2, 5.0, dtype=np.float32))
        np.testing.assert_array_equal(snapshot.variables[id(w.op)],
                                      [1.0, 1.0])


class TestTracing:
    def test_tracer_records_each_op_per_step(self, session):
        x = ops.constant(np.ones((4, 4), dtype=np.float32))
        out = ops.reduce_sum(ops.multiply(x, x))
        tracer = Tracer()
        session.run(out, tracer=tracer)
        session.run(out, tracer=tracer)
        assert tracer.num_steps == 2
        types = {r.op_type for r in tracer.records}
        assert {"Mul", "Sum"} <= types
        step0 = tracer.records_for_step(0)
        step1 = tracer.records_for_step(1)
        assert len(step0) == len(step1) > 0

    def test_step_totals_bound_op_times(self, session):
        x = ops.constant(np.ones((64, 64), dtype=np.float32))
        out = ops.matmul(x, x)
        tracer = Tracer()
        session.run(out, tracer=tracer)
        assert tracer.step_totals[0] >= tracer.total_op_seconds() > 0.0

    def test_overhead_fraction_in_unit_interval(self, session):
        x = ops.constant(np.ones((32, 32), dtype=np.float32))
        out = ops.matmul(x, x)
        tracer = Tracer()
        for _ in range(3):
            session.run(out, tracer=tracer)
        assert 0.0 <= tracer.framework_overhead_fraction() < 1.0

    def test_clear_resets(self, session):
        out = ops.reduce_sum(ops.constant(np.ones(4, dtype=np.float32)))
        tracer = Tracer()
        session.run(out, tracer=tracer)
        tracer.clear()
        assert tracer.num_steps == 0
        assert tracer.records == []


class TestPlanCache:
    def test_repeat_runs_reuse_the_plan(self, session):
        total = ops.add(ops.constant(1.0), ops.constant(2.0))
        session.run(total)
        session.run(total)
        session.run(total)
        assert session.plan_compiles == 1
        assert session.plan_cache_hits == 2

    def test_graph_growth_invalidates_the_plan(self, fresh_graph):
        x = ops.variable(np.zeros(3, dtype=np.float32), name="w")
        y = ops.add(x, 1.0)
        session = Session(fresh_graph, seed=0)
        first = session.run(y)
        # Growing the graph must trigger recompilation on the next run,
        # even though the fetch is unchanged.
        ops.constant(5.0)
        second = session.run(y)
        np.testing.assert_array_equal(first, second)
        assert session.plan_compiles == 2

    def test_same_name_in_new_graph_is_rejected(self, fresh_graph):
        """Regression: the old cache was keyed only by fetch *names*.

        Running a same-named fetch from a different graph silently
        returned the first graph's cached value. It must now raise.
        """
        from repro.framework.errors import GraphError
        first = ops.constant(1.0)  # named "Const" in fresh_graph
        session = Session(fresh_graph, seed=0)
        assert float(session.run(first)) == 1.0
        other = Graph()
        with other.as_default():
            impostor = ops.constant(2.0)  # also named "Const"
        assert impostor.name == first.name
        with pytest.raises(GraphError):
            session.run(impostor)

    def test_compile_is_inspectable_without_running(self, session):
        total = ops.add(ops.constant(1.0), ops.constant(2.0))
        plan = session.compile(total)
        assert plan.num_steps == 3
        assert session.plan_compiles == 1
        assert session.compile_log[-1]["num_steps"] == 3
        # run() reuses what compile() built
        session.run(total)
        assert session.plan_compiles == 1


class TestValidatedFastPath:
    def test_steady_state_skips_asarray_normalization(self, session):
        """After first-run validation the executor must pass kernel
        outputs through without an np.asarray round trip."""
        a = ops.constant(np.ones((2, 2), dtype=np.float32))
        b = ops.add(a, a)
        plan = session.compile(b)
        assert all(not step.validated for step in plan.steps)
        session.run(b)
        assert all(step.validated for step in plan.steps)

        seen = []
        add_step = next(s for s in plan.steps if s.op is b.op)
        original_compute = type(b.op).compute

        class Canary(np.ndarray):
            pass

        def spying_compute(self, inputs, ctx):
            outputs = original_compute(self, inputs, ctx)
            tagged = tuple(np.asarray(o).view(Canary) for o in outputs)
            seen.append(tagged)
            return tagged

        type(b.op).compute = spying_compute
        try:
            result = session.run(b)
        finally:
            type(b.op).compute = original_compute
        # The exact object the kernel returned must be what run() hands
        # back: no asarray copy, no view-stripping, on the hot path.
        assert result is seen[0][0]
        assert isinstance(result, Canary)
        assert add_step.validated

    def test_check_numerics_still_names_first_offender_when_validated(
            self, session):
        x = ops.constant(np.zeros(3, dtype=np.float32), name="zeros")
        bad = ops.log(x, name="bad_log")  # -inf
        worse = ops.multiply(bad, 0.0, name="worse")  # nan downstream
        # Validate every step with the guard off...
        with np.errstate(divide="ignore", invalid="ignore"):
            session.run(worse)
        # ...then the guard must still catch the first offender on the
        # validated fast path.
        with pytest.raises(ExecutionError, match="bad_log"), \
                np.errstate(divide="ignore"):
            session.run(worse, check_numerics=True)
