"""Tests for the codegen backend: generated region kernels.

Covers the backend axis on :class:`PlanOptions` and the plan cache,
region formation and provenance maps, bit-identity with the plan
interpreter, the de-optimization path (a failing kernel demotes only its
own region, with blame pointing at the member op), guardrail screening
over region outputs, and the healing ladder's codegen quarantine.
"""

import re

import numpy as np
import pytest

from repro.framework import ops
from repro.framework.codegen import (CompiledRegion, INLINE_TEMPLATES,
                                     blame_step, build_program)
from repro.framework.compiler import (PassQuarantine, PlanOptions,
                                      compile_plan)
from repro.framework.errors import ExecutionError
from repro.framework.faults import FaultPlan, FaultSpec
from repro.framework.graph import get_default_graph
from repro.framework.memory import K_REGION
from repro.framework.session import GuardrailPolicy, HealingPolicy, Session


def _codegen(level="full"):
    from dataclasses import replace
    return replace(PlanOptions.coerce(level), backend="codegen")


class TestBackendAxis:
    def test_coerce_and_describe(self):
        assert PlanOptions.coerce("codegen").backend == "codegen"
        assert PlanOptions.coerce("codegen").describe() == "full+codegen"
        assert PlanOptions.coerce("full+codegen").describe() \
            == "full+codegen"
        structural = PlanOptions.coerce("structural+codegen")
        assert structural.backend == "codegen"
        assert structural.describe() == "structural+codegen"
        assert PlanOptions.full().describe() == "full"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            PlanOptions(backend="llvm")

    def test_quarantine_disables_codegen(self):
        quarantine = PassQuarantine()
        quarantine.quarantine("codegen", reason="test")
        filtered = quarantine.filter(_codegen())
        assert filtered.backend == "interp"
        assert filtered.fuse_lstm  # pass flags untouched

    def test_quarantine_rejects_unknown_pass(self):
        with pytest.raises(ValueError):
            PassQuarantine().quarantine("jit", reason="test")

    def test_session_backend_kwarg(self, fresh_graph):
        session = Session(fresh_graph, optimize="full", backend="codegen")
        assert session.options.describe() == "full+codegen"
        assert session.effective_options().backend == "codegen"

    def test_fork_inherits_backend(self, fresh_graph):
        ops.constant(1.0)
        session = Session(fresh_graph, optimize="full", backend="codegen")
        assert session.fork(seed=3).options.backend == "codegen"


def _chain_graph():
    """A plan with an elementwise chain worth a region."""
    x = ops.placeholder((4, 3), name="x")
    w = ops.variable(np.ones((3, 3), dtype=np.float32) * 0.5, name="w")
    y = ops.tanh(ops.matmul(x, w) + 1.0)
    z = ops.relu(y * 2.0)
    return x, z


class TestRegionFormation:
    def test_regions_cover_pure_chains(self, fresh_graph):
        x, z = _chain_graph()
        plan = compile_plan(get_default_graph(), [z], _codegen())
        assert plan.program is not None
        regions = plan.regions
        assert regions, "elementwise chain should form a region"
        covered = sum(len(region.steps) for region in regions)
        assert covered >= 4
        assert sum(region.collapsed for region in regions) >= 1
        # Placeholders and variables stay outside every region.
        for region in regions:
            for member in region.steps:
                assert member.op.type_name not in ("Placeholder",
                                                   "Variable")

    def test_interp_backend_has_no_program(self, fresh_graph):
        x, z = _chain_graph()
        plan = compile_plan(get_default_graph(), [z], "full")
        assert plan.program is None
        assert plan.regions == ()
        assert plan.kernel_sources() == []

    def test_codegen_pass_record_appended(self, fresh_graph):
        x, z = _chain_graph()
        plan = compile_plan(get_default_graph(), [z], _codegen())
        names = [record.name for record in plan.pass_records]
        assert names[:-1] == ["prune", "identity", "fold", "cse", "fuse",
                              "dce", "schedule"]
        assert names[-1] == "codegen"

    def test_kernel_sources_expose_generated_code(self, fresh_graph):
        x, z = _chain_graph()
        plan = compile_plan(get_default_graph(), [z], _codegen())
        sources = plan.kernel_sources()
        assert sources
        label, source = sources[0]
        assert source.startswith("def __region_kernel__(V, ctx, H):")
        assert "np.tanh" in source

    def test_provenance_map_names_member_steps(self, fresh_graph):
        x, z = _chain_graph()
        plan = compile_plan(get_default_graph(), [z], _codegen())
        region = plan.regions[0]
        members = set(region.steps)
        assert region.line_steps, "line->step provenance map is empty"
        for lineno, member in region.line_steps.items():
            assert member in members
            assert 1 < lineno <= len(region.source.splitlines()) + 1

    def test_impure_ops_break_regions(self, fresh_graph):
        x = ops.placeholder((2, 2), name="x")
        noisy = ops.add(x, ops.random_normal((2, 2)))
        out = ops.tanh(ops.relu(noisy) + 1.0)
        plan = compile_plan(get_default_graph(), [out], _codegen())
        for region in plan.regions:
            for member in region.steps:
                assert member.op.type_name != "RandomNormal"


class TestBitIdentity:
    def test_chain_outputs_identical(self, fresh_graph):
        x, z = _chain_graph()
        graph = get_default_graph()
        feed = np.random.default_rng(0).normal(size=(4, 3)) \
            .astype(np.float32)
        interp = Session(graph, seed=1, optimize="full")
        codegen = Session(graph, seed=1, optimize="full",
                          backend="codegen")
        a = interp.run(z, feed_dict={x: feed})
        b = codegen.run(z, feed_dict={x: feed})
        np.testing.assert_array_equal(a, b)

    def test_conv_network_identical(self, fresh_graph):
        rng = np.random.default_rng(0)
        x = ops.placeholder((2, 8, 8, 3), name="x")
        filt = ops.variable(rng.normal(size=(3, 3, 3, 4))
                            .astype(np.float32), name="f")
        y = ops.relu(ops.conv2d(x, filt, strides=(1, 1), padding="SAME"))
        out = ops.reduce_mean(y * y)
        graph = get_default_graph()
        feed = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
        a = Session(graph, seed=1, optimize="full").run(
            out, feed_dict={x: feed})
        codegen = Session(graph, seed=1, optimize="full", backend="codegen")
        b = codegen.run(out, feed_dict={x: feed})
        np.testing.assert_array_equal(a, b)
        # The region inlines the convolution as a call to the kernel
        # Conv2D.compute runs, not as a second spelling of its body.
        assert any("_conv2d(" in region.source
                   for region in codegen.compile(out).regions)


class TestPlanCacheBackendAxis:
    def test_backend_is_a_cache_axis(self, fresh_graph):
        x, z = _chain_graph()
        graph = get_default_graph()
        feed = {x: np.ones((4, 3), dtype=np.float32)}
        session = Session(graph, seed=1, optimize="full",
                          backend="codegen")
        first = session.run(z, feed_dict=feed)
        assert session.compile(z).program is not None
        # Flip the backend: the cached codegen plan must not be served.
        from dataclasses import replace
        session.options = replace(session.options, backend="interp")
        second = session.run(z, feed_dict=feed)
        assert session.compile(z).program is None
        assert session.plan_compiles == 2
        np.testing.assert_array_equal(first, second)
        # Flip back: the original codegen plan is reused, not rebuilt.
        session.options = replace(session.options, backend="codegen")
        session.run(z, feed_dict=feed)
        assert session.plan_compiles == 2

    def test_safe_mode_disables_codegen(self, fresh_graph):
        x, z = _chain_graph()
        session = Session(get_default_graph(), seed=1, optimize="full",
                          backend="codegen")
        session.safe_mode = True
        assert session.effective_options().backend == "interp"
        session.run(z, feed_dict={x: np.ones((4, 3), dtype=np.float32)})
        plan = session.compile(z)
        assert plan.program is None
        assert plan.options.describe() == "structural"

    def test_healing_tiers_never_serve_stale_kernels(self, fresh_graph):
        x, z = _chain_graph()
        graph = get_default_graph()
        feed = {x: np.ones((4, 3), dtype=np.float32)}
        session = Session(graph, seed=1, optimize="full",
                          backend="codegen")
        full = session.run(z, feed_dict=feed)
        session.quarantine.quarantine("codegen", reason="test",
                                      sticky=False)
        demoted = session.run(z, feed_dict=feed)
        assert session.compile(z).program is None
        session.quarantine.lift_soft()
        restored = session.run(z, feed_dict=feed)
        assert session.compile(z).program is not None
        np.testing.assert_array_equal(full, demoted)
        np.testing.assert_array_equal(full, restored)


class TestRegionDeoptimization:
    def _session_with_fault(self, fresh_graph):
        x, z = _chain_graph()
        graph = get_default_graph()
        session = Session(graph, seed=1, optimize="full",
                          backend="codegen")
        feed = {x: np.ones((4, 3), dtype=np.float32)}
        session.run(z, feed_dict=feed)
        plan = session.compile(z)
        region = plan.regions[0]
        target = next(step.op for step in region.steps
                      if step.op.type_name == "Tanh")
        session.fault_injector = FaultPlan(
            [FaultSpec(kind="exception",
                       name_pattern=re.escape(target.name))]).injector()
        return session, z, feed, plan, region, target

    def test_fault_demotes_only_the_failing_region(self, fresh_graph):
        session, z, feed, plan, region, target = \
            self._session_with_fault(fresh_graph)
        with pytest.raises(ExecutionError) as excinfo:
            session.run(z, feed_dict=feed)
        # Blame names the member op, not the region; origin is codegen.
        assert excinfo.value.op_name == target.name
        assert excinfo.value.origin_pass == "codegen"
        assert region.deoptimized
        assert all(not other.deoptimized for other in plan.regions
                   if other is not region)
        event = session.degradation_log[-1]
        assert event.kind == "region_deopt"
        assert event.op_name == target.name
        assert event.pass_name == "codegen"

    def test_deoptimized_region_interprets_bit_identically(
            self, fresh_graph):
        session, z, feed, plan, region, target = \
            self._session_with_fault(fresh_graph)
        with pytest.raises(ExecutionError):
            session.run(z, feed_dict=feed)
        session.fault_injector = None
        after = session.run(z, feed_dict=feed)  # region interpreted
        reference = Session(get_default_graph(), seed=1,
                            optimize="full").run(z, feed_dict=feed)
        np.testing.assert_array_equal(after, reference)

    def test_healing_ladder_quarantines_codegen(self, fresh_graph):
        session, z, feed, plan, region, target = \
            self._session_with_fault(fresh_graph)
        healer = HealingPolicy(session)
        with pytest.raises(ExecutionError) as excinfo:
            session.run(z, feed_dict=feed)
        # Repeated blame on the same op reaches quarantine_after and
        # sticky-quarantines the blamed origin pass: codegen itself.
        healer.on_failure(excinfo.value, step=0)
        healer.on_failure(excinfo.value, step=1)
        assert session.quarantine.is_quarantined("codegen")
        assert session.effective_options().backend == "interp"

    def test_demote_soft_quarantines_codegen_with_passes(
            self, fresh_graph):
        x, z = _chain_graph()
        session = Session(get_default_graph(), seed=1, optimize="full",
                          backend="codegen")
        healer = HealingPolicy(session)
        assert healer.demote(step=0, blamed=z.op.name)
        assert session.quarantine.is_quarantined("codegen")
        effective = session.effective_options()
        assert effective == PlanOptions.structural()


class TestGuardrailsOverRegions:
    def _nan_graph(self):
        x = ops.placeholder((2, 2), name="x")
        y = ops.log(x)          # NaN for negative inputs
        out = ops.add(y * 2.0, 1.0)
        return x, out

    def test_raise_policy_names_member_op(self, fresh_graph):
        x, out = self._nan_graph()
        session = Session(get_default_graph(), seed=1, optimize="full",
                          backend="codegen")
        bad = np.array([[-1.0, 1.0], [1.0, 1.0]], dtype=np.float32)
        with pytest.raises(ExecutionError) as excinfo, \
                np.errstate(invalid="ignore"):
            session.run(out, feed_dict={x: bad},
                        guardrails="raise")
        assert "NaN" in str(excinfo.value)

    def test_zero_policy_patches_region_outputs(self, fresh_graph):
        x, out = self._nan_graph()
        session = Session(get_default_graph(), seed=1, optimize="full",
                          backend="codegen")
        bad = np.array([[-1.0, 1.0], [1.0, 1.0]], dtype=np.float32)
        with np.errstate(invalid="ignore"):
            result = session.run(out, feed_dict={x: bad}, guardrails="zero")
        assert np.isfinite(result).all()
        assert any(event.kind == "guardrail"
                   for event in session.degradation_log)


class TestBlameStep:
    def test_traceback_outside_kernel_returns_none(self, fresh_graph):
        x, z = _chain_graph()
        plan = compile_plan(get_default_graph(), [z], _codegen())
        region = plan.regions[0]
        try:
            raise RuntimeError("not from a kernel")
        except RuntimeError as exc:
            assert blame_step(region, exc) is None
