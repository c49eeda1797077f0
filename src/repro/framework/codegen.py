"""The codegen backend: plan regions become generated numpy kernels.

The interpreter dispatches one :class:`CompiledStep` per scheduled op —
a Python-loop iteration, two injector probes, a tracer probe, and a
tuple build per step. Section V-A's framework-overhead measurement shows
that on fine-grained graphs (seq2seq's thousands of unrolled ops) that
dispatch costs up to 22% of wall time. This module removes it the way
deferred-execution frameworks do: it partitions a compiled schedule into
*regions* of consecutive pure compute steps and emits one Python
function per region — elementwise/activation chains collapsed into
single numpy expressions, convolutions inlined as calls to the one
im2col+GEMM kernel ``Conv2D.compute`` runs, the static schedule unrolled
into straight-line code — compiled once with ``exec`` and cached on the
plan.

Correctness contract (the same bar the optimization passes meet):

* **Bit-for-bit numerics.** Inline expression templates exist only for
  ops whose kernels are verbatim numpy expressions (``Add`` is
  ``a + b``); every other op is called through its own bound
  ``compute`` inside the kernel, so a generated region performs exactly
  the float operations, in exactly the order, the interpreter would.
* **Provenance survives.** Every generated line maps back to its
  :class:`CompiledStep` (``CompiledRegion.line_steps``), so a failure
  inside a kernel is blamed on the op the user wrote, guardrails name
  real ops, and the healing ladder's quarantine logic sees the same
  ``origin_pass`` chain it sees under interpretation.
* **De-optimization is local.** When a kernel raises, the session marks
  just that region ``deoptimized`` and subsequent runs execute its
  member steps op-by-op; other regions keep their kernels. Safe mode
  compiles structural interpreter plans, which disables codegen
  entirely.

Known, documented divergences from op-at-a-time interpretation: fault
injector hooks fire at statement boundaries (an op collapsed into a
consumer's expression gets its ``before_op`` probe at the consumer's
statement, and no ``after_op`` probe); guardrails screen the values a
region materializes, not collapsed intermediates; the tracer receives
one record per region, attributed to a synthetic ``CodegenRegion`` op
whose work estimate is the sum of its members'; and live-byte
accounting samples at region boundaries, so the measured peak can sit
below the interpreter's planned peak.
"""

from __future__ import annotations

import numpy as np

from .cost_model import WorkEstimate
from .graph import Operation, OpClass
from .memory import K_COMPUTE, K_CONST, K_REGION
from .ops.nn_ops import conv2d_forward
from .rewrite import _is_pure

#: most member steps a single generated kernel may cover (keeps the
#: exec-compiled functions a debuggable size on huge unrolled graphs)
MAX_REGION_STEPS = 512
#: fewest compute steps worth a kernel; below this, interpreter
#: dispatch is already negligible
MIN_REGION_COMPUTE = 2
#: longest inline subexpression; chains past this are cut with a local
MAX_EXPR_CHARS = 120


class RegionOp(Operation):
    """Synthetic op standing in for one generated region.

    Lives in the plan's scratch graph. The tracer attributes the whole
    kernel's wall time to this op; its work estimate is the sum of the
    member ops', so roofline/efficiency analyses stay meaningful.
    """

    type_name = "CodegenRegion"
    op_class = OpClass.CONTROL

    def compute(self, inputs, ctx):  # pragma: no cover - never dispatched
        raise NotImplementedError("regions execute their generated kernel")

    def _output_specs(self):
        return []

    def _estimate_work(self):
        total = WorkEstimate.zero()
        for op in getattr(self, "member_ops", ()):
            total = total + op.work()
        return total


class CompiledRegion:
    """One generated kernel covering a run of consecutive plan steps.

    Duck-types the parts of :class:`CompiledStep` the executor looks at
    (``kind``, ``op``, ``free_slots``) and adds the kernel itself.

    Attributes:
        steps: the member CompiledSteps, in schedule order. These stay
            fully executable — de-optimization just iterates them.
        fn: the generated function, ``fn(V, ctx, H)`` where ``V`` is the
            executor's slot table, ``ctx`` the RunContext, and ``H`` the
            fault injector (or None).
        source: the generated Python source, for ``--dump-kernels``.
        outputs: ``(slot, tensor, member_step)`` for every value the
            region materializes into ``V`` (consumed downstream or
            fetched); the producing member carries the blame links.
        free_slots: slots produced *outside* the region whose last use
            is inside it; the executor drops them after the region runs.
        line_steps: generated source line number -> member CompiledStep,
            the provenance map used to blame kernel failures.
        collapsed: member ops inlined into a consumer's expression.
        deoptimized: once True, the session interprets the member steps
            op-by-op instead of calling ``fn``.
    """

    kind = K_REGION

    __slots__ = ("op", "steps", "fn", "source", "filename", "label",
                 "output_slots", "free_slots", "outputs", "line_steps",
                 "collapsed", "deoptimized", "validated")

    def __init__(self, op, steps, fn, source, filename, label, outputs,
                 free_slots, line_steps, collapsed):
        self.op = op
        self.steps = steps
        self.fn = fn
        self.source = source
        self.filename = filename
        self.label = label
        self.outputs = outputs
        self.output_slots = tuple(slot for slot, _, _ in outputs)
        self.free_slots = free_slots
        self.line_steps = line_steps
        self.collapsed = collapsed
        self.deoptimized = False
        self.validated = False

    def __repr__(self) -> str:
        return (f"<CompiledRegion {self.label} steps={len(self.steps)} "
                f"collapsed={self.collapsed} "
                f"deoptimized={self.deoptimized}>")


def blame_step(region: CompiledRegion, exc: BaseException):
    """The member step a kernel exception is blamed on (or None).

    Walks the traceback to the *deepest* frame inside the region's
    generated file and looks its line up in the provenance map.
    """
    step = None
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == region.filename:
            step = region.line_steps.get(tb.tb_lineno, step)
        tb = tb.tb_next
    return step


# -- inline expression templates --------------------------------------------
#
# An op may appear here only if its compute() body is *verbatim* the
# produced expression — same numpy calls, same order — so collapsing it
# into a consumer cannot perturb a single bit. Anything else (Sigmoid's
# two-branch masked kernel, reductions, data movement) is invoked
# through its own bound compute inside the kernel instead.


def _fmt(template: str):
    return lambda op, args: template.format(*args)


def _matmul_expr(op, args):
    a = args[0] + (".T" if op.attrs["transpose_a"] else "")
    b = args[1] + (".T" if op.attrs["transpose_b"] else "")
    return f"({a} @ {b})"


def _conv2d_expr(op, args):
    return (f"_conv2d({args[0]}, {args[1]}, {tuple(op.attrs['strides'])!r}, "
            f"{tuple(op.attrs['pads'])!r}, {tuple(op.output.shape)!r})")


INLINE_TEMPLATES = {
    "Add": _fmt("({0} + {1})"),
    "Sub": _fmt("({0} - {1})"),
    "Mul": _fmt("({0} * {1})"),
    "Div": _fmt("({0} / {1})"),
    "Pow": _fmt("np.power({0}, {1})"),
    "Maximum": _fmt("np.maximum({0}, {1})"),
    "Minimum": _fmt("np.minimum({0}, {1})"),
    "Neg": _fmt("(-{0})"),
    "Exp": _fmt("np.exp({0})"),
    "Log": _fmt("np.log({0})"),
    "Sqrt": _fmt("np.sqrt({0})"),
    "Square": _fmt("np.square({0})"),
    "Abs": _fmt("np.abs({0})"),
    "Sign": _fmt("np.sign({0})"),
    "Tanh": _fmt("np.tanh({0})"),
    "Relu": _fmt("np.maximum({0}, 0.0)"),
    "ReluGrad": _fmt("({0} * ({1} > 0.0))"),
    "Equal": _fmt("(({0} == {1}).astype(np.float32))"),
    "Greater": _fmt("(({0} > {1}).astype(np.float32))"),
    "GreaterEqual": _fmt("(({0} >= {1}).astype(np.float32))"),
    "Less": _fmt("(({0} < {1}).astype(np.float32))"),
    "LessEqual": _fmt("(({0} <= {1}).astype(np.float32))"),
    "BiasAdd": _fmt("({0} + {1})"),
    "MatMul": _matmul_expr,
    "Conv2D": _conv2d_expr,
}


def _region_eligible(step) -> bool:
    """Can this step live inside a generated kernel?

    Pure compute and plan constants only: placeholders need the feed
    path, and impure ops (state writes, optimizer updates, RNG draws,
    control) must keep their exact interpreter-visible ordering and
    per-op hooks.
    """
    if step.kind == K_CONST:
        return True
    return step.kind == K_COMPUTE and _is_pure(step.op)


def _emit_region(members, pinned, plan_graph, index) -> CompiledRegion:
    """Generate, compile, and wrap one region kernel."""
    produced: dict[int, object] = {}
    member_index: dict[int, int] = {}
    for k, step in enumerate(members):
        member_index[id(step)] = k
        for slot in step.output_slots:
            produced[slot] = step
    freed_inside: set[int] = set()
    refs: dict[int, int] = {}
    for step in members:
        freed_inside.update(step.free_slots)
        for slot in step.input_slots:
            refs[slot] = refs.get(slot, 0) + 1
    internal = {slot for slot in produced
                if slot in freed_inside and slot not in pinned}
    free_slots = tuple(sorted(slot for slot in freed_inside
                              if slot not in produced))

    lines: list[str] = []
    line_steps: dict[int, object] = {}
    namespace: dict[str, object] = {"np": np, "_conv2d": conv2d_forward,
                                    "OPS": [step.op for step in members]}
    pending_expr: dict[int, str] = {}
    pending_hooks: dict[int, list[int]] = {}
    names: dict[int, str] = {}
    collapsed = 0
    outputs: list[tuple] = []

    def emit(text: str, step) -> None:
        lines.append("    " + text)
        # +1 for the def line, +1 because linenos are 1-based
        line_steps[len(lines) + 1] = step

    def take(slot: int) -> tuple[str, list[int]]:
        """The expression for a slot plus any pending hook probes."""
        if slot in pending_expr:
            return pending_expr.pop(slot), pending_hooks.pop(slot)
        if slot in names:
            return names[slot], []
        return f"V[{slot}]", []

    for k, step in enumerate(members):
        op = step.op
        if step.kind == K_CONST:
            name = f"C{step.output_slots[0]}"
            namespace[name] = step.const_value
            names[step.output_slots[0]] = name
            if step.output_slots[0] not in internal:
                emit(f"V[{step.output_slots[0]}] = {name}", step)
                outputs.append((step.output_slots[0], op.outputs[0], step))
            continue

        args: list[str] = []
        hooks: list[int] = []
        for slot in step.input_slots:
            expr, chain = take(slot)
            args.append(expr)
            hooks.extend(chain)
        hooks.append(k)
        template = INLINE_TEMPLATES.get(op.type_name)
        single = len(step.output_slots) == 1

        if template is not None and single:
            text = template(op, args)
            slot = step.output_slots[0]
            if (slot in internal and refs.get(slot, 0) == 1
                    and len(text) <= MAX_EXPR_CHARS):
                # Collapse into the consumer's expression; the before_op
                # probes ride along to the consuming statement.
                pending_expr[slot] = text
                pending_hooks[slot] = hooks
                collapsed += 1
                continue
            for h in sorted(hooks):
                emit(f"if H is not None: H.before_op(OPS[{h}])",
                     members[h])
            emit(f"t{slot} = {text}", step)
            emit(f"if H is not None: "
                 f"t{slot} = H.after_op(OPS[{k}], (t{slot},))[0]", step)
            names[slot] = f"t{slot}"
        else:
            for h in sorted(hooks):
                emit(f"if H is not None: H.before_op(OPS[{h}])",
                     members[h])
            namespace[f"K{k}"] = op.compute
            arg_list = ", ".join(args) + ("," if len(args) == 1 else "")
            if single:
                slot = step.output_slots[0]
                emit(f"t{slot} = K{k}(({arg_list}), ctx)[0]", step)
                emit(f"if H is not None: "
                     f"t{slot} = H.after_op(OPS[{k}], (t{slot},))[0]",
                     step)
                names[slot] = f"t{slot}"
            else:
                emit(f"_t = K{k}(({arg_list}), ctx)", step)
                emit(f"if H is not None: _t = H.after_op(OPS[{k}], _t)",
                     step)
                for i, slot in enumerate(step.output_slots):
                    emit(f"t{slot} = _t[{i}]", step)
                    names[slot] = f"t{slot}"
        for i, slot in enumerate(step.output_slots):
            if slot not in internal:
                emit(f"V[{slot}] = {names[slot]}", step)
                outputs.append((slot, op.outputs[i], step))

    label = f"region{index}"
    filename = f"<codegen:{label}>"
    first, last = members[0].op.name, members[-1].op.name
    source = (f"def __region_kernel__(V, ctx, H):\n"
              f"    # {label}: steps {first!r} .. {last!r}\n"
              + "\n".join(lines) + "\n")
    # The comment line shifted every body line down by one.
    line_steps = {lineno + 1: step for lineno, step in line_steps.items()}
    code = compile(source, filename, "exec")
    exec(code, namespace)
    fn = namespace["__region_kernel__"]

    region_op = RegionOp([], name=f"codegen/{label}", graph=plan_graph)
    region_op.member_ops = tuple(
        step.op for step in members if step.kind == K_COMPUTE)
    return CompiledRegion(
        op=region_op, steps=list(members), fn=fn, source=source,
        filename=filename, label=label, outputs=tuple(outputs),
        free_slots=free_slots, line_steps=line_steps, collapsed=collapsed)


def build_program(steps, pinned, plan_graph) -> list:
    """Partition a compiled schedule into a codegen program.

    Returns a mixed list of the original :class:`CompiledStep` objects
    and :class:`CompiledRegion` wrappers covering maximal runs of
    eligible steps. The step list itself is untouched — regions hold
    references, and de-optimization falls back to them.
    """
    program: list = []
    run: list = []
    index = 0

    def flush() -> None:
        nonlocal index
        while run:
            chunk, rest = run[:MAX_REGION_STEPS], run[MAX_REGION_STEPS:]
            compute = sum(1 for step in chunk if step.kind == K_COMPUTE)
            if compute >= MIN_REGION_COMPUTE:
                program.append(
                    _emit_region(chunk, pinned, plan_graph, index))
                index += 1
            else:
                program.extend(chunk)
            run[:] = rest

    for step in steps:
        if _region_eligible(step):
            run.append(step)
        else:
            flush()
            program.append(step)
    flush()
    return program
