"""Gradient-descent optimizers and their parameter-update operations.

Each optimizer emits one ``Apply*`` operation per variable, matching
TensorFlow's design; those nodes are what the paper's Fig. 3 taxonomy
calls the "Optimization" class (group F), and their limited intra-op
parallelism — one small, data-dependent update per parameter tensor —
is why the optimizer's share of runtime *grows* with thread count in
Fig. 6a.
"""

from __future__ import annotations

import numpy as np

from .autodiff import gradients
from .cost_model import WorkEstimate
from .errors import DifferentiationError
from .graph import Operation, OpClass, Tensor
from .ops import state_ops
from .ops.state_ops import VariableOp


def _scaled(x: np.ndarray, factor: float) -> np.ndarray:
    """``factor * x`` in a fresh array (an ndarray even when ``x`` is 0-d)."""
    return np.multiply(x, factor, out=np.empty_like(x))


class _ApplyOp(Operation):
    """Base for parameter updates; outputs the updated value.

    The kernels below reuse their own temporaries through ``out=`` and
    in-place operators. Each performs the float operations of its
    textbook formula in the same order (only commuting the operands of
    a single ``+`` or ``*``), and the arrays read from the context are
    never written to: new state replaces them through ``_store``, so
    snapshots that hold the old arrays stay valid.
    """

    op_class = OpClass.OPTIMIZATION
    _flops_per_element = 2.0

    def _output_specs(self):
        return [(self.inputs[0].shape, self.inputs[0].dtype)]

    def _estimate_work(self):
        n = self.output.size
        # Read-modify-write on the variable plus slot state; updates are
        # data-dependent, so parallelism is limited to the tensor size.
        return WorkEstimate(flops=self._flops_per_element * n,
                            bytes_moved=12.0 * n, trip_count=float(n))

    def _var(self, ctx, key: str = "variable") -> np.ndarray:
        return ctx.read_variable(self.attrs[key])

    def _store(self, ctx, value: np.ndarray, key: str = "variable") -> None:
        ctx.write_variable(self.attrs[key], value)


class ApplyGradientDescent(_ApplyOp):
    type_name = "ApplyGradientDescent"

    def compute(self, inputs, ctx):
        grad = inputs[0]
        updated = self._var(ctx) - self.attrs["learning_rate"] * grad
        self._store(ctx, updated)
        return (updated,)


class ApplyMomentum(_ApplyOp):
    type_name = "ApplyMomentum"
    _flops_per_element = 4.0

    def compute(self, inputs, ctx):
        grad = inputs[0]
        # accum = momentum * accum + grad; updated = var - lr * accum
        accum = _scaled(self._var(ctx, "accumulator"), self.attrs["momentum"])
        accum += grad
        updated = _scaled(accum, self.attrs["learning_rate"])
        np.subtract(self._var(ctx), updated, out=updated)
        self._store(ctx, accum, "accumulator")
        self._store(ctx, updated)
        return (updated,)


class ApplyRMSProp(_ApplyOp):
    """RMSProp, the optimizer the original DQN used (Fig. 6a's profile)."""

    type_name = "ApplyRMSProp"
    _flops_per_element = 8.0

    def compute(self, inputs, ctx):
        grad = inputs[0]
        decay = self.attrs["decay"]
        # mean_square = decay * mean_square + (1 - decay) * grad**2
        mean_square = _scaled(self._var(ctx, "mean_square"), decay)
        scratch = np.square(grad, out=np.empty_like(grad))
        scratch *= 1.0 - decay
        mean_square += scratch
        # momentum = momentum * slot + lr * grad / (sqrt(mean_square) + eps)
        np.sqrt(mean_square, out=scratch)
        scratch += self.attrs["epsilon"]
        momentum = _scaled(grad, self.attrs["learning_rate"])
        momentum /= scratch
        np.multiply(self._var(ctx, "momentum_slot"), self.attrs["momentum"],
                    out=scratch)
        momentum += scratch
        updated = self._var(ctx) - momentum
        self._store(ctx, mean_square, "mean_square")
        self._store(ctx, momentum, "momentum_slot")
        self._store(ctx, updated)
        return (updated,)


class ApplyAdam(_ApplyOp):
    type_name = "ApplyAdam"
    _flops_per_element = 10.0

    def compute(self, inputs, ctx):
        grad = inputs[0]
        beta1, beta2 = self.attrs["beta1"], self.attrs["beta2"]
        step = float(self._var(ctx, "step")) + 1.0
        # first = beta1 * first + (1 - beta1) * grad
        first = _scaled(self._var(ctx, "first_moment"), beta1)
        scratch = _scaled(grad, 1.0 - beta1)
        first += scratch
        # second = beta2 * second + (1 - beta2) * grad**2
        second = _scaled(self._var(ctx, "second_moment"), beta2)
        np.square(grad, out=scratch)
        scratch *= 1.0 - beta2
        second += scratch
        # Plain python float: a numpy float64 scalar here would promote
        # every float32 array it touches to float64.
        corrected_lr = float(self.attrs["learning_rate"]
                             * (1.0 - beta2 ** step) ** 0.5
                             / (1.0 - beta1 ** step))
        # updated = var - corrected_lr * first / (sqrt(second) + eps)
        np.sqrt(second, out=scratch)
        scratch += self.attrs["epsilon"]
        updated = _scaled(first, corrected_lr)
        updated /= scratch
        np.subtract(self._var(ctx), updated, out=updated)
        self._store(ctx, np.float32(step), "step")
        self._store(ctx, first, "first_moment")
        self._store(ctx, second, "second_moment")
        self._store(ctx, updated)
        return (updated,)


class Optimizer:
    """Base optimizer: pairs symbolic gradients with Apply* update nodes."""

    def minimize(self, loss: Tensor,
                 var_list: list[Tensor] | None = None) -> Tensor:
        """Build a single fetchable training-step node for ``loss``."""
        if var_list is None:
            var_list = state_ops.trainable_variables(loss.graph)
        if not var_list:
            raise DifferentiationError("no trainable variables to optimize")
        grads = gradients(loss, var_list)
        pairs = [(g, v) for g, v in zip(grads, var_list) if g is not None]
        if not pairs:
            raise DifferentiationError(
                "loss does not depend on any trainable variable")
        return self.apply_gradients(pairs)

    def apply_gradients(self, grads_and_vars: list[tuple[Tensor, Tensor]]) -> Tensor:
        updates = [self._apply_dense(grad, var)
                   for grad, var in grads_and_vars]
        return state_ops.group(*updates, name="train_step")

    def _apply_dense(self, grad: Tensor, var: Tensor) -> Tensor:
        raise NotImplementedError

    @staticmethod
    def _variable_op(var: Tensor) -> VariableOp:
        if not isinstance(var.op, VariableOp):
            raise DifferentiationError(
                f"can only optimize variables, got {var.op.type_name}")
        return var.op

    @staticmethod
    def _slot(var: Tensor, slot_name: str, shape=None) -> VariableOp:
        """Create a non-trainable accumulator shaped like ``var``."""
        shape = var.shape if shape is None else shape
        slot = state_ops.variable(np.zeros(shape, dtype=np.float32),
                                  name=f"{var.op.name}/{slot_name}",
                                  trainable=False)
        return slot.op


class GradientDescentOptimizer(Optimizer):
    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)

    def _apply_dense(self, grad, var):
        return ApplyGradientDescent(
            [grad],
            attrs={"variable": self._variable_op(var),
                   "learning_rate": self.learning_rate},
            name=f"{var.op.name}/update").output


class MomentumOptimizer(Optimizer):
    def __init__(self, learning_rate: float, momentum: float = 0.9):
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)

    def _apply_dense(self, grad, var):
        return ApplyMomentum(
            [grad],
            attrs={"variable": self._variable_op(var),
                   "accumulator": self._slot(var, "momentum"),
                   "learning_rate": self.learning_rate,
                   "momentum": self.momentum},
            name=f"{var.op.name}/update").output


class RMSPropOptimizer(Optimizer):
    def __init__(self, learning_rate: float, decay: float = 0.9,
                 momentum: float = 0.0, epsilon: float = 1e-10):
        self.learning_rate = float(learning_rate)
        self.decay = float(decay)
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)

    def _apply_dense(self, grad, var):
        return ApplyRMSProp(
            [grad],
            attrs={"variable": self._variable_op(var),
                   "mean_square": self._slot(var, "rms"),
                   "momentum_slot": self._slot(var, "rms_momentum"),
                   "learning_rate": self.learning_rate,
                   "decay": self.decay,
                   "momentum": self.momentum,
                   "epsilon": self.epsilon},
            name=f"{var.op.name}/update").output


class AdamOptimizer(Optimizer):
    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)

    def _apply_dense(self, grad, var):
        return ApplyAdam(
            [grad],
            attrs={"variable": self._variable_op(var),
                   "first_moment": self._slot(var, "adam_m"),
                   "second_moment": self._slot(var, "adam_v"),
                   "step": self._slot(var, "adam_t", shape=()),
                   "learning_rate": self.learning_rate,
                   "beta1": self.beta1,
                   "beta2": self.beta2,
                   "epsilon": self.epsilon},
            name=f"{var.op.name}/update").output
