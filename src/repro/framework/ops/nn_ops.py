"""Neural-network operations: convolution, pooling, softmax, normalization.

Convolution is implemented the way production backends implement it
(cuDNN's default algorithm and Eigen's CPU path are both implicit GEMM):
an im2col patch extraction followed by a dense matrix multiply, in all
three directions. ``Conv2D`` is ``cols(x) @ filter``;
``Conv2DBackpropFilter`` is ``cols(x).T @ grad``; ``Conv2DBackpropInput``
is, for stride 1 and a filter no larger than the output,
``cols(zero-bordered grad) @ flipped filter`` (a correlation, so nothing
is scattered), and otherwise ``grad @ filter.T`` followed by a col2im
loop over the filter taps. Which form runs is decided by static shapes
alone, so every execution tier performs the same float operations. The
two backward kernels are distinct operation types, exactly as in
TensorFlow, because the paper's Fig. 6a shows them as
separately-scaling profile entries. All spatial tensors use NHWC layout,
and every conv/pool border goes through ``_pad_hw``.
"""

from __future__ import annotations

import numpy as np

from ..cost_model import (WorkEstimate, conv2d_work, data_movement_work,
                          elementwise_work, num_elements, reduction_work)
from ..errors import ShapeError
from ..graph import Operation, OpClass, Tensor
from .state_ops import as_tensor


def conv_output_dim(in_dim: int, filter_dim: int, stride: int,
                    padding: str) -> tuple[int, int, int]:
    """Output extent and (before, after) padding for one spatial axis."""
    if padding == "VALID":
        if in_dim < filter_dim:
            raise ShapeError(
                f"VALID conv: input dim {in_dim} < filter dim {filter_dim}")
        out = (in_dim - filter_dim) // stride + 1
        return out, 0, 0
    if padding == "SAME":
        out = -(-in_dim // stride)  # ceil division
        total = max((out - 1) * stride + filter_dim - in_dim, 0)
        before = total // 2
        return out, before, total - before
    raise ShapeError(f"unknown padding {padding!r} (use 'SAME' or 'VALID')")


def _conv_geometry(x: Tensor, filter_shape, strides, padding):
    batch, in_h, in_w, in_c = x.shape
    f_h, f_w, f_in_c, out_c = filter_shape
    if f_in_c != in_c:
        raise ShapeError(
            f"conv filter expects {f_in_c} input channels, image has {in_c}")
    s_h, s_w = strides
    out_h, pad_t, pad_b = conv_output_dim(in_h, f_h, s_h, padding)
    out_w, pad_l, pad_r = conv_output_dim(in_w, f_w, s_w, padding)
    return (batch, out_h, out_w, out_c), (pad_t, pad_b, pad_l, pad_r)


def _padded_shape(shape, pads) -> tuple[int, int, int, int]:
    batch, height, width, channels = shape
    pad_t, pad_b, pad_l, pad_r = pads
    return (batch, height + pad_t + pad_b, width + pad_l + pad_r, channels)


def _pad_hw(x: np.ndarray, pads: tuple[int, int, int, int],
            fill: float = 0.0) -> np.ndarray:
    """Border the spatial axes of an NHWC array (``x`` itself if no pad)."""
    if not any(pads):
        return x
    shape = _padded_shape(x.shape, pads)
    out = (np.zeros(shape, dtype=x.dtype) if fill == 0.0
           else np.full(shape, fill, dtype=x.dtype))
    out[:, pads[0]:pads[0] + x.shape[1], pads[2]:pads[2] + x.shape[2]] = x
    return out


def _unpad_hw(padded: np.ndarray, pads, shape) -> np.ndarray:
    """Inverse of :func:`_pad_hw`: the interior of ``shape``, contiguous."""
    pad_t, _, pad_l, _ = pads
    return np.ascontiguousarray(
        padded[:, pad_t:pad_t + shape[1], pad_l:pad_l + shape[2], :])


def _im2col(x: np.ndarray, f_h: int, f_w: int, s_h: int, s_w: int,
            pads: tuple[int, int, int, int]) -> np.ndarray:
    """Extract conv patches: returns ``(batch*out_h*out_w, f_h*f_w*in_c)``."""
    x = _pad_hw(x, pads)
    windows = np.lib.stride_tricks.sliding_window_view(x, (f_h, f_w),
                                                       axis=(1, 2))
    # windows: (batch, H', W', in_c, f_h, f_w); subsample by stride, then
    # order patch dims as (f_h, f_w, in_c) to match the filter layout.
    windows = windows[:, ::s_h, ::s_w]
    windows = windows.transpose(0, 1, 2, 4, 5, 3)
    batch, out_h, out_w = windows.shape[:3]
    return np.ascontiguousarray(windows).reshape(
        batch * out_h * out_w, f_h * f_w * x.shape[3])


def conv2d_forward(x: np.ndarray, filt: np.ndarray, strides, pads,
                   out_shape) -> np.ndarray:
    """The Conv2D kernel; codegen's inline template calls this too."""
    f_h, f_w, in_c, out_c = filt.shape
    cols = _im2col(x, f_h, f_w, strides[0], strides[1], pads)
    return (cols @ filt.reshape(f_h * f_w * in_c, out_c)).reshape(out_shape)


class Conv2D(Operation):
    """2-D convolution (NHWC input, HWIO filter) via im2col + GEMM."""

    type_name = "Conv2D"
    op_class = OpClass.CONVOLUTION

    def _output_specs(self):
        x, filt = self.inputs
        if x.ndim != 4 or filt.ndim != 4:
            raise ShapeError(
                f"Conv2D needs NHWC input and HWIO filter, got {x.shape} "
                f"and {filt.shape}")
        out_shape, pads = _conv_geometry(x, filt.shape,
                                         self.attrs["strides"],
                                         self.attrs["padding"])
        self.attrs["pads"] = pads
        return [(out_shape, x.dtype)]

    def compute(self, inputs, ctx):
        return (conv2d_forward(inputs[0], inputs[1], self.attrs["strides"],
                               self.attrs["pads"], self.output.shape),)

    def gradient(self, grads):
        g = grads[0]
        x, filt = self.inputs
        common = {"strides": self.attrs["strides"],
                  "padding": self.attrs["padding"],
                  "pads": self.attrs["pads"]}
        dx = Conv2DBackpropInput(
            [g, filt], attrs=dict(common, input_shape=x.shape)).output
        dw = Conv2DBackpropFilter(
            [g, x], attrs=dict(common, filter_shape=filt.shape)).output
        return [dx, dw]

    def _estimate_work(self):
        batch, out_h, out_w, out_c = self.output.shape
        f_h, f_w, in_c, _ = self.inputs[1].shape
        return conv2d_work(batch, out_h, out_w, out_c, f_h, f_w, in_c)


class Conv2DBackpropInput(Operation):
    """Gradient of Conv2D with respect to its input (transposed conv)."""

    type_name = "Conv2DBackpropInput"
    op_class = OpClass.CONVOLUTION

    def _output_specs(self):
        return [(self.attrs["input_shape"], self.inputs[0].dtype)]

    def compute(self, inputs, ctx):
        grad, filt = inputs
        input_shape = self.attrs["input_shape"]
        batch, _, _, in_c = input_shape
        f_h, f_w, _, out_c = filt.shape
        s_h, s_w = self.attrs["strides"]
        pads = pad_t, pad_b, pad_l, pad_r = self.attrs["pads"]
        out_h, out_w = grad.shape[1], grad.shape[2]
        if s_h == s_w == 1 and f_h <= out_h and f_w <= out_w:
            # dx[y] = sum_i grad[y + pad_t - i] . filt[i]: a stride-1
            # correlation of the bordered gradient with the filter
            # flipped in both spatial axes, (out_c, in_c) per tap. A
            # filter larger than the output makes that border mostly
            # zeros, and the flipped copy dearer than the scatter below.
            cols = _im2col(grad, f_h, f_w, 1, 1,
                           (f_h - 1 - pad_t, f_h - 1 - pad_b,
                            f_w - 1 - pad_l, f_w - 1 - pad_r))
            flipped = filt[::-1, ::-1].transpose(0, 1, 3, 2)
            dx = cols @ flipped.reshape(f_h * f_w * out_c, in_c)
            return (dx.reshape(input_shape),)
        cols = (grad.reshape(-1, out_c) @ filt.reshape(-1, out_c).T).reshape(
            batch, out_h, out_w, f_h, f_w, in_c)
        dpad = np.zeros(_padded_shape(input_shape, pads), dtype=grad.dtype)
        for i in range(f_h):
            for j in range(f_w):
                dpad[:, i:i + s_h * out_h:s_h,
                     j:j + s_w * out_w:s_w, :] += cols[:, :, :, i, j]
        return (_unpad_hw(dpad, pads, input_shape),)

    def _estimate_work(self):
        grad = self.inputs[0]
        batch, out_h, out_w, out_c = grad.shape
        f_h, f_w, in_c, _ = self.inputs[1].shape
        return conv2d_work(batch, out_h, out_w, out_c, f_h, f_w, in_c)


class Conv2DBackpropFilter(Operation):
    """Gradient of Conv2D with respect to its filter weights."""

    type_name = "Conv2DBackpropFilter"
    op_class = OpClass.CONVOLUTION

    def _output_specs(self):
        return [(self.attrs["filter_shape"], self.inputs[0].dtype)]

    def compute(self, inputs, ctx):
        grad, x = inputs
        filter_shape = self.attrs["filter_shape"]
        f_h, f_w, _, out_c = filter_shape
        s_h, s_w = self.attrs["strides"]
        cols = _im2col(x, f_h, f_w, s_h, s_w, self.attrs["pads"])
        return ((cols.T @ grad.reshape(-1, out_c)).reshape(filter_shape),)

    def _estimate_work(self):
        grad = self.inputs[0]
        batch, out_h, out_w, out_c = grad.shape
        f_h, f_w, in_c, _ = self.attrs["filter_shape"]
        return conv2d_work(batch, out_h, out_w, out_c, f_h, f_w, in_c)


def _pool_geometry(x: Tensor, ksize, strides, padding):
    batch, in_h, in_w, channels = x.shape
    k_h, k_w = ksize
    s_h, s_w = strides
    out_h, pad_t, pad_b = conv_output_dim(in_h, k_h, s_h, padding)
    out_w, pad_l, pad_r = conv_output_dim(in_w, k_w, s_w, padding)
    return (batch, out_h, out_w, channels), (pad_t, pad_b, pad_l, pad_r)


class MaxPool(Operation):
    type_name = "MaxPool"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        out_shape, pads = _pool_geometry(self.inputs[0], self.attrs["ksize"],
                                         self.attrs["strides"],
                                         self.attrs["padding"])
        self.attrs["pads"] = pads
        return [(out_shape, self.inputs[0].dtype)]

    def compute(self, inputs, ctx):
        x = _pad_hw(inputs[0], self.attrs["pads"], fill=-np.inf)
        k_h, k_w = self.attrs["ksize"]
        s_h, s_w = self.attrs["strides"]
        windows = np.lib.stride_tricks.sliding_window_view(
            x, (k_h, k_w), axis=(1, 2))[:, ::s_h, ::s_w]
        return (np.ascontiguousarray(windows.max(axis=(4, 5))),)

    def gradient(self, grads):
        return [MaxPoolGrad(
            [self.inputs[0], self.outputs[0], grads[0]],
            attrs={k: self.attrs[k]
                   for k in ("ksize", "strides", "padding", "pads")}).output]

    def _estimate_work(self):
        k_h, k_w = self.attrs["ksize"]
        n_out = self.output.size
        return WorkEstimate(flops=float(n_out * k_h * k_w),
                            bytes_moved=4.0 * (self.inputs[0].size + n_out),
                            trip_count=float(n_out))


class MaxPoolGrad(Operation):
    """Backward kernel for MaxPool: route gradient to the window maxima."""

    type_name = "MaxPoolGrad"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        return [(self.inputs[0].shape, self.inputs[0].dtype)]

    def compute(self, inputs, ctx):
        x, pooled, grad = inputs
        k_h, k_w = self.attrs["ksize"]
        s_h, s_w = self.attrs["strides"]
        pads = self.attrs["pads"]
        x_pad = _pad_hw(x, pads, fill=-np.inf)
        out_h, out_w = pooled.shape[1], pooled.shape[2]
        dx_pad = np.zeros(x_pad.shape, dtype=grad.dtype)
        for i in range(k_h):
            for j in range(k_w):
                window = x_pad[:, i:i + s_h * out_h:s_h,
                               j:j + s_w * out_w:s_w, :]
                mask = window == pooled
                dx_pad[:, i:i + s_h * out_h:s_h,
                       j:j + s_w * out_w:s_w, :] += grad * mask
        return (_unpad_hw(dx_pad, pads, x.shape),)

    def _estimate_work(self):
        k_h, k_w = self.attrs["ksize"]
        n = self.output.size
        return WorkEstimate(flops=float(n * k_h * k_w),
                            bytes_moved=12.0 * n, trip_count=float(n))


class AvgPool(Operation):
    type_name = "AvgPool"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        out_shape, pads = _pool_geometry(self.inputs[0], self.attrs["ksize"],
                                         self.attrs["strides"],
                                         self.attrs["padding"])
        self.attrs["pads"] = pads
        return [(out_shape, self.inputs[0].dtype)]

    def compute(self, inputs, ctx):
        x = _pad_hw(inputs[0], self.attrs["pads"])
        k_h, k_w = self.attrs["ksize"]
        s_h, s_w = self.attrs["strides"]
        windows = np.lib.stride_tricks.sliding_window_view(
            x, (k_h, k_w), axis=(1, 2))[:, ::s_h, ::s_w]
        return (np.ascontiguousarray(windows.mean(axis=(4, 5))),)

    def gradient(self, grads):
        return [AvgPoolGrad(
            [grads[0]],
            attrs={"input_shape": self.inputs[0].shape,
                   **{k: self.attrs[k]
                      for k in ("ksize", "strides", "padding", "pads")}}).output]

    def _estimate_work(self):
        k_h, k_w = self.attrs["ksize"]
        n_out = self.output.size
        return WorkEstimate(flops=float(n_out * k_h * k_w),
                            bytes_moved=4.0 * (self.inputs[0].size + n_out),
                            trip_count=float(n_out))


class AvgPoolGrad(Operation):
    type_name = "AvgPoolGrad"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        return [(self.attrs["input_shape"], self.inputs[0].dtype)]

    def compute(self, inputs, ctx):
        grad = inputs[0]
        k_h, k_w = self.attrs["ksize"]
        s_h, s_w = self.attrs["strides"]
        pads = self.attrs["pads"]
        in_shape = self.attrs["input_shape"]
        dx_pad = np.zeros(_padded_shape(in_shape, pads), dtype=grad.dtype)
        out_h, out_w = grad.shape[1], grad.shape[2]
        share = grad / float(k_h * k_w)
        for i in range(k_h):
            for j in range(k_w):
                dx_pad[:, i:i + s_h * out_h:s_h,
                       j:j + s_w * out_w:s_w, :] += share
        return (_unpad_hw(dx_pad, pads, in_shape),)

    def _estimate_work(self):
        n = self.output.size
        return WorkEstimate(flops=float(n), bytes_moved=8.0 * n,
                            trip_count=float(n))


class BiasAdd(Operation):
    """Add a channel bias vector to the trailing axis of a tensor."""

    type_name = "BiasAdd"
    op_class = OpClass.ELEMENTWISE

    def _output_specs(self):
        x, bias = self.inputs
        if bias.ndim != 1 or bias.shape[0] != x.shape[-1]:
            raise ShapeError(
                f"BiasAdd bias {bias.shape} must match trailing dim of "
                f"{x.shape}")
        return [(x.shape, x.dtype)]

    def compute(self, inputs, ctx):
        return (inputs[0] + inputs[1],)

    def gradient(self, grads):
        from . import reduction_ops
        g = grads[0]
        axes = list(range(self.inputs[0].ndim - 1))
        return [g, reduction_ops.reduce_sum(g, axis=axes)]

    def _estimate_work(self):
        return elementwise_work(self.output.shape, n_inputs=2)


class Softmax(Operation):
    """Numerically-stable softmax over the trailing axis."""

    type_name = "Softmax"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        return [(self.inputs[0].shape, self.inputs[0].dtype)]

    def compute(self, inputs, ctx):
        x = inputs[0]
        shifted = x - x.max(axis=-1, keepdims=True)
        ex = np.exp(shifted)
        return (ex / ex.sum(axis=-1, keepdims=True),)

    def gradient(self, grads):
        from . import math_ops, reduction_ops
        g = grads[0]
        y = self.output
        inner = reduction_ops.reduce_sum(math_ops.multiply(g, y), axis=-1,
                                         keepdims=True)
        return [math_ops.multiply(math_ops.subtract(g, inner), y)]

    def _estimate_work(self):
        n = self.output.size
        rows = n // self.output.shape[-1]
        return WorkEstimate(flops=6.0 * n, bytes_moved=8.0 * n,
                            trip_count=float(rows))


class LogSoftmax(Operation):
    type_name = "LogSoftmax"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        return [(self.inputs[0].shape, self.inputs[0].dtype)]

    def compute(self, inputs, ctx):
        x = inputs[0]
        shifted = x - x.max(axis=-1, keepdims=True)
        return (shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True)),)

    def gradient(self, grads):
        from . import math_ops, reduction_ops
        g = grads[0]
        softmax_out = math_ops.exp(self.output)
        total = reduction_ops.reduce_sum(g, axis=-1, keepdims=True)
        return [math_ops.subtract(g, math_ops.multiply(softmax_out, total))]

    def _estimate_work(self):
        n = self.output.size
        rows = n // self.output.shape[-1]
        return WorkEstimate(flops=7.0 * n, bytes_moved=8.0 * n,
                            trip_count=float(rows))


class SoftmaxCrossEntropyWithLogits(Operation):
    """Fused softmax + cross-entropy against a target distribution.

    Inputs: logits ``(batch, classes)`` and labels (same shape, rows are
    probability distributions — one-hot for classification). Output: per-
    example loss ``(batch,)``. The gradient is the classic
    ``softmax(logits) - labels``.
    """

    type_name = "SoftmaxCrossEntropyWithLogits"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        logits, labels = self.inputs
        if logits.shape != labels.shape or logits.ndim != 2:
            raise ShapeError(
                f"xent expects matching rank-2 logits/labels, got "
                f"{logits.shape} and {labels.shape}")
        return [((logits.shape[0],), logits.dtype)]

    def compute(self, inputs, ctx):
        logits, labels = inputs
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        log_probs = shifted - log_z
        return ((-(labels * log_probs).sum(axis=-1)).astype(logits.dtype),)

    def gradient(self, grads):
        from . import array_ops, math_ops
        g = array_ops.expand_dims(grads[0], axis=-1)
        probs = softmax(self.inputs[0])
        return [math_ops.multiply(g, math_ops.subtract(probs, self.inputs[1])),
                None]

    def _estimate_work(self):
        n = self.inputs[0].size
        return WorkEstimate(flops=8.0 * n, bytes_moved=12.0 * n,
                            trip_count=float(self.inputs[0].shape[0]))


class LRN(Operation):
    """AlexNet's local response normalization across channels."""

    type_name = "LRN"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        return [(self.inputs[0].shape, self.inputs[0].dtype)]

    @staticmethod
    def _denominator(x, radius, bias, alpha):
        squares = np.square(x)
        accum = np.zeros_like(x)
        channels = x.shape[-1]
        for offset in range(-radius, radius + 1):
            lo, hi = max(0, -offset), min(channels, channels - offset)
            if lo >= hi:  # window offset falls entirely outside
                continue
            accum[..., lo:hi] += squares[..., lo + offset:hi + offset]
        return bias + alpha * accum

    def compute(self, inputs, ctx):
        a = self.attrs
        denom = self._denominator(inputs[0], a["depth_radius"], a["bias"],
                                  a["alpha"])
        return (inputs[0] * np.power(denom, -a["beta"]),)

    def gradient(self, grads):
        return [LRNGrad([grads[0], self.inputs[0]],
                        attrs=dict(self.attrs)).output]

    def _estimate_work(self):
        n = self.output.size
        window = 2 * self.attrs["depth_radius"] + 1
        return WorkEstimate(flops=float(n * (window + 4)),
                            bytes_moved=8.0 * n, trip_count=float(n))


class LRNGrad(Operation):
    type_name = "LRNGrad"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        return [(self.inputs[1].shape, self.inputs[1].dtype)]

    def compute(self, inputs, ctx):
        grad, x = inputs
        a = self.attrs
        radius, bias, alpha, beta = (a["depth_radius"], a["bias"], a["alpha"],
                                     a["beta"])
        denom = LRN._denominator(x, radius, bias, alpha)
        # dx_m = g_m * d_m^-b - 2*a*b*x_m * sum_{i in window(m)} g_i x_i d_i^{-b-1}
        core = grad * x * np.power(denom, -beta - 1.0)
        windowed = np.zeros_like(core)
        channels = x.shape[-1]
        for offset in range(-radius, radius + 1):
            lo, hi = max(0, -offset), min(channels, channels - offset)
            if lo >= hi:
                continue
            windowed[..., lo:hi] += core[..., lo + offset:hi + offset]
        dx = grad * np.power(denom, -beta) - 2.0 * alpha * beta * x * windowed
        return (dx.astype(x.dtype),)

    def _estimate_work(self):
        n = self.output.size
        window = 2 * self.attrs["depth_radius"] + 1
        return WorkEstimate(flops=float(n * (2 * window + 8)),
                            bytes_moved=12.0 * n, trip_count=float(n))


# -- public constructors ------------------------------------------------------


def conv2d(x, filt, strides=(1, 1), padding: str = "SAME",
           name=None) -> Tensor:
    return Conv2D([as_tensor(x), as_tensor(filt)],
                  attrs={"strides": tuple(strides), "padding": padding},
                  name=name).output


def max_pool(x, ksize=(2, 2), strides=(2, 2), padding: str = "VALID",
             name=None) -> Tensor:
    return MaxPool([as_tensor(x)],
                   attrs={"ksize": tuple(ksize), "strides": tuple(strides),
                          "padding": padding},
                   name=name).output


def avg_pool(x, ksize=(2, 2), strides=(2, 2), padding: str = "VALID",
             name=None) -> Tensor:
    return AvgPool([as_tensor(x)],
                   attrs={"ksize": tuple(ksize), "strides": tuple(strides),
                          "padding": padding},
                   name=name).output


def bias_add(x, bias, name=None) -> Tensor:
    return BiasAdd([as_tensor(x), as_tensor(bias)], name=name).output


def softmax(x, name=None) -> Tensor:
    return Softmax([as_tensor(x)], name=name).output


def log_softmax(x, name=None) -> Tensor:
    return LogSoftmax([as_tensor(x)], name=name).output


def softmax_cross_entropy_with_logits(logits, labels, name=None) -> Tensor:
    return SoftmaxCrossEntropyWithLogits([as_tensor(logits), as_tensor(labels)],
                                         name=name).output


def lrn(x, depth_radius: int = 2, bias: float = 1.0, alpha: float = 1e-4,
        beta: float = 0.75, name=None) -> Tensor:
    return LRN([as_tensor(x)],
               attrs={"depth_radius": depth_radius, "bias": bias,
                      "alpha": alpha, "beta": beta},
               name=name).output


def dropout(x, rate: float, name=None) -> Tensor:
    """Randomly zero a ``rate`` fraction of elements, rescaling the rest.

    Composed from primitives exactly as TensorFlow's dropout is (a uniform
    sample, a thresholding, a multiply, and a scale), so the sampled mask
    is shared between the forward and backward passes within a single
    session run.
    """
    from . import math_ops, random_ops
    x = as_tensor(x)
    keep_prob = 1.0 - rate
    noise = random_ops.random_uniform(x.shape, name=name)
    mask = math_ops.less(noise, keep_prob)
    return math_ops.multiply(math_ops.multiply(x, mask), 1.0 / keep_prob)
