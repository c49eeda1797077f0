"""Direct tests for the three convolution kernels.

``Conv2D``, ``Conv2DBackpropInput`` and ``Conv2DBackpropFilter`` are each
called through ``compute`` and compared with loop references written from
the definition (float64, no im2col, no GEMM), over random geometry. The
backward kernels are then checked against finite differences through
autodiff, once per ``Conv2DBackpropInput`` form.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.framework import ops
from repro.framework.gradient_check import check_gradients
from repro.framework.graph import reset_default_graph
from repro.framework.ops.nn_ops import conv_output_dim


def _geometry(x_shape, filt_shape, strides, padding):
    out_h, pad_t, _ = conv_output_dim(x_shape[1], filt_shape[0], strides[0],
                                      padding)
    out_w, pad_l, _ = conv_output_dim(x_shape[2], filt_shape[1], strides[1],
                                      padding)
    return out_h, out_w, pad_t, pad_l


def _taps(x_shape, filt_shape, strides, padding):
    """Every (output position, filter tap) pair that lands on a real pixel."""
    out_h, out_w, pad_t, pad_l = _geometry(x_shape, filt_shape, strides,
                                           padding)
    for oy in range(out_h):
        for ox in range(out_w):
            for i in range(filt_shape[0]):
                for j in range(filt_shape[1]):
                    y = oy * strides[0] + i - pad_t
                    x = ox * strides[1] + j - pad_l
                    if 0 <= y < x_shape[1] and 0 <= x < x_shape[2]:
                        yield oy, ox, i, j, y, x


def naive_forward(x, filt, strides, padding):
    out_h, out_w, _, _ = _geometry(x.shape, filt.shape, strides, padding)
    out = np.zeros((x.shape[0], out_h, out_w, filt.shape[3]))
    for oy, ox, i, j, y, xx in _taps(x.shape, filt.shape, strides, padding):
        for b in range(x.shape[0]):
            for k in range(filt.shape[3]):
                out[b, oy, ox, k] += np.dot(x[b, y, xx].astype(np.float64),
                                            filt[i, j, :, k])
    return out


def naive_backprop_input(grad, filt, x_shape, strides, padding):
    dx = np.zeros(x_shape)
    for oy, ox, i, j, y, xx in _taps(x_shape, filt.shape, strides, padding):
        for b in range(x_shape[0]):
            for c in range(x_shape[3]):
                dx[b, y, xx, c] += np.dot(grad[b, oy, ox].astype(np.float64),
                                          filt[i, j, c])
    return dx


def naive_backprop_filter(grad, x, filt_shape, strides, padding):
    dfilt = np.zeros(filt_shape)
    for oy, ox, i, j, y, xx in _taps(x.shape, filt_shape, strides, padding):
        for c in range(filt_shape[2]):
            for k in range(filt_shape[3]):
                dfilt[i, j, c, k] += np.dot(
                    x[:, y, xx, c].astype(np.float64), grad[:, oy, ox, k])
    return dfilt


def run_kernels(x, filt, strides, padding, grad_seed=1):
    """(forward, dx, dfilt, grad) from the three ops' own ``compute``."""
    reset_default_graph()
    conv = ops.conv2d(ops.placeholder(x.shape), ops.placeholder(filt.shape),
                      strides=strides, padding=padding).op
    out, = conv.compute((x, filt), None)
    assert out.shape == conv.output.shape
    grad = np.random.default_rng(grad_seed).standard_normal(
        out.shape).astype(np.float32)
    dx_t, dfilt_t = conv.gradient([ops.placeholder(out.shape)])
    dx, = dx_t.op.compute((grad, filt), None)
    dfilt, = dfilt_t.op.compute((grad, x), None)
    return out, dx, dfilt, grad


def assert_kernels_match_naive(x_shape, filt_hw, out_c, strides, padding):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(x_shape).astype(np.float32)
    filt_shape = filt_hw + (x_shape[3], out_c)
    filt = rng.standard_normal(filt_shape).astype(np.float32)
    out, dx, dfilt, grad = run_kernels(x, filt, strides, padding)
    tol = dict(rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(
        out, naive_forward(x, filt, strides, padding), **tol)
    np.testing.assert_allclose(
        dx, naive_backprop_input(grad, filt, x_shape, strides, padding),
        **tol)
    np.testing.assert_allclose(
        dfilt, naive_backprop_filter(grad, x, filt_shape, strides, padding),
        **tol)
    for result, shape in ((dx, x_shape), (dfilt, filt_shape)):
        assert result.shape == shape and result.dtype == np.float32
        assert result.flags.c_contiguous


class TestAgainstNaiveReference:
    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 2),
           in_hw=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           channels=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           filt_hw=st.tuples(st.integers(1, 5), st.integers(1, 5)),
           strides=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           padding=st.sampled_from(["SAME", "VALID"]))
    # 1x1 filter, strided: SAME clips to no padding, odd rows are skipped
    @example(batch=2, in_hw=(6, 6), channels=(3, 2), filt_hw=(1, 1),
             strides=(2, 2), padding="SAME")
    # even-sized filter: SAME pads (1, 2), more after than before
    @example(batch=2, in_hw=(5, 6), channels=(2, 3), filt_hw=(4, 2),
             strides=(1, 1), padding="SAME")
    # filter larger than the input (and so than the output): the
    # BackpropInput col2im form at stride 1
    @example(batch=2, in_hw=(2, 2), channels=(3, 3), filt_hw=(3, 3),
             strides=(1, 1), padding="SAME")
    @example(batch=1, in_hw=(2, 3), channels=(1, 2), filt_hw=(5, 5),
             strides=(2, 1), padding="SAME")
    # asymmetric SAME padding from the stride: (0, 1)
    @example(batch=2, in_hw=(8, 8), channels=(2, 2), filt_hw=(3, 3),
             strides=(2, 2), padding="SAME")
    # VALID, stride 3 over 8 rows: windows cover rows 0-5, rows 6-7 get
    # no gradient
    @example(batch=2, in_hw=(8, 7), channels=(2, 2), filt_hw=(3, 2),
             strides=(3, 4), padding="VALID")
    # VALID at stride 1: BackpropInput borders the gradient by f - 1
    @example(batch=1, in_hw=(7, 6), channels=(2, 3), filt_hw=(3, 4),
             strides=(1, 1), padding="VALID")
    def test_random_geometry(self, batch, in_hw, channels, filt_hw, strides,
                             padding):
        if padding == "VALID":
            assume(in_hw[0] >= filt_hw[0] and in_hw[1] >= filt_hw[1])
        assert_kernels_match_naive((batch,) + in_hw + channels[:1], filt_hw,
                                   channels[1], strides, padding)

    def test_uncovered_rows_get_zero_gradient(self):
        x = np.ones((1, 8, 8, 1), dtype=np.float32)
        filt = np.ones((3, 3, 1, 1), dtype=np.float32)
        _, dx, _, _ = run_kernels(x, filt, (3, 3), "VALID")
        assert not dx[:, 6:].any() and not dx[:, :, 6:].any()
        assert dx[:, :6, :6].all()


# One case per Conv2DBackpropInput form: the stride-1 correlation, the
# col2im loop chosen by stride, and the col2im loop chosen at stride 1
# because the filter is larger than the output.
GRADIENT_CASES = [
    ("stride1_correlation", (2, 5, 6, 2), (3, 3), (1, 1), "SAME"),
    ("strided_col2im", (2, 7, 6, 2), (3, 4), (2, 2), "SAME"),
    ("large_filter_col2im", (2, 2, 2, 3), (3, 3), (1, 1), "SAME"),
    ("valid_strided", (1, 8, 8, 2), (3, 3), (3, 3), "VALID"),
]


class TestGradientCheck:
    @pytest.mark.parametrize("name,x_shape,filt_hw,strides,padding",
                             GRADIENT_CASES,
                             ids=[case[0] for case in GRADIENT_CASES])
    def test_backward_kernels_match_finite_differences(
            self, session, rng, name, x_shape, filt_hw, strides, padding):
        x = ops.placeholder(x_shape, name="x")
        filt = ops.placeholder(filt_hw + (x_shape[3], 3), name="filt")
        y = ops.conv2d(x, filt, strides=strides, padding=padding)
        weights = rng.standard_normal(y.shape).astype(np.float32)
        loss = ops.reduce_sum(ops.multiply(y, ops.constant(weights)))
        feed = {x: rng.standard_normal(x.shape).astype(np.float32),
                filt: rng.standard_normal(filt.shape).astype(np.float32)}
        # The loss is linear in each target, so central differences are
        # exact up to float32 rounding of the two loss evaluations.
        report = check_gradients(loss, [x, filt], session, feed_dict=feed,
                                 samples_per_tensor=8, epsilon=1e-2)
        assert report.max_relative_error < 2e-2, report.render()
