"""Data-movement operations: reshaping, transposition, tiling, gathering.

In the paper's taxonomy these are "Data Movement" (group G of Fig. 3).
They perform no arithmetic but can dominate profiles in models whose
structure shuffles state around: seq2seq's attention mechanism and
memnet's memory addressing are the canonical examples (Figs. 3, 6b, 6c).
"""

from __future__ import annotations

from math import prod

import numpy as np

from ..cost_model import WorkEstimate, data_movement_work, num_elements
from ..errors import ShapeError
from ..graph import Operation, OpClass, Tensor, check_shape
from .state_ops import as_tensor


class Reshape(Operation):
    type_name = "Reshape"
    op_class = OpClass.DATA_MOVEMENT

    def _output_specs(self):
        x = self.inputs[0]
        target = list(self.attrs["shape"])
        if target.count(-1) > 1:
            raise ShapeError(f"reshape target {target} has multiple -1 dims")
        if -1 in target:
            known = prod(d for d in target if d != -1)
            if known == 0 or x.size % known != 0:
                raise ShapeError(
                    f"cannot infer -1 in reshape of {x.shape} to {target}")
            target[target.index(-1)] = x.size // known
        shape = check_shape(target)
        if num_elements(shape) != x.size:
            raise ShapeError(
                f"reshape size mismatch: {x.shape} ({x.size}) to "
                f"{shape} ({num_elements(shape)})")
        return [(shape, x.dtype)]

    def compute(self, inputs, ctx):
        return (inputs[0].reshape(self.output.shape),)

    def gradient(self, grads):
        return [reshape(grads[0], self.inputs[0].shape)]

    def _estimate_work(self):
        # Reshape of a contiguous array is metadata-only.
        return WorkEstimate(flops=0.0, bytes_moved=64.0, trip_count=1.0)


class Transpose(Operation):
    type_name = "Transpose"
    op_class = OpClass.DATA_MOVEMENT

    def _output_specs(self):
        x = self.inputs[0]
        perm = self.attrs["perm"]
        if sorted(perm) != list(range(x.ndim)):
            raise ShapeError(f"invalid permutation {perm} for rank {x.ndim}")
        return [(tuple(x.shape[p] for p in perm), x.dtype)]

    def compute(self, inputs, ctx):
        return (np.ascontiguousarray(inputs[0].transpose(self.attrs["perm"])),)

    def gradient(self, grads):
        perm = self.attrs["perm"]
        inverse = [0] * len(perm)
        for i, p in enumerate(perm):
            inverse[p] = i
        return [transpose(grads[0], inverse)]

    def _estimate_work(self):
        return data_movement_work(self.inputs[0].size)


class Tile(Operation):
    """Repeat a tensor along each axis (``multiples[i]`` copies on axis i)."""

    type_name = "Tile"
    op_class = OpClass.DATA_MOVEMENT

    def _output_specs(self):
        x = self.inputs[0]
        multiples = self.attrs["multiples"]
        if len(multiples) != x.ndim:
            raise ShapeError(
                f"Tile multiples {multiples} must match rank of {x.shape}")
        shape = tuple(d * m for d, m in zip(x.shape, multiples))
        return [(shape, x.dtype)]

    def compute(self, inputs, ctx):
        return (np.tile(inputs[0], self.attrs["multiples"]),)

    def gradient(self, grads):
        from . import reduction_ops
        g = grads[0]
        x = self.inputs[0]
        multiples = self.attrs["multiples"]
        # View the tiled gradient as (m0, s0, m1, s1, ...) and sum over the
        # repeat axes to accumulate contributions from each copy.
        interleaved: list[int] = []
        for dim, mult in zip(x.shape, multiples):
            interleaved.extend((mult, dim))
        g = reshape(g, interleaved)
        g = reduction_ops.reduce_sum(g, axis=list(range(0, 2 * x.ndim, 2)))
        return [reshape(g, x.shape)]

    def _estimate_work(self):
        return data_movement_work(self.inputs[0].size, self.output.size)


class Concat(Operation):
    type_name = "Concat"
    op_class = OpClass.DATA_MOVEMENT

    def _output_specs(self):
        axis = self.attrs["axis"]
        first = self.inputs[0]
        total = 0
        for tensor in self.inputs:
            if tensor.ndim != first.ndim:
                raise ShapeError("Concat inputs must have equal rank")
            for dim in range(first.ndim):
                if dim != axis and tensor.shape[dim] != first.shape[dim]:
                    raise ShapeError(
                        f"Concat shapes {first.shape} and {tensor.shape} "
                        f"differ outside axis {axis}")
            total += tensor.shape[axis]
        shape = list(first.shape)
        shape[axis] = total
        return [(tuple(shape), first.dtype)]

    def compute(self, inputs, ctx):
        return (np.concatenate(inputs, axis=self.attrs["axis"]),)

    def gradient(self, grads):
        g = grads[0]
        axis = self.attrs["axis"]
        out, offset = [], 0
        for tensor in self.inputs:
            size = tensor.shape[axis]
            begin = [0] * tensor.ndim
            begin[axis] = offset
            out.append(slice_(g, begin, tensor.shape))
            offset += size
        return out

    def _estimate_work(self):
        return data_movement_work(self.output.size)


class Slice(Operation):
    """Extract a contiguous block: ``begin`` offsets, ``size`` extents."""

    type_name = "Slice"
    op_class = OpClass.DATA_MOVEMENT

    def _output_specs(self):
        x = self.inputs[0]
        begin, size = self.attrs["begin"], self.attrs["size"]
        if len(begin) != x.ndim or len(size) != x.ndim:
            raise ShapeError("Slice begin/size must match input rank")
        for b, s, d in zip(begin, size, x.shape):
            if b < 0 or s < 0 or b + s > d:
                raise ShapeError(
                    f"slice begin={begin} size={size} out of bounds for "
                    f"{x.shape}")
        return [(tuple(size), x.dtype)]

    def compute(self, inputs, ctx):
        idx = tuple(slice(b, b + s) for b, s in
                    zip(self.attrs["begin"], self.attrs["size"]))
        return (np.ascontiguousarray(inputs[0][idx]),)

    def gradient(self, grads):
        x = self.inputs[0]
        begin, size = self.attrs["begin"], self.attrs["size"]
        paddings = [(b, d - b - s) for b, s, d in zip(begin, size, x.shape)]
        return [pad(grads[0], paddings)]

    def _estimate_work(self):
        return data_movement_work(self.output.size)


class Pad(Operation):
    """Zero-pad each axis by ``paddings[i] = (before, after)``."""

    type_name = "Pad"
    op_class = OpClass.DATA_MOVEMENT

    def _output_specs(self):
        x = self.inputs[0]
        paddings = self.attrs["paddings"]
        if len(paddings) != x.ndim:
            raise ShapeError("Pad paddings must match input rank")
        shape = tuple(d + lo + hi for d, (lo, hi) in zip(x.shape, paddings))
        return [(shape, x.dtype)]

    def compute(self, inputs, ctx):
        x = inputs[0]
        out = np.zeros(self.output.shape, dtype=x.dtype)
        out[tuple(slice(lo, lo + dim) for (lo, _), dim in
                  zip(self.attrs["paddings"], x.shape))] = x
        return (out,)

    def gradient(self, grads):
        x = self.inputs[0]
        begin = [lo for lo, _ in self.attrs["paddings"]]
        return [slice_(grads[0], begin, x.shape)]

    def _estimate_work(self):
        return data_movement_work(self.output.size)


class Gather(Operation):
    """Row lookup: ``params[indices]`` along axis 0 (embedding lookup)."""

    type_name = "Gather"
    op_class = OpClass.DATA_MOVEMENT

    def _output_specs(self):
        params, indices = self.inputs
        if params.ndim < 1:
            raise ShapeError("Gather params must have rank >= 1")
        return [(indices.shape + params.shape[1:], params.dtype)]

    def compute(self, inputs, ctx):
        params, indices = inputs
        return (params[indices.astype(np.int64)],)

    def gradient(self, grads):
        params, indices = self.inputs
        grad = UnsortedSegmentSum(
            [grads[0], indices],
            attrs={"num_segments": params.shape[0]}).output
        return [grad, None]

    def _estimate_work(self):
        return data_movement_work(self.output.size)


class UnsortedSegmentSum(Operation):
    """Scatter-add rows of ``data`` into ``num_segments`` buckets.

    This is the backward kernel for Gather: embedding gradients accumulate
    by vocabulary index. It is memory-bound and has limited parallelism
    (collisions on popular indices), which is part of why optimizer-side
    work resists scaling in Fig. 6.
    """

    type_name = "UnsortedSegmentSum"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        data, indices = self.inputs
        inner = data.shape[indices.ndim:]
        return [((self.attrs["num_segments"],) + inner, data.dtype)]

    def compute(self, inputs, ctx):
        data, indices = inputs
        num_segments = self.output.shape[0]
        out = np.zeros(self.output.shape, dtype=data.dtype)
        flat_idx = indices.astype(np.int64).reshape(-1)
        if flat_idx.size == 0:
            return (out,)
        if flat_idx.min() < -num_segments or flat_idx.max() >= num_segments:
            raise IndexError(
                f"segment index out of bounds for {num_segments} segments")
        # -k names the same row as num_segments - k, as in numpy indexing;
        # left apart they would sort into two runs and the second
        # assignment below would overwrite the first.
        flat_idx = np.where(flat_idx < 0, flat_idx + num_segments, flat_idx)
        # A stable sort keeps each bucket's rows in arrival order.
        order = np.argsort(flat_idx, kind="stable")
        flat_idx = flat_idx[order]
        flat_data = data.reshape((flat_idx.size,) + self.output.shape[1:])
        starts = np.flatnonzero(
            np.concatenate(([True], flat_idx[1:] != flat_idx[:-1])))
        out[flat_idx[starts]] = np.add.reduceat(
            np.take(flat_data, order, axis=0), starts, axis=0)
        return (out,)

    def _estimate_work(self):
        n = self.inputs[0].size
        return WorkEstimate(flops=float(n), bytes_moved=8.0 * n,
                            trip_count=float(self.attrs["num_segments"]))


class OneHot(Operation):
    """Expand integer class indices into one-hot float vectors."""

    type_name = "OneHot"
    op_class = OpClass.REDUCTION_EXPANSION

    def _output_specs(self):
        indices = self.inputs[0]
        return [(indices.shape + (self.attrs["depth"],), np.dtype(np.float32))]

    def compute(self, inputs, ctx):
        depth = self.attrs["depth"]
        flat = inputs[0].astype(np.int64).reshape(-1)
        out = np.zeros((flat.size, depth), dtype=np.float32)
        out[np.arange(flat.size), flat] = 1.0
        return (out.reshape(self.output.shape),)

    def gradient(self, grads):
        return [None]

    def _estimate_work(self):
        return data_movement_work(self.inputs[0].size, self.output.size)


class ShapeOp(Operation):
    """Return the (static) shape of a tensor as an int32 vector.

    Shows up in the memnet profile (Fig. 6c): TensorFlow emits Shape nodes
    for dynamic reshapes; we keep the node so profiles look the same even
    though our shapes are static.
    """

    type_name = "Shape"
    op_class = OpClass.DATA_MOVEMENT

    def _output_specs(self):
        return [((self.inputs[0].ndim,), np.dtype(np.int32))]

    def compute(self, inputs, ctx):
        return (np.asarray(inputs[0].shape, dtype=np.int32),)

    def gradient(self, grads):
        return [None]


class ExpandDims(Operation):
    type_name = "ExpandDims"
    op_class = OpClass.DATA_MOVEMENT

    def _output_specs(self):
        x = self.inputs[0]
        axis = self.attrs["axis"]
        if axis < 0:
            axis += x.ndim + 1
        shape = x.shape[:axis] + (1,) + x.shape[axis:]
        return [(shape, x.dtype)]

    def compute(self, inputs, ctx):
        return (inputs[0].reshape(self.output.shape),)

    def gradient(self, grads):
        return [reshape(grads[0], self.inputs[0].shape)]


class Squeeze(Operation):
    type_name = "Squeeze"
    op_class = OpClass.DATA_MOVEMENT

    def _output_specs(self):
        x = self.inputs[0]
        axes = self.attrs["axes"]
        for axis in axes:
            if x.shape[axis] != 1:
                raise ShapeError(
                    f"cannot squeeze axis {axis} of shape {x.shape}")
        shape = tuple(d for i, d in enumerate(x.shape) if i not in axes)
        return [(shape, x.dtype)]

    def compute(self, inputs, ctx):
        return (inputs[0].reshape(self.output.shape),)

    def gradient(self, grads):
        return [reshape(grads[0], self.inputs[0].shape)]


# -- public constructors ------------------------------------------------------


def reshape(x, shape, name=None) -> Tensor:
    return Reshape([as_tensor(x)], attrs={"shape": tuple(shape)},
                   name=name).output


def transpose(x, perm=None, name=None) -> Tensor:
    x = as_tensor(x)
    if perm is None:
        perm = list(reversed(range(x.ndim)))
    return Transpose([x], attrs={"perm": list(perm)}, name=name).output


def tile(x, multiples, name=None) -> Tensor:
    return Tile([as_tensor(x)], attrs={"multiples": tuple(multiples)},
                name=name).output


def concat(values, axis: int, name=None) -> Tensor:
    tensors = [as_tensor(v) for v in values]
    if not tensors:
        raise ShapeError("concat needs at least one input")
    if axis < 0:
        axis += tensors[0].ndim
    return Concat(tensors, attrs={"axis": axis}, name=name).output


def slice_(x, begin, size, name=None) -> Tensor:
    return Slice([as_tensor(x)],
                 attrs={"begin": tuple(begin), "size": tuple(size)},
                 name=name).output


def split(x, num_splits: int, axis: int, name=None) -> list[Tensor]:
    """Split a tensor into ``num_splits`` equal slices along ``axis``."""
    x = as_tensor(x)
    if axis < 0:
        axis += x.ndim
    if x.shape[axis] % num_splits != 0:
        raise ShapeError(
            f"cannot split axis {axis} of {x.shape} into {num_splits} parts")
    step = x.shape[axis] // num_splits
    parts = []
    for i in range(num_splits):
        begin = [0] * x.ndim
        begin[axis] = i * step
        size = list(x.shape)
        size[axis] = step
        parts.append(slice_(x, begin, size, name=name))
    return parts


def pad(x, paddings, name=None) -> Tensor:
    return Pad([as_tensor(x)],
               attrs={"paddings": [tuple(p) for p in paddings]},
               name=name).output


def gather(params, indices, name=None) -> Tensor:
    return Gather([as_tensor(params), as_tensor(indices, dtype=np.int32)],
                  name=name).output


def one_hot(indices, depth: int, name=None) -> Tensor:
    return OneHot([as_tensor(indices, dtype=np.int32)],
                  attrs={"depth": depth}, name=name).output


def shape_of(x, name=None) -> Tensor:
    return ShapeOp([as_tensor(x)], name=name).output


def expand_dims(x, axis: int, name=None) -> Tensor:
    return ExpandDims([as_tensor(x)], attrs={"axis": axis}, name=name).output


def squeeze(x, axes, name=None) -> Tensor:
    x = as_tensor(x)
    axes = [a + x.ndim if a < 0 else a for a in axes]
    return Squeeze([x], attrs={"axes": sorted(axes)}, name=name).output


def flatten(x, name=None) -> Tensor:
    """Collapse all but the leading (batch) dimension."""
    x = as_tensor(x)
    return reshape(x, (x.shape[0], -1), name=name)


def stack(values, axis: int = 0, name=None) -> Tensor:
    """Join same-shaped tensors along a new axis (composed op)."""
    tensors = [expand_dims(as_tensor(v), axis) for v in values]
    return concat(tensors, axis=axis, name=name)


def unstack(x, axis: int = 0, name=None) -> list[Tensor]:
    """Split a tensor into its slices along ``axis``, dropping the axis."""
    x = as_tensor(x)
    if axis < 0:
        axis += x.ndim
    pieces = split(x, x.shape[axis], axis=axis, name=name)
    return [squeeze(piece, [axis]) for piece in pieces]
