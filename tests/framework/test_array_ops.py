"""Correctness tests for data-movement operations."""

import numpy as np
import pytest

from repro.framework import ops
from repro.framework.errors import ShapeError
from repro.framework.ops.array_ops import UnsortedSegmentSum


class TestReshape:
    def test_basic(self, session, rng):
        x = rng.standard_normal((2, 6)).astype(np.float32)
        out = session.run(ops.reshape(ops.constant(x), (3, 4)))
        np.testing.assert_array_equal(out, x.reshape(3, 4))

    def test_infer_minus_one(self):
        x = ops.constant(np.zeros((4, 6), dtype=np.float32))
        assert ops.reshape(x, (2, -1)).shape == (2, 12)
        assert ops.reshape(x, (-1,)).shape == (24,)

    def test_size_mismatch_rejected(self):
        x = ops.constant(np.zeros((4, 6), dtype=np.float32))
        with pytest.raises(ShapeError, match="size mismatch"):
            ops.reshape(x, (5, 5))

    def test_double_minus_one_rejected(self):
        x = ops.constant(np.zeros((4, 6), dtype=np.float32))
        with pytest.raises(ShapeError, match="multiple -1"):
            ops.reshape(x, (-1, -1))

    def test_non_divisible_inference_rejected(self):
        x = ops.constant(np.zeros((4, 6), dtype=np.float32))
        with pytest.raises(ShapeError, match="infer -1"):
            ops.reshape(x, (5, -1))


class TestTranspose:
    def test_default_reverses_axes(self, session, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        out = session.run(ops.transpose(ops.constant(x)))
        np.testing.assert_array_equal(out, x.transpose(2, 1, 0))

    def test_custom_permutation(self, session, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        out = session.run(ops.transpose(ops.constant(x), (1, 0, 2)))
        np.testing.assert_array_equal(out, x.transpose(1, 0, 2))

    def test_invalid_permutation_rejected(self):
        x = ops.constant(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="permutation"):
            ops.transpose(x, (0, 0))


class TestTile:
    def test_matches_numpy(self, session, rng):
        x = rng.standard_normal((2, 3)).astype(np.float32)
        out = session.run(ops.tile(ops.constant(x), (2, 3)))
        np.testing.assert_array_equal(out, np.tile(x, (2, 3)))

    def test_rank_mismatch_rejected(self):
        x = ops.constant(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="match rank"):
            ops.tile(x, (2,))


class TestConcatSplit:
    def test_concat_matches_numpy(self, session, rng):
        parts = [rng.standard_normal((2, n)).astype(np.float32)
                 for n in (1, 2, 3)]
        out = session.run(ops.concat([ops.constant(p) for p in parts],
                                     axis=1))
        np.testing.assert_array_equal(out, np.concatenate(parts, axis=1))

    def test_concat_negative_axis(self, session, rng):
        parts = [rng.standard_normal((2, 3)).astype(np.float32)
                 for _ in range(2)]
        tensor = ops.concat([ops.constant(p) for p in parts], axis=-1)
        assert tensor.shape == (2, 6)

    def test_concat_shape_mismatch_rejected(self):
        a = ops.constant(np.zeros((2, 3), dtype=np.float32))
        b = ops.constant(np.zeros((3, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="differ outside axis"):
            ops.concat([a, b], axis=1)

    def test_split_then_concat_roundtrips(self, session, rng):
        x = rng.standard_normal((4, 6)).astype(np.float32)
        parts = ops.split(ops.constant(x), 3, axis=1)
        assert all(p.shape == (4, 2) for p in parts)
        out = session.run(ops.concat(parts, axis=1))
        np.testing.assert_array_equal(out, x)

    def test_uneven_split_rejected(self):
        x = ops.constant(np.zeros((4, 5), dtype=np.float32))
        with pytest.raises(ShapeError, match="split"):
            ops.split(x, 3, axis=1)


class TestSlicePad:
    def test_slice_matches_numpy(self, session, rng):
        x = rng.standard_normal((4, 5)).astype(np.float32)
        out = session.run(ops.slice_(ops.constant(x), (1, 2), (2, 3)))
        np.testing.assert_array_equal(out, x[1:3, 2:5])

    def test_slice_out_of_bounds_rejected(self):
        x = ops.constant(np.zeros((4, 5), dtype=np.float32))
        with pytest.raises(ShapeError, match="out of bounds"):
            ops.slice_(x, (2, 0), (3, 5))

    def test_pad_matches_numpy(self, session, rng):
        x = rng.standard_normal((2, 3)).astype(np.float32)
        out = session.run(ops.pad(ops.constant(x), [(1, 0), (0, 2)]))
        np.testing.assert_array_equal(out, np.pad(x, ((1, 0), (0, 2))))

    def test_pad_then_slice_roundtrips(self, session, rng):
        x = rng.standard_normal((2, 3)).astype(np.float32)
        padded = ops.pad(ops.constant(x), [(1, 1), (2, 2)])
        out = session.run(ops.slice_(padded, (1, 2), (2, 3)))
        np.testing.assert_array_equal(out, x)


class TestGather:
    def test_row_lookup(self, session, rng):
        table = rng.standard_normal((10, 4)).astype(np.float32)
        idx = np.array([3, 3, 0, 7], dtype=np.int32)
        out = session.run(ops.gather(ops.constant(table), ops.constant(idx)))
        np.testing.assert_array_equal(out, table[idx])

    def test_multidimensional_indices(self, session, rng):
        table = rng.standard_normal((10, 4)).astype(np.float32)
        idx = np.array([[1, 2], [3, 4]], dtype=np.int32)
        tensor = ops.gather(ops.constant(table), ops.constant(idx))
        assert tensor.shape == (2, 2, 4)
        np.testing.assert_array_equal(session.run(tensor), table[idx])


def segment_sum(data, indices, num_segments):
    op = UnsortedSegmentSum(
        [ops.placeholder(data.shape),
         ops.placeholder(indices.shape, dtype=np.int32)],
        attrs={"num_segments": num_segments})
    out, = op.compute((data, indices), None)
    assert out.shape == op.output.shape and out.dtype == data.dtype
    return out


def add_at_reference(data, indices, num_segments):
    """The kernel UnsortedSegmentSum used to be: an unbuffered scatter-add."""
    out = np.zeros((num_segments,) + data.shape[indices.ndim:], data.dtype)
    np.add.at(out, indices.reshape(-1).astype(np.int64),
              data.reshape((indices.size,) + out.shape[1:]))
    return out


class TestUnsortedSegmentSum:
    def test_matches_scatter_add(self, rng):
        data = rng.standard_normal((6, 5, 4)).astype(np.float32)
        indices = rng.integers(0, 7, size=(6, 5)).astype(np.int32)
        np.testing.assert_allclose(segment_sum(data, indices, 9),
                                   add_at_reference(data, indices, 9),
                                   rtol=1e-5, atol=1e-6)

    def test_exact_on_integer_valued_rows(self, rng):
        # Sums of small integers are exact in float32 in any order.
        data = rng.integers(-8, 9, size=(40, 3)).astype(np.float32)
        indices = rng.integers(0, 5, size=40).astype(np.int32)
        np.testing.assert_array_equal(segment_sum(data, indices, 5),
                                      add_at_reference(data, indices, 5))

    def test_scalar_rows(self, rng):
        data = rng.integers(-8, 9, size=(4, 6)).astype(np.float32)
        indices = rng.integers(0, 3, size=(4, 6)).astype(np.int32)
        out = segment_sum(data, indices, 3)
        assert out.shape == (3,)
        np.testing.assert_array_equal(out,
                                      add_at_reference(data, indices, 3))

    def test_empty_indices_give_zeros(self):
        out = segment_sum(np.zeros((0, 4), dtype=np.float32),
                          np.zeros((0,), dtype=np.int32), 3)
        np.testing.assert_array_equal(out, np.zeros((3, 4), np.float32))

    def test_all_rows_in_one_bucket(self, rng):
        data = rng.integers(-8, 9, size=(7, 2)).astype(np.float32)
        out = segment_sum(data, np.full(7, 2, dtype=np.int32), 4)
        np.testing.assert_array_equal(out[2], data.sum(axis=0))
        assert not out[[0, 1, 3]].any()

    @pytest.mark.parametrize("bad", [4, -5])
    def test_out_of_range_index_raises(self, bad):
        data = np.ones((3, 2), dtype=np.float32)
        indices = np.array([0, bad, 1], dtype=np.int32)
        with pytest.raises(IndexError):
            add_at_reference(data, indices, 4)
        with pytest.raises(IndexError, match="out of bounds"):
            segment_sum(data, indices, 4)

    def test_negative_index_aliases_the_positive_row(self):
        # -1 and num_segments - 1 name one row; a sort that keeps them
        # apart and assigns each run would keep only the last.
        data = np.array([[1.0], [10.0], [100.0], [1000.0]], dtype=np.float32)
        indices = np.array([-1, 3, 0, -1], dtype=np.int32)
        out = segment_sum(data, indices, 4)
        np.testing.assert_array_equal(out,
                                      add_at_reference(data, indices, 4))
        np.testing.assert_array_equal(out.ravel(), [100.0, 0.0, 0.0, 1011.0])


class TestOneHot:
    def test_expands_indices(self, session):
        idx = np.array([0, 2, 1], dtype=np.int32)
        out = session.run(ops.one_hot(ops.constant(idx), depth=4))
        expected = np.zeros((3, 4), dtype=np.float32)
        expected[[0, 1, 2], [0, 2, 1]] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_batched_indices(self, session):
        idx = np.array([[0, 1], [2, 0]], dtype=np.int32)
        tensor = ops.one_hot(ops.constant(idx), depth=3)
        assert tensor.shape == (2, 2, 3)
        out = session.run(tensor)
        assert out.sum() == 4.0


class TestExpandSqueeze:
    def test_expand_dims(self, session, rng):
        x = rng.standard_normal((2, 3)).astype(np.float32)
        assert ops.expand_dims(ops.constant(x), 1).shape == (2, 1, 3)
        assert ops.expand_dims(ops.constant(x), -1).shape == (2, 3, 1)

    def test_squeeze(self, session, rng):
        x = rng.standard_normal((2, 1, 3, 1)).astype(np.float32)
        tensor = ops.squeeze(ops.constant(x), [1, 3])
        assert tensor.shape == (2, 3)
        np.testing.assert_array_equal(session.run(tensor), x[:, 0, :, 0])

    def test_squeeze_non_unit_axis_rejected(self):
        x = ops.constant(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="squeeze"):
            ops.squeeze(x, [1])


class TestShapeAndFlatten:
    def test_shape_of(self, session):
        x = ops.constant(np.zeros((2, 3, 4), dtype=np.float32))
        out = session.run(ops.shape_of(x))
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, [2, 3, 4])

    def test_flatten_keeps_batch(self, session, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        tensor = ops.flatten(ops.constant(x))
        assert tensor.shape == (2, 12)
        np.testing.assert_array_equal(session.run(tensor), x.reshape(2, 12))
