"""Behavioural tests for the nn layers."""

import numpy as np
import pytest

from repro.nn.layers import (
    Embedding,
    EmbeddingBag,
    L2Normalize,
    Linear,
    ReLU,
    Sigmoid,
)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3)
        assert layer(np.zeros((7, 5))).shape == (7, 3)

    def test_bias_optional(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert np.allclose(layer(np.zeros((1, 4))), 0.0)

    def test_wrong_input_width_rejected(self):
        with pytest.raises(ValueError):
            Linear(4, 2)(np.zeros((1, 3)))

    def test_glorot_initialisation_bounded(self):
        layer = Linear(100, 100, rng=np.random.default_rng(0))
        limit = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= limit

    def test_deterministic_given_rng(self):
        a = Linear(4, 4, rng=np.random.default_rng(3))
        b = Linear(4, 4, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


_FLOAT_EDGES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]


def _relu_block(kind):
    """ReLU inputs holding every float64 edge case.

    "serving" is a (146, 128) first-layer serving block (18,688 elements)
    with the edges scattered through it.  numpy's ``fmax`` returns -0.0
    for ``fmax(-0.0, 0.0)`` on a lone element and on the first element
    past the last full SIMD stride, so the two small blocks put -0.0
    exactly there.
    """
    if kind == "one-element":
        return np.array([[-0.0]])
    if kind == "ragged-row":
        return np.array([_FLOAT_EDGES + [-0.0]])
    rng = np.random.default_rng(0)
    inputs = rng.normal(0.0, 1.0, size=(146, 128))
    flat = inputs.reshape(-1)
    positions = rng.choice(flat.size, size=800, replace=False)
    flat[positions] = np.resize(_FLOAT_EDGES, positions.size)
    return inputs


class TestActivations:
    def test_relu_clamps_negatives(self):
        outputs = ReLU()(np.array([[-2.0, 0.0, 3.0]]))
        assert outputs.tolist() == [[0.0, 0.0, 3.0]]

    @pytest.mark.parametrize("block", ["serving", "one-element", "ragged-row"])
    def test_relu_is_the_masked_select_bit_for_bit(self, block):
        inputs = _relu_block(block)
        layer = ReLU()
        outputs = layer(inputs)
        expected = np.where(inputs > 0.0, inputs, 0.0)
        assert outputs.dtype == expected.dtype and outputs.shape == expected.shape
        assert np.array_equal(outputs.view(np.uint64), expected.view(np.uint64))
        assert not np.signbit(outputs[inputs == 0.0]).any()
        # backward still reads the mask forward stored.
        assert np.array_equal(layer._mask, inputs > 0.0)
        grad = layer.backward(np.ones_like(inputs))
        assert np.array_equal(grad, (inputs > 0.0).astype(np.float64))

    def test_sigmoid_range_and_midpoint(self):
        layer = Sigmoid()
        outputs = layer(np.array([[-100.0, 0.0, 100.0]]))
        assert outputs[0, 0] < 1e-6
        assert outputs[0, 1] == pytest.approx(0.5)
        assert outputs[0, 2] > 1.0 - 1e-6

    def test_sigmoid_no_overflow_on_extremes(self):
        outputs = Sigmoid()(np.array([[1e9, -1e9]]))
        assert np.isfinite(outputs).all()

    def test_l2normalize_unit_rows(self):
        layer = L2Normalize()
        outputs = layer(np.array([[3.0, 4.0], [0.5, 0.0]]))
        np.testing.assert_allclose(np.linalg.norm(outputs, axis=1), 1.0, rtol=1e-9)

    def test_l2normalize_handles_near_zero_rows(self):
        outputs = L2Normalize()(np.zeros((1, 4)))
        assert np.isfinite(outputs).all()


class TestEmbedding:
    def test_lookup_returns_rows(self):
        table = Embedding(5, 3, rng=np.random.default_rng(0))
        outputs = table(np.array([0, 4]))
        np.testing.assert_array_equal(outputs[0], table.weight.data[0])
        np.testing.assert_array_equal(outputs[1], table.weight.data[4])

    def test_2d_indices_preserve_shape(self):
        table = Embedding(10, 4)
        outputs = table(np.zeros((2, 3), dtype=np.int64))
        assert outputs.shape == (2, 3, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            Embedding(5, 3)(np.array([5]))

    def test_float_indices_rejected(self):
        with pytest.raises(TypeError):
            Embedding(5, 3)(np.array([1.0]))


class TestEmbeddingBag:
    def test_sum_pooling(self):
        bag = EmbeddingBag(4, 2, mode="sum", rng=np.random.default_rng(0))
        outputs = bag([[0, 1]])
        expected = bag.weight.data[0] + bag.weight.data[1]
        np.testing.assert_allclose(outputs[0], expected)

    def test_mean_pooling(self):
        bag = EmbeddingBag(4, 2, mode="mean", rng=np.random.default_rng(0))
        outputs = bag([[0, 1, 2]])
        expected = bag.weight.data[:3].mean(axis=0)
        np.testing.assert_allclose(outputs[0], expected)

    def test_empty_bag_is_zero(self):
        bag = EmbeddingBag(4, 3)
        assert np.allclose(bag([[]])[0], 0.0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingBag(4, 2, mode="max")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexError):
            EmbeddingBag(4, 2)([[9]])
