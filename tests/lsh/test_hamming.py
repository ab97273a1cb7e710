"""Tests for the Hamming-distance utilities."""

import numpy as np
import pytest

from repro.lsh.hamming import (
    hamming_distance,
    hamming_matrix,
    pack_bits,
    pack_bits_u64,
    pairwise_hamming,
    unpack_bits,
)


class TestPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(5, 37)).astype(np.uint8)
        packed = pack_bits(bits)
        np.testing.assert_array_equal(unpack_bits(packed, 37), bits)

    def test_packed_width(self):
        assert pack_bits(np.zeros((2, 16), dtype=np.uint8)).shape == (2, 2)
        assert pack_bits(np.zeros((2, 17), dtype=np.uint8)).shape == (2, 3)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(np.full((1, 8), 3, dtype=np.uint8))

    @pytest.mark.parametrize(
        "bits",
        [[[256, 0]], [[257, 1]], [[-1, 0]], [[0.5, 1.0]], [[float("nan"), 0.0]]],
        ids=["256", "257", "minus-one", "half", "nan"],
    )
    def test_out_of_range_rejected_before_the_uint8_cast(self, bits):
        # A uint8 cast first would wrap 256 to 0 (and 257 to 1) or
        # truncate 0.5 to 0, and the wrapped value would pass the check.
        with pytest.raises(ValueError, match="only 0/1"):
            pack_bits(np.array(bits))
        with pytest.raises(ValueError, match="only 0/1"):
            pack_bits_u64(np.array(bits))

    def test_wide_and_bool_bits_pack_like_uint8(self):
        bits = np.random.default_rng(5).integers(0, 2, size=(3, 21))
        expected = pack_bits(bits.astype(np.uint8))
        for dtype in (np.int64, np.uint16, bool, np.float64):
            np.testing.assert_array_equal(pack_bits(bits.astype(dtype)), expected)

    def test_unpack_too_many_bits_rejected(self):
        with pytest.raises(ValueError):
            unpack_bits(np.zeros((1, 1), dtype=np.uint8), 9)


class TestDistances:
    def test_hamming_distance_simple(self):
        assert hamming_distance([1, 0, 1, 1], [1, 1, 1, 0]) == 2

    def test_distance_to_self_is_zero(self):
        bits = np.random.default_rng(1).integers(0, 2, 64)
        assert hamming_distance(bits, bits) == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_distance([1, 0], [1, 0, 1])

    def test_pairwise_matches_naive(self):
        rng = np.random.default_rng(2)
        query = rng.integers(0, 2, 100).astype(np.uint8)
        items = rng.integers(0, 2, size=(20, 100)).astype(np.uint8)
        fast = pairwise_hamming(query, items)
        naive = np.array([hamming_distance(query, row) for row in items])
        np.testing.assert_array_equal(fast, naive)

    def test_pairwise_popcount_handles_padding(self):
        """Widths that are not byte multiples must not count pad bits."""
        query = np.ones(13, dtype=np.uint8)
        items = np.zeros((1, 13), dtype=np.uint8)
        assert pairwise_hamming(query, items)[0] == 13

    def test_matrix_symmetry_and_diagonal(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(6, 32)).astype(np.uint8)
        matrix = hamming_matrix(bits, bits)
        np.testing.assert_array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_matrix_triangle_inequality(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(5, 24)).astype(np.uint8)
        d = hamming_matrix(bits, bits)
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    assert d[i, j] <= d[i, k] + d[k, j]

    def test_matrix_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_matrix(np.zeros((2, 8)), np.zeros((2, 9)))
