"""Batched serving kernels pinned against their scalar references.

Every multi-query kernel the vectorised serve path runs -- packed-word
Hamming scans, batched fixed-radius selection, multi-query top-k, the
GPU reference engine's batched exact-cosine search and the histogram
radius calibration -- must return exactly what the per-query reference
code returns, element for element.  These tests pin that
contract over exhaustive small cases and randomised fuzzing.  The
Hamming scan returns ``uint16`` whatever the item block's memory order,
and the fixed-radius select gives one answer on ``uint16`` and ``int64``
rows alike.
"""

import numpy as np
import pytest

from repro.lsh.hamming import (
    hamming_matrix,
    hamming_matrix_packed,
    pack_bits_u64,
    pairwise_hamming,
    unpack_bits,
)
from repro.nns.exact import cosine_topk, cosine_topk_batch, topk_indices_batch
from repro.nns.fixed_radius import (
    calibrate_population_radius,
    cap_candidates,
    fixed_radius_candidates,
    fixed_radius_candidates_batch,
)
from repro.nns.lsh_search import LSHHammingIndex


class TestPackedHamming:
    @pytest.mark.parametrize("num_bits", [1, 7, 63, 64, 65, 127, 256])
    def test_matches_unpacked_matrix(self, num_bits):
        rng = np.random.default_rng(num_bits)
        queries = rng.integers(0, 2, size=(5, num_bits), dtype=np.uint8)
        items = rng.integers(0, 2, size=(11, num_bits), dtype=np.uint8)
        packed = hamming_matrix_packed(
            pack_bits_u64(queries), pack_bits_u64(items)
        )
        np.testing.assert_array_equal(packed, hamming_matrix(queries, items))

    def test_matches_pairwise(self):
        rng = np.random.default_rng(1)
        queries = rng.integers(0, 2, size=(4, 256), dtype=np.uint8)
        items = rng.integers(0, 2, size=(9, 256), dtype=np.uint8)
        packed = hamming_matrix_packed(
            pack_bits_u64(queries), pack_bits_u64(items)
        )
        for row, query in enumerate(queries):
            np.testing.assert_array_equal(
                packed[row], pairwise_hamming(query, items)
            )

    def test_pad_bits_do_not_count(self):
        # Widths that are not multiples of 64 pad with zero bits; the
        # distance between identical rows must stay zero.
        bits = np.ones((2, 65), dtype=np.uint8)
        packed = pack_bits_u64(bits)
        assert packed.shape[1] == 2
        np.testing.assert_array_equal(
            hamming_matrix_packed(packed, packed), np.zeros((2, 2))
        )

    @pytest.mark.parametrize("num_bits", [1, 64, 65, 256])
    def test_uint16_for_c_and_fortran_item_blocks(self, num_bits):
        rng = np.random.default_rng(100 + num_bits)
        queries = rng.integers(0, 2, size=(6, num_bits), dtype=np.uint8)
        items = rng.integers(0, 2, size=(13, num_bits), dtype=np.uint8)
        words = pack_bits_u64(items)
        c_order = hamming_matrix_packed(
            pack_bits_u64(queries), np.ascontiguousarray(words)
        )
        f_order = hamming_matrix_packed(
            pack_bits_u64(queries), np.asfortranarray(words)
        )
        assert c_order.dtype == f_order.dtype == np.uint16
        np.testing.assert_array_equal(c_order, f_order)
        np.testing.assert_array_equal(c_order, hamming_matrix(queries, items))

    def test_index_scans_return_uint16(self):
        rng = np.random.default_rng(7)
        index = LSHHammingIndex(rng.normal(size=(40, 8)), signature_bits=96)
        queries = rng.normal(size=(3, 8))
        distances = index.distances_batch(queries)
        assert distances.dtype == np.uint16
        np.testing.assert_array_equal(
            distances,
            hamming_matrix(index.hasher.signatures(queries), index.item_signatures),
        )

    def test_words_beyond_uint16_range_rejected(self):
        too_wide = np.zeros((1, 1024), dtype=np.uint64)
        with pytest.raises(ValueError, match="uint16"):
            hamming_matrix_packed(too_wide, too_wide)

    def test_word_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_matrix_packed(
                np.zeros((1, 2), dtype=np.uint64),
                np.zeros((1, 3), dtype=np.uint64),
            )

    def test_pack_roundtrip_through_bytes(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(3, 100), dtype=np.uint8)
        words = pack_bits_u64(bits)
        recovered = unpack_bits(words.view(np.uint8), 100)
        np.testing.assert_array_equal(recovered, bits)


class TestTopkIndicesBatch:
    @staticmethod
    def reference(matrix, k, counts=None):
        rows = []
        for index, row in enumerate(matrix):
            masked = np.asarray(row, dtype=np.float64).copy()
            if counts is not None:
                masked[int(counts[index]) :] = -np.inf
            rows.append(np.argsort(-masked, kind="stable")[:k])
        return np.asarray(rows)

    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            num_queries = int(rng.integers(1, 8))
            width = int(rng.integers(1, 30))
            k = int(rng.integers(1, width + 4))
            # Heavy ties: scores drawn from a handful of values.
            matrix = rng.choice([0.1, 0.5, 0.5, 0.9], size=(num_queries, width))
            got = topk_indices_batch(matrix, k)
            np.testing.assert_array_equal(
                got, self.reference(matrix, min(k, width))
            )

    def test_valid_counts_mask_padding(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            num_queries = int(rng.integers(1, 8))
            width = int(rng.integers(2, 20))
            k = int(rng.integers(1, width + 2))
            counts = rng.integers(1, width + 1, size=num_queries)
            matrix = rng.choice([0.2, 0.7, 0.7], size=(num_queries, width))
            got = topk_indices_batch(matrix, k, valid_counts=counts)
            np.testing.assert_array_equal(
                got, self.reference(matrix, min(k, width), counts)
            )

    def test_empty_batch(self):
        assert topk_indices_batch(np.empty((0, 5)), 3).shape == (0, 3)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            topk_indices_batch(np.zeros((1, 3)), 0)


class TestCosineTopkBatch:
    @staticmethod
    def assert_rows_match(queries, items, k):
        got = cosine_topk_batch(queries, items, np.linalg.norm(items, axis=1), k)
        assert got.shape == (len(queries), min(k, len(items)))
        for row, query in enumerate(queries):
            np.testing.assert_array_equal(got[row], cosine_topk(query, items, k)[0])

    def test_matches_per_query_cosine_topk(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            num_queries = int(rng.integers(1, 8))
            num_items = int(rng.integers(1, 60))
            dim = int(rng.integers(1, 40))
            k = int(rng.integers(1, num_items + 4))
            queries = rng.normal(size=(num_queries, dim))
            items = rng.normal(size=(num_items, dim))
            self.assert_rows_match(queries, items, k)

    def test_zero_query(self):
        rng = np.random.default_rng(1)
        items = rng.normal(size=(12, 6))
        queries = np.vstack([np.zeros(6), rng.normal(size=6)])
        for k in (1, 5, 12):
            self.assert_rows_match(queries, items, k)

    def test_zero_norm_item_row(self):
        rng = np.random.default_rng(2)
        items = rng.normal(size=(10, 4))
        items[[0, 6]] = 0.0
        queries = rng.normal(size=(5, 4))
        for k in (1, 3, 9, 10):
            self.assert_rows_match(queries, items, k)

    def test_duplicate_rows_tie_at_kth_place(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(6, 5))
        # Each row three times: every k not a multiple of 3 splits a tie.
        items = np.vstack([base, base, base])
        queries = rng.normal(size=(7, 5))
        for k in range(1, items.shape[0] + 1):
            self.assert_rows_match(queries, items, k)

    def test_near_ties_keep_single_query_rounding(self):
        # Rows a few ulps apart: their order is decided by the last bits
        # of each similarity, so any other reduction order shows here.
        rng = np.random.default_rng(5)
        items = rng.normal(size=(1, 32)) + 1e-15 * rng.normal(size=(300, 32))
        queries = rng.normal(size=(20, 32))
        for k in (1, 10, 150):
            self.assert_rows_match(queries, items, k)

    def test_k_at_or_above_item_count(self):
        rng = np.random.default_rng(4)
        items = rng.normal(size=(9, 3))
        queries = rng.normal(size=(4, 3))
        for k in (9, 10, 50):
            self.assert_rows_match(queries, items, k)

    def test_empty_batch(self):
        items = np.ones((5, 3))
        assert cosine_topk_batch(np.empty((0, 3)), items, np.ones(5), 2).shape == (0, 2)

    def test_invalid_args_rejected(self):
        norms = np.ones(4)
        with pytest.raises(ValueError):
            cosine_topk_batch(np.ones((1, 3)), np.ones((4, 3)), norms, 0)
        with pytest.raises(ValueError):
            cosine_topk_batch(np.ones((1, 2)), np.ones((4, 3)), norms, 1)
        with pytest.raises(ValueError):
            cosine_topk_batch(np.ones(3), np.ones((4, 3)), norms, 1)


class TestFixedRadiusBatch:
    @staticmethod
    def reference_row(distances, radius, cap):
        candidates = fixed_radius_candidates(distances, radius)
        if candidates.shape[0] == 0:
            candidates = np.array([int(np.argmin(distances))])
        return cap_candidates(candidates, distances, cap)

    def test_matches_scalar_chain(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            num_queries = int(rng.integers(1, 10))
            num_items = int(rng.integers(1, 40))
            radius = int(rng.integers(0, 12))
            cap = int(rng.integers(1, 15))
            distances = rng.integers(0, 16, size=(num_queries, num_items))
            padded, counts = fixed_radius_candidates_batch(
                distances, radius, cap
            )
            for row in range(num_queries):
                expected = self.reference_row(distances[row], radius, cap)
                assert counts[row] == expected.shape[0]
                np.testing.assert_array_equal(
                    padded[row, : counts[row]], expected
                )
                # Padding is the one-past-the-end sentinel only.
                assert (padded[row, counts[row] :] == num_items).all()

    @staticmethod
    def assert_rows_match(distances, radius, cap):
        padded, counts = fixed_radius_candidates_batch(distances, radius, cap)
        num_queries, num_items = distances.shape
        assert padded.dtype == np.int64
        assert counts.shape == (num_queries,)
        assert padded.shape[0] == num_queries
        for row in range(num_queries):
            expected = TestFixedRadiusBatch.reference_row(
                distances[row].astype(np.int64), radius, cap
            )
            assert counts[row] == expected.shape[0]
            np.testing.assert_array_equal(padded[row, : counts[row]], expected)
            assert (padded[row, counts[row] :] == num_items).all()

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64])
    def test_edge_shapes_and_radii(self, dtype):
        rng = np.random.default_rng(11)
        bits = 256
        rows = rng.integers(0, bits + 1, size=(5, 30)).astype(dtype)
        rows[:, ::7] = 0  # exact matches for radius 0
        # radius 0; radius at and past the signature length; cap = 1.
        for radius, cap in ((0, 4), (bits, 8), (bits + 50, 30), (bits, 1), (3, 1)):
            self.assert_rows_match(rows, radius, cap)
        # Every distance tied at the cut: the lowest indices win, and a
        # radius just below the tie falls back to index 0.
        tied = np.full((3, 12), 9, dtype=dtype)
        for radius, cap in ((9, 5), (9, 12), (9, 1), (8, 5)):
            self.assert_rows_match(tied, radius, cap)
        # Q = 1, N = 1, and both at once.
        self.assert_rows_match(rows[:1], 40, 6)
        self.assert_rows_match(rows[:, :1], 0, 3)
        self.assert_rows_match(np.array([[17]], dtype=dtype), 16, 2)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64])
    def test_empty_batch(self, dtype):
        padded, counts = fixed_radius_candidates_batch(
            np.zeros((0, 9), dtype=dtype), 3, 4
        )
        assert padded.shape[0] == 0
        assert counts.shape == (0,)

    def test_uint16_and_int64_rows_select_alike(self):
        rng = np.random.default_rng(12)
        for trial in range(40):
            wide = rng.integers(0, 20, size=(int(rng.integers(1, 9)), 50))
            radius, cap = int(rng.integers(0, 12)), int(rng.integers(1, 20))
            narrow = fixed_radius_candidates_batch(wide.astype(np.uint16), radius, cap)
            reference = fixed_radius_candidates_batch(wide, radius, cap)
            np.testing.assert_array_equal(narrow[0], reference[0])
            np.testing.assert_array_equal(narrow[1], reference[1])

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            fixed_radius_candidates_batch(np.zeros((1, 2)), -1, 3)
        with pytest.raises(ValueError):
            fixed_radius_candidates_batch(np.zeros((1, 2)), 1, 0)
        with pytest.raises(ValueError):
            fixed_radius_candidates_batch(np.zeros(3), 1, 1)


class TestCalibratePopulationRadiusPin:
    @staticmethod
    def reference(distance_rows, target, max_radius):
        # The pre-vectorisation implementation: scan radii, per-radius
        # per-row counting, stop once the gap stops shrinking.
        rows = [np.asarray(row, dtype=np.int64) for row in distance_rows]
        best_radius, best_gap = 0, float("inf")
        for radius in range(max_radius + 1):
            mean_count = float(
                np.mean([(row <= radius).sum() for row in rows])
            )
            gap = abs(mean_count - target)
            if gap < best_gap:
                best_radius, best_gap = radius, gap
        return best_radius

    def test_identical_radius_selection(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            num_rows = int(rng.integers(1, 8))
            num_items = int(rng.integers(1, 50))
            max_radius = int(rng.integers(0, 40))
            target = float(rng.uniform(0.5, 30.0))
            rows = [
                rng.integers(0, max(1, max_radius + 10), size=num_items)
                for _ in range(num_rows)
            ]
            assert calibrate_population_radius(
                rows, target, max_radius
            ) == self.reference(rows, target, max_radius)

    def test_ragged_rows(self):
        rows = [np.array([0, 1, 5]), np.array([2])]
        assert calibrate_population_radius(rows, 2.0, 8) == self.reference(
            rows, 2.0, 8
        )

    def test_negative_distances_rejected(self):
        with pytest.raises(ValueError):
            calibrate_population_radius([np.array([-1, 2])], 1.0, 4)
