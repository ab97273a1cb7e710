"""LSH-Hamming nearest-neighbour search index.

This is the software-reference version of what iMARS executes in hardware:
item embeddings are hashed once to LSH signatures (stored alongside the
ItET rows, Sec. III-B); a query embedding is hashed and compared by Hamming
distance.  Both the top-k and the fixed-radius ("threshold match") query
styles are provided; iMARS uses the latter because it maps directly onto
the TCAM threshold-match mode.

The index keeps the signatures in the TCAM's layout as well: packed into
``uint64`` words and stored column-major, so the multi-query kernel
(:func:`~repro.lsh.hamming.hamming_matrix_packed`) scans one contiguous
word column of every item at a time and returns ``uint16`` distances.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.lsh.hyperplane import RandomHyperplaneLSH
from repro.lsh.hamming import hamming_matrix_packed, pack_bits_u64
from repro.nns.exact import topk_indices

__all__ = ["LSHHammingIndex"]


class LSHHammingIndex:
    """An immutable LSH index over a fixed item-embedding matrix."""

    def __init__(
        self,
        item_embeddings: np.ndarray,
        signature_bits: int = 256,
        seed: int = 0,
        hasher: Optional[RandomHyperplaneLSH] = None,
    ):
        items = np.asarray(item_embeddings, dtype=np.float64)
        if items.ndim != 2 or items.shape[0] < 1:
            raise ValueError(f"item embeddings must be a non-empty 2-D matrix, got {items.shape}")
        self.num_items, self.dim = items.shape
        self.hasher = hasher or RandomHyperplaneLSH(self.dim, signature_bits, seed=seed)
        if self.hasher.input_dim != self.dim:
            raise ValueError("hasher input dimension does not match item embeddings")
        self.signature_bits = self.hasher.signature_bits
        self._item_signatures = self.hasher.signatures(items)
        # The same signatures as uint64 words, column-major: each word
        # column of every item is one contiguous bitplane, which the
        # multi-query XOR+popcount kernel scans a column at a time.
        self._item_words = np.asfortranarray(pack_bits_u64(self._item_signatures))

    @property
    def item_signatures(self) -> np.ndarray:
        """The stored (n, bits) signature matrix (what the ItET rows hold)."""
        return self._item_signatures.copy()

    def query_signature(self, query_embedding: np.ndarray) -> np.ndarray:
        """Hash a query embedding to its signature."""
        return self.hasher.signature(query_embedding)

    def distances(self, query_embedding: np.ndarray) -> np.ndarray:
        """``uint16`` Hamming distances from the hashed query to every stored item."""
        return self.distances_batch(
            np.asarray(query_embedding).reshape(1, -1)
        )[0]

    def distances_batch(self, query_embeddings: np.ndarray) -> np.ndarray:
        """(Q, n) ``uint16`` Hamming distances for a whole query batch at once.

        Queries are hashed in one projection and scanned against the
        column-major item words one word column at a time -- the TCAM's
        all-rows match, which the serving hot path runs.  Row ``q``
        equals ``distances(query_embeddings[q])`` exactly (integer counts).
        """
        matrix = np.atleast_2d(np.asarray(query_embeddings, dtype=np.float64))
        signatures = self.hasher.signatures(matrix)
        return hamming_matrix_packed(pack_bits_u64(signatures), self._item_words)

    def search_topk(self, query_embedding: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """k items with the smallest Hamming distance: (indices, distances)."""
        distances = self.distances(query_embedding)
        winners = topk_indices(-distances.astype(np.float64), k)
        return winners, distances[winners]

    def search_radius(self, query_embedding: np.ndarray, radius: int) -> np.ndarray:
        """Fixed-radius search: indices with distance <= radius (ascending).

        This matches the TCAM threshold-match semantics: all rows whose
        mismatch count is within the programmed threshold flag
        simultaneously; the priority encoder then drains them in row order.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        distances = self.distances(query_embedding)
        return np.flatnonzero(distances <= radius)

    def calibrate_radius(self, query_embedding: np.ndarray, target_count: int) -> int:
        """Smallest radius returning at least *target_count* candidates.

        The paper sets the dummy-cell reference so the filtering stage
        yields O(100) candidates; this helper performs that calibration for
        a given query (and the experiments calibrate on a validation set).
        """
        if target_count < 1:
            raise ValueError("target count must be >= 1")
        distances = np.sort(self.distances(query_embedding))
        cutoff = min(target_count, distances.shape[0]) - 1
        return int(distances[cutoff])

    def calibrate_radius_batch(
        self, query_embeddings: np.ndarray, target_count: int
    ) -> np.ndarray:
        """Per-probe :meth:`calibrate_radius` for a whole probe batch.

        One hashed projection, one packed scan and one row-sorted cutoff
        replace the per-probe loop; entry ``q`` equals
        ``calibrate_radius(query_embeddings[q], target_count)`` exactly.
        """
        if target_count < 1:
            raise ValueError("target count must be >= 1")
        distances = np.sort(self.distances_batch(query_embeddings), axis=1)
        cutoff = min(target_count, distances.shape[1]) - 1
        return distances[:, cutoff].astype(np.int64)
