"""Exact nearest-neighbour search (the FAISS IndexFlat substitute).

The paper's baseline filtering stage uses "a FAISS-based distance search"
(Sec. IV-B) over the item embedding table.  FAISS's flat indexes compute
exact brute-force distances; this module reimplements that semantics in
NumPy for the two metrics the paper uses: cosine distance and inner
product.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "cosine_similarities",
    "cosine_topk",
    "cosine_topk_batch",
    "inner_product_topk",
    "topk_indices",
    "topk_indices_batch",
]


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, sorted descending by score.

    Uses argpartition for O(n) selection then sorts only the k winners --
    the same strategy a GPU top-k kernel uses.
    """
    flat = np.asarray(scores, dtype=np.float64).reshape(-1)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, flat.shape[0])
    partitioned = np.argpartition(-flat, k - 1)[:k]
    return partitioned[np.argsort(-flat[partitioned], kind="stable")]


def topk_indices_batch(
    scores: np.ndarray,
    k: int,
    valid_counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Multi-query top-k: one argpartition over a (Q, N) score matrix.

    Returns a (Q, min(k, N)) index matrix whose row ``q`` equals
    ``np.argsort(-scores[q], kind="stable")[:k]`` -- descending score,
    ties broken by ascending index -- which is the deterministic order
    every serving engine's final top-k uses.  The O(N) argpartition does
    the selection; only rows with a tie *straddling* the k-th place fall
    back to a full sort, so the common case never sorts the corpus.

    ``valid_counts`` marks ragged rows: entries at column >= count are
    padding and never selected (rows with fewer than ``k`` valid entries
    return their valid indices first; callers slice by count).
    """
    matrix = np.asarray(scores, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"scores must be (Q, N), got {matrix.shape}")
    num_queries, width = matrix.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if valid_counts is not None:
        counts = np.asarray(valid_counts, dtype=np.int64)
        if counts.shape != (num_queries,):
            raise ValueError("valid_counts must have one entry per row")
        # Padding sinks below every finite score and keeps row order.
        matrix = np.where(np.arange(width) < counts[:, None], matrix, -np.inf)
    k = min(k, width)
    if num_queries == 0:
        return np.empty((0, k), dtype=np.int64)
    if k == width:
        chosen = np.broadcast_to(np.arange(width), (num_queries, width)).copy()
    else:
        chosen = np.argpartition(-matrix, k - 1, axis=1)[:, :k]
        chosen_scores = np.take_along_axis(matrix, chosen, axis=1)
        # A tie straddles the boundary when the k-th value occurs more
        # often in the row than in the selected set; those rows need the
        # full (-score, index) order to pick the lowest-index ties.
        kth = chosen_scores.min(axis=1, keepdims=True)
        total_at_kth = (matrix == kth).sum(axis=1)
        chosen_at_kth = (chosen_scores == kth).sum(axis=1)
        for row in np.flatnonzero(total_at_kth > chosen_at_kth):
            chosen[row] = np.argsort(-matrix[row], kind="stable")[:k]
    row_scores = np.take_along_axis(matrix, chosen, axis=1)
    # lexsort keys are least-significant first: order by descending score,
    # then ascending index -- exactly the stable-argsort tie rule.
    order = np.lexsort((chosen, -row_scores), axis=1)
    return np.take_along_axis(chosen, order, axis=1)


def cosine_similarities(query: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Cosine similarity from one query vector to each item row."""
    vector = np.asarray(query, dtype=np.float64).reshape(-1)
    matrix = np.asarray(items, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != vector.shape[0]:
        raise ValueError(f"items must be (n, {vector.shape[0]}), got {matrix.shape}")
    query_norm = np.linalg.norm(vector)
    item_norms = np.linalg.norm(matrix, axis=1)
    denominator = item_norms * query_norm
    # Zero-norm rows get similarity 0 (they can never be nearest).
    with np.errstate(divide="ignore", invalid="ignore"):
        similarities = np.where(denominator > 0.0, matrix @ vector / denominator, 0.0)
    return similarities


def cosine_topk(query: np.ndarray, items: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k items by cosine similarity: (indices, similarities)."""
    similarities = cosine_similarities(query, items)
    winners = topk_indices(similarities, k)
    return winners, similarities[winners]


def cosine_topk_batch(
    queries: np.ndarray, items: np.ndarray, item_norms: np.ndarray, k: int
) -> np.ndarray:
    """Multi-query exact-cosine top-k: a (Q, min(k, n)) index matrix.

    ``item_norms`` is ``np.linalg.norm(items, axis=1)``, which a caller
    with a fixed table computes once.  Row ``q`` then equals
    ``cosine_topk(queries[q], items, k)[0]`` bit for bit: the same
    similarities and the same argpartition + stable-sort rule (ties at
    the k-th place resolve as the single-query kernel resolves them, not
    by lowest index).
    """
    vectors = np.asarray(queries, dtype=np.float64)
    matrix = np.asarray(items, dtype=np.float64)
    if vectors.ndim != 2 or matrix.ndim != 2 or matrix.shape[1] != vectors.shape[1]:
        raise ValueError(
            f"need (Q, d) queries and (n, d) items, got {vectors.shape} and {matrix.shape}"
        )
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, matrix.shape[0])
    # One matrix-vector product per query, stacked: each row reduces like
    # the single-query ``matrix @ vector``.  A 2-D GEMM (``vectors @
    # matrix.T``) blocks the reduction differently and can flip the last
    # bit of a similarity -- enough to reorder near-ties.
    products = np.matmul(matrix, vectors[:, :, None])[:, :, 0]
    query_norms = np.array([np.linalg.norm(vector) for vector in vectors])
    denominator = item_norms * query_norms[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        similarities = np.where(denominator > 0.0, products / denominator, 0.0)
    partitioned = np.argpartition(-similarities, k - 1, axis=1)[:, :k]
    winners = np.take_along_axis(similarities, partitioned, axis=1)
    order = np.argsort(-winners, axis=1, kind="stable")
    return np.take_along_axis(partitioned, order, axis=1)


def inner_product_topk(query: np.ndarray, items: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k items by inner product: (indices, scores)."""
    vector = np.asarray(query, dtype=np.float64).reshape(-1)
    matrix = np.asarray(items, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != vector.shape[0]:
        raise ValueError(f"items must be (n, {vector.shape[0]}), got {matrix.shape}")
    scores = matrix @ vector
    winners = topk_indices(scores, k)
    return winners, scores[winners]
