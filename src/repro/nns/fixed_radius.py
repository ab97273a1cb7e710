"""Fixed-radius near-neighbour selection policies.

iMARS replaces the filtering stage's top-k candidate selection with "a
fixed-radius near neighbor search instead of top-k search" (Sec. III-B)
because the TCAM threshold match returns *all* rows within a Hamming radius
in one array operation.  The radius plays the role the candidate count k
plays in the baseline; these helpers calibrate a population-level radius so
that the *average* candidate count matches a target, and clamp per-query
candidate sets for the ranking stage.

The batched selection (:func:`fixed_radius_candidates_batch`) is one
stable argsort per batch, run in the distances' own dtype: the index's
``uint16`` counts take numpy's linear-time radix sort, and the priority
encoder's row order comes back from one sort of the survivors.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "calibrate_population_radius",
    "fixed_radius_candidates",
    "fixed_radius_candidates_batch",
    "cap_candidates",
]


def calibrate_population_radius(
    distance_rows: Sequence[np.ndarray],
    target_mean_candidates: float,
    max_radius: int,
) -> int:
    """Radius whose mean candidate count best matches the target.

    Parameters
    ----------
    distance_rows:
        One Hamming-distance vector per calibration query.
    target_mean_candidates:
        Desired average candidate-set size (the paper's O(100)).
    max_radius:
        Upper bound (the signature length).
    """
    if target_mean_candidates <= 0.0:
        raise ValueError("target candidate count must be positive")
    if max_radius < 0:
        raise ValueError("max radius must be non-negative")
    rows = [np.asarray(row, dtype=np.int64) for row in distance_rows]
    if not rows:
        raise ValueError("need at least one calibration query")
    # One histogram over the stacked distances replaces the per-radius
    # per-row scan: mean_count(r) is a cumulative count of distances <= r.
    # Counts grow monotonically in r, so the first global argmin of the
    # gap is exactly what the scan-with-early-break used to return.
    stacked = np.concatenate(rows)
    if stacked.size and stacked.min() < 0:
        raise ValueError("distances must be non-negative")
    histogram = np.bincount(
        np.minimum(stacked, max_radius + 1), minlength=max_radius + 2
    )
    mean_counts = np.cumsum(histogram[: max_radius + 1]) / len(rows)
    gaps = np.abs(mean_counts - target_mean_candidates)
    return int(np.argmin(gaps))


def fixed_radius_candidates(distances: np.ndarray, radius: int) -> np.ndarray:
    """Indices within *radius*, in ascending index (priority-encoder) order."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return np.flatnonzero(np.asarray(distances, dtype=np.int64) <= radius)


def fixed_radius_candidates_batch(
    distances: np.ndarray, radius: int, cap: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched threshold match + nearest-fallback + cap over (Q, N) rows.

    One stable argsort per batch replaces the per-query
    ``fixed_radius_candidates`` / ``argmin`` fallback / ``cap_candidates``
    chain, reproducing its semantics exactly for every row:

    * rows with ``count`` in-radius entries keep all of them when
      ``count <= cap``, else the ``cap`` closest (stable ties by index);
    * empty rows fall back to the single nearest signature (the
      threshold raised one step);
    * each row's survivors come back in ascending index order.

    Integer distances are sorted in their own dtype (a stable sort has
    one answer whatever the width); any other dtype is cast to int64.

    Returns ``(padded, counts)``: ``padded`` is (Q, max(counts)) int64
    with each row's ``counts[q]`` candidate indices ascending, padded
    with ``N`` (one past the last valid index); ``counts`` is (Q,).
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    matrix = np.asarray(distances)
    if matrix.dtype.kind not in "iu":
        matrix = matrix.astype(np.int64)
    if matrix.ndim != 2:
        raise ValueError(f"distances must be (Q, N), got {matrix.shape}")
    num_queries, num_items = matrix.shape
    counts = np.clip((matrix <= radius).sum(axis=1), 1, cap)
    width = int(counts.max()) if num_queries else 1
    # Stable sort by (distance, index): the first ``count`` positions are
    # precisely the in-radius set (or the argmin fallback for count=1
    # rows), with capping preferring smaller distances then lower index --
    # the cap_candidates rule.
    order = np.argsort(matrix, axis=1, kind="stable")[:, :width]
    padded = np.where(np.arange(width) < counts[:, None], order, num_items)
    # Ascending-index (priority-encoder) order within each row; the
    # ``num_items`` sentinels sort past every real index.
    return np.sort(padded, axis=1), counts


def cap_candidates(candidates: np.ndarray, distances: np.ndarray, cap: int) -> np.ndarray:
    """Keep at most *cap* candidates, preferring smaller distances.

    The item buffer has finite capacity; when the threshold match returns
    more rows than the buffer holds, the closest candidates are retained
    (realised in hardware by stepping the reference current down).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    chosen = np.asarray(candidates, dtype=np.int64)
    if chosen.shape[0] <= cap:
        return chosen
    all_distances = np.asarray(distances, dtype=np.int64)
    order = np.argsort(all_distances[chosen], kind="stable")
    return np.sort(chosen[order[:cap]])
