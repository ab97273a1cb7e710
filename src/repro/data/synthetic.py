"""Shared synthetic-data machinery: Zipfian popularity + latent factors.

The real MovieLens-1M and Criteo Kaggle datasets are not available offline,
so the generators in this package synthesise datasets with the *shape
statistics that the paper's results actually depend on*:

* embedding-table cardinalities match Table I (they drive the memory
  mapping, E2, and the ET-operation costs, E5);
* item popularity is Zipfian (drives realistic lookup locality);
* user-item interactions follow a latent-factor model, so a trained
  two-tower/DLRM model finds real structure and the accuracy experiment
  (E4) can measure how int8 quantisation and LSH signatures degrade it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["LatentFactorModel", "zipf_probabilities", "sample_zipf"]


def zipf_probabilities(num_items: int, exponent: float = 1.05) -> np.ndarray:
    """Normalised Zipf popularity over ``num_items`` ranks."""
    if num_items < 1:
        raise ValueError(f"item count must be positive, got {num_items}")
    if exponent <= 0.0:
        raise ValueError("Zipf exponent must be positive")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def sample_zipf(
    num_items: int,
    size: int,
    exponent: float = 1.05,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample item indices from a Zipf popularity distribution."""
    generator = rng or np.random.default_rng(0)
    probabilities = zipf_probabilities(num_items, exponent)
    return generator.choice(num_items, size=size, p=probabilities)


@dataclass
class LatentFactorModel:
    """Ground-truth preference model behind the synthetic interactions.

    Users and items carry latent vectors; the affinity of user u for item i
    is ``z_u . z_i + popularity_bias_i``.  Interactions are sampled with
    probability proportional to ``softmax(affinity / temperature)``, which
    yields sequences that a two-tower model can learn to predict -- the
    prerequisite for a meaningful hit-rate experiment.
    """

    num_users: int
    num_items: int
    latent_dim: int = 16
    popularity_exponent: float = 1.05
    temperature: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_users, self.num_items, self.latent_dim) < 1:
            raise ValueError("model dimensions must be positive")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        rng = np.random.default_rng(self.seed)
        self.user_factors = rng.normal(0.0, 1.0, size=(self.num_users, self.latent_dim))
        self.item_factors = rng.normal(0.0, 1.0, size=(self.num_items, self.latent_dim))
        popularity = zipf_probabilities(self.num_items, self.popularity_exponent)
        # Log-popularity bias, shuffled so that rank 1 is a random item.
        bias = np.log(popularity) - np.log(popularity).mean()
        rng.shuffle(bias)
        self.popularity_bias = 0.5 * bias
        self._rng = rng

    def affinities(self, user: int) -> np.ndarray:
        """Ground-truth affinity of *user* to every item."""
        if not 0 <= user < self.num_users:
            raise IndexError(f"user {user} out of range")
        return self.user_factors[user] @ self.item_factors.T + self.popularity_bias

    def interaction_probabilities(self, user: int) -> np.ndarray:
        """Softmax choice distribution over items for one user."""
        scores = self.affinities(user) / self.temperature
        scores -= scores.max()
        weights = np.exp(scores)
        return weights / weights.sum()

    def sample_history(self, user: int, length: int) -> np.ndarray:
        """Sample a watch history (with replacement, like repeat plays).

        Draws exactly what ``self._rng.choice(num_items, size=length,
        p=probabilities)`` draws -- numpy's own inverse-CDF algorithm on
        the same uniforms -- without ``choice``'s per-call validation of
        ``p`` (a softmax is a valid distribution by construction).
        """
        if length < 1:
            raise ValueError("history length must be positive")
        cdf = self.interaction_probabilities(user).cumsum()
        cdf /= cdf[-1]
        return cdf.searchsorted(self._rng.random(length), side="right")

    def sample_click(self, user: int, item: int, base_rate: float = 0.2) -> int:
        """Bernoulli click for a (user, item) pair, CTR-style."""
        if not 0 <= item < self.num_items:
            raise IndexError(f"item {item} out of range")
        affinity = float(self.user_factors[user] @ self.item_factors[item])
        affinity += float(self.popularity_bias[item])
        logit = affinity + np.log(base_rate / (1.0 - base_rate))
        probability = 1.0 / (1.0 + np.exp(-logit))
        return int(self._rng.random() < probability)


def train_test_split_indices(
    num_samples: int,
    test_fraction: float = 0.2,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Random (train, test) index split."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test fraction must be in (0, 1)")
    generator = rng or np.random.default_rng(0)
    order = generator.permutation(num_samples)
    cut = int(round(num_samples * (1.0 - test_fraction)))
    cut = min(max(cut, 1), num_samples - 1)
    return np.sort(order[:cut]), np.sort(order[cut:])
