"""Tests for the synthetic-data machinery."""

import numpy as np
import pytest

from repro.data.synthetic import (
    LatentFactorModel,
    sample_zipf,
    train_test_split_indices,
    zipf_probabilities,
)


class TestZipf:
    def test_probabilities_normalised(self):
        assert zipf_probabilities(100).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        probabilities = zipf_probabilities(50)
        assert all(a >= b for a, b in zip(probabilities, probabilities[1:]))

    def test_head_dominates(self):
        probabilities = zipf_probabilities(1000, exponent=1.05)
        assert probabilities[:10].sum() > 0.25

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0)
        with pytest.raises(ValueError):
            zipf_probabilities(10, exponent=0.0)

    def test_sampling_skews_to_head(self):
        samples = sample_zipf(100, 5000, rng=np.random.default_rng(0))
        head_fraction = (samples < 10).mean()
        assert head_fraction > 0.3


class TestLatentFactorModel:
    def test_shapes(self):
        model = LatentFactorModel(num_users=10, num_items=20, latent_dim=4)
        assert model.user_factors.shape == (10, 4)
        assert model.item_factors.shape == (20, 4)
        assert model.popularity_bias.shape == (20,)

    def test_affinities_deterministic(self):
        a = LatentFactorModel(5, 8, seed=3).affinities(2)
        b = LatentFactorModel(5, 8, seed=3).affinities(2)
        np.testing.assert_array_equal(a, b)

    def test_interaction_probabilities_normalised(self):
        model = LatentFactorModel(4, 30)
        assert model.interaction_probabilities(0).sum() == pytest.approx(1.0)

    def test_history_prefers_high_affinity_items(self):
        model = LatentFactorModel(2, 100, temperature=0.3, seed=0)
        history = model.sample_history(0, 200)
        sampled_affinity = model.affinities(0)[history].mean()
        mean_affinity = model.affinities(0).mean()
        assert sampled_affinity > mean_affinity

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_history_replays_generator_choice(self, seed):
        # sample_history replays numpy's choice(p=...) without its
        # validation of p: same draws, same stream position afterwards.
        # Fails first if a numpy release changes choice's algorithm.
        model = LatentFactorModel(6, 300, seed=seed)
        reference = np.random.default_rng(seed + 100)
        model._rng = np.random.default_rng(seed + 100)
        for user, length in [(0, 1), (1, 2), (2, 31), (3, 200), (4, 7), (5, 1000)]:
            expected = reference.choice(
                model.num_items, size=length, p=model.interaction_probabilities(user)
            )
            history = model.sample_history(user, length)
            assert history.dtype == expected.dtype
            np.testing.assert_array_equal(history, expected)
        assert model._rng.random() == reference.random()

    def test_click_rate_reflects_affinity(self):
        model = LatentFactorModel(1, 50, seed=1)
        affinities = model.affinities(0)
        best = int(np.argmax(affinities))
        worst = int(np.argmin(affinities))
        best_clicks = sum(model.sample_click(0, best) for _ in range(100))
        worst_clicks = sum(model.sample_click(0, worst) for _ in range(100))
        assert best_clicks > worst_clicks

    def test_out_of_range_user_rejected(self):
        with pytest.raises(IndexError):
            LatentFactorModel(2, 3).affinities(5)

    def test_invalid_temperature_rejected(self):
        with pytest.raises(ValueError):
            LatentFactorModel(2, 3, temperature=0.0)


class TestSplit:
    def test_partition_properties(self):
        train, test = train_test_split_indices(100, 0.2)
        assert len(train) + len(test) == 100
        assert len(set(train) & set(test)) == 0
        assert len(test) == 20

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            train_test_split_indices(10, 1.5)
