"""YouTubeDNN (Covington et al., RecSys'16) -- filtering + ranking models.

The paper evaluates YouTubeDNN on MovieLens-1M for *both* stages
(Table I):

* **Filtering tower** ("candidate generation"): pooled watch-history item
  embeddings + demographic (UIET) embeddings -> MLP 128-64-32 -> an
  L2-normalised 32-d user embedding; candidates come from an NNS of that
  embedding against the item embedding table.  Trained with sampled
  softmax: the positive is the held-out next watch.
* **Ranking model**: user embedding + candidate-item embedding + ranking
  UIET embeddings -> MLP 128-1 -> sigmoid CTR.

Both models are built on the NumPy nn substrate; the item embedding table
doubles as the ItET that iMARS stores in CMAs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Embedding, Linear
from repro.nn.losses import BCEWithLogitsLoss, SampledSoftmaxLoss
from repro.nn.mlp import build_mlp
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.stable import stable_matmul

__all__ = [
    "YouTubeDNNConfig",
    "YouTubeDNNFiltering",
    "YouTubeDNNRanking",
    "RankingServingScorer",
]


@dataclass(frozen=True)
class YouTubeDNNConfig:
    """Model geometry (Table I defaults).

    ``demographic_cardinalities`` lists the UIET sizes used by the
    filtering stage; ``ranking_extra_cardinalities`` the ranking-only
    UIETs.
    """

    num_items: int = 3000
    embedding_dim: int = 32
    demographic_cardinalities: Tuple[int, ...] = (6040, 3, 7, 21, 450)
    ranking_extra_cardinalities: Tuple[int, ...] = (18,)
    filtering_spec: str = "128-64-32"
    ranking_spec: str = "128-1"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_items < 2:
            raise ValueError("need at least two items")
        if self.embedding_dim < 1:
            raise ValueError("embedding dimension must be positive")
        if not self.demographic_cardinalities:
            raise ValueError("need at least one demographic feature")
        tower_output = int(self.filtering_spec.split("-")[-1])
        if tower_output != self.embedding_dim:
            raise ValueError(
                "the filtering tower's output width must equal the item "
                f"embedding dimension for the NNS to work: got {tower_output} "
                f"vs {self.embedding_dim}"
            )


class YouTubeDNNFiltering(Module):
    """The candidate-generation (filtering) tower."""

    def __init__(self, config: Optional[YouTubeDNNConfig] = None):
        super().__init__()
        self.config = config or YouTubeDNNConfig()
        rng = np.random.default_rng(self.config.seed)
        dim = self.config.embedding_dim
        self.item_embeddings = Embedding(self.config.num_items, dim, rng=rng)
        self.demographic_embeddings: List[Embedding] = []
        for index, cardinality in enumerate(self.config.demographic_cardinalities):
            table = Embedding(cardinality, dim, rng=rng)
            self._modules[f"demographic{index}"] = table
            self.demographic_embeddings.append(table)
        tower_input = dim * (1 + len(self.config.demographic_cardinalities))
        self.tower = build_mlp(tower_input, self.config.filtering_spec, head="l2norm", rng=rng)
        self._history_cache: Optional[Sequence[Sequence[int]]] = None
        self._demographics_cache: Optional[np.ndarray] = None

    # -- forward -------------------------------------------------------------------
    def user_embedding(
        self,
        histories: Sequence[Sequence[int]],
        demographics: np.ndarray,
    ) -> np.ndarray:
        """User embeddings for a batch.

        Parameters
        ----------
        histories:
            Per-user watch history (item indices); pooled by mean.
        demographics:
            (batch, num_demographic_features) integer matrix.
        """
        demo = np.asarray(demographics, dtype=np.int64)
        if demo.ndim != 2 or demo.shape[1] != len(self.demographic_embeddings):
            raise ValueError(
                f"demographics must be (batch, {len(self.demographic_embeddings)})"
            )
        if len(histories) != demo.shape[0]:
            raise ValueError("history and demographic batch sizes differ")
        dim = self.config.embedding_dim
        pooled = np.zeros((len(histories), dim))
        for row, history in enumerate(histories):
            indices = np.asarray(list(history), dtype=np.int64)
            if indices.size == 0:
                continue
            pooled[row] = self.item_embeddings.weight.data[indices].mean(axis=0)
        parts = [pooled]
        for column, table in enumerate(self.demographic_embeddings):
            parts.append(table.weight.data[demo[:, column]])
        features = np.concatenate(parts, axis=1)
        self._history_cache = histories
        self._demographics_cache = demo
        self._features_cache = features
        return self.tower(features)

    def forward(self, inputs) -> np.ndarray:  # pragma: no cover - convenience alias
        histories, demographics = inputs
        return self.user_embedding(histories, demographics)

    def _backward_tower(self, grad_users: np.ndarray) -> None:
        """Push the sampled-softmax gradient through the tower + embeddings."""
        grad_features = self.tower.backward(grad_users)
        dim = self.config.embedding_dim
        grad_pooled = grad_features[:, :dim]
        for row, history in enumerate(self._history_cache):
            indices = np.asarray(list(history), dtype=np.int64)
            if indices.size == 0:
                continue
            np.add.at(
                self.item_embeddings.weight.grad,
                indices,
                grad_pooled[row] / indices.size,
            )
        for column, table in enumerate(self.demographic_embeddings):
            segment = grad_features[:, dim * (column + 1) : dim * (column + 2)]
            np.add.at(
                table.weight.grad,
                self._demographics_cache[:, column],
                segment,
            )

    # -- training ---------------------------------------------------------------------
    def train_retrieval(
        self,
        histories: Sequence[Sequence[int]],
        demographics: np.ndarray,
        positives: np.ndarray,
        epochs: int = 5,
        batch_size: int = 64,
        num_negatives: int = 20,
        lr: float = 0.01,
        seed: int = 0,
    ) -> List[float]:
        """Train with sampled softmax; returns the per-epoch mean loss."""
        rng = np.random.default_rng(seed)
        loss_fn = SampledSoftmaxLoss()
        optimizer = Adam(self.parameters(), lr=lr)
        targets = np.asarray(positives, dtype=np.int64)
        num_samples = targets.shape[0]
        demo = np.asarray(demographics, dtype=np.int64)
        epoch_losses: List[float] = []
        for _ in range(epochs):
            order = rng.permutation(num_samples)
            batch_losses: List[float] = []
            for start in range(0, num_samples, batch_size):
                batch = order[start : start + batch_size]
                batch_histories = [histories[index] for index in batch]
                batch_demo = demo[batch]
                batch_targets = targets[batch]
                negatives = rng.integers(
                    0, self.config.num_items, size=(batch.shape[0], num_negatives)
                )
                candidate_ids = np.concatenate(
                    [batch_targets[:, None], negatives], axis=1
                )
                optimizer.zero_grad()
                users = self.user_embedding(batch_histories, batch_demo)
                candidates = self.item_embeddings.weight.data[candidate_ids]
                loss = loss_fn(users, candidates)
                grad_users, grad_items = loss_fn.backward()
                self._backward_tower(grad_users)
                flat_ids = candidate_ids.reshape(-1)
                flat_grads = grad_items.reshape(-1, self.config.embedding_dim)
                np.add.at(self.item_embeddings.weight.grad, flat_ids, flat_grads)
                optimizer.step()
                batch_losses.append(loss)
            epoch_losses.append(float(np.mean(batch_losses)))
        return epoch_losses

    def item_table(self) -> np.ndarray:
        """The trained item embedding matrix (the ItET contents)."""
        return self.item_embeddings.weight.data.copy()


class YouTubeDNNRanking(Module):
    """The ranking model: (user, candidate item, context) -> CTR."""

    def __init__(self, config: Optional[YouTubeDNNConfig] = None):
        super().__init__()
        self.config = config or YouTubeDNNConfig()
        rng = np.random.default_rng(self.config.seed + 1)
        dim = self.config.embedding_dim
        cardinalities = (
            self.config.demographic_cardinalities
            + self.config.ranking_extra_cardinalities
        )
        self.context_embeddings: List[Embedding] = []
        for index, cardinality in enumerate(cardinalities):
            table = Embedding(cardinality, dim, rng=rng)
            self._modules[f"context{index}"] = table
            self.context_embeddings.append(table)
        net_input = dim * (2 + len(cardinalities))  # user + item + contexts
        self.net = build_mlp(net_input, self.config.ranking_spec, head="none", rng=rng)

    def _features(
        self,
        user_embeddings: np.ndarray,
        item_embeddings: np.ndarray,
        context: np.ndarray,
    ) -> np.ndarray:
        users = np.atleast_2d(np.asarray(user_embeddings, dtype=np.float64))
        items = np.atleast_2d(np.asarray(item_embeddings, dtype=np.float64))
        ctx = np.asarray(context, dtype=np.int64)
        if users.shape != items.shape:
            raise ValueError("user and item embedding batches must match")
        if ctx.ndim != 2 or ctx.shape[1] != len(self.context_embeddings):
            raise ValueError(
                f"context must be (batch, {len(self.context_embeddings)})"
            )
        parts = [users, items]
        for column, table in enumerate(self.context_embeddings):
            parts.append(table.weight.data[ctx[:, column]])
        return np.concatenate(parts, axis=1)

    def logits(
        self,
        user_embeddings: np.ndarray,
        item_embeddings: np.ndarray,
        context: np.ndarray,
    ) -> np.ndarray:
        """Raw CTR logits for (user, item, context) triples."""
        return self.net(self._features(user_embeddings, item_embeddings, context)).reshape(-1)

    def predict_ctr(
        self,
        user_embeddings: np.ndarray,
        item_embeddings: np.ndarray,
        context: np.ndarray,
    ) -> np.ndarray:
        """Click-through-rate predictions in [0, 1]."""
        scores = self.logits(user_embeddings, item_embeddings, context)
        return 1.0 / (1.0 + np.exp(-np.clip(scores, -60.0, 60.0)))

    def make_serving_scorer(self, item_table: np.ndarray) -> "RankingServingScorer":
        """A first-layer-decomposed CTR scorer over a fixed item table."""
        return RankingServingScorer(self, item_table)

    def train_ctr(
        self,
        user_embeddings: np.ndarray,
        item_embeddings: np.ndarray,
        context: np.ndarray,
        clicks: np.ndarray,
        epochs: int = 5,
        batch_size: int = 128,
        lr: float = 0.01,
        seed: int = 0,
    ) -> List[float]:
        """Train the MLP with BCE on observed clicks (embeddings are fixed
        inputs here; the context tables train end to end)."""
        rng = np.random.default_rng(seed)
        loss_fn = BCEWithLogitsLoss()
        optimizer = Adam(self.parameters(), lr=lr)
        labels = np.asarray(clicks, dtype=np.float64).reshape(-1)
        users = np.atleast_2d(user_embeddings)
        items = np.atleast_2d(item_embeddings)
        ctx = np.asarray(context, dtype=np.int64)
        num_samples = labels.shape[0]
        epoch_losses: List[float] = []
        for _ in range(epochs):
            order = rng.permutation(num_samples)
            batch_losses: List[float] = []
            for start in range(0, num_samples, batch_size):
                batch = order[start : start + batch_size]
                optimizer.zero_grad()
                features = self._features(users[batch], items[batch], ctx[batch])
                logits = self.net(features).reshape(-1)
                loss = loss_fn(logits, labels[batch])
                grad_logits = loss_fn.backward().reshape(-1, 1)
                grad_features = self.net.backward(grad_logits)
                dim = self.config.embedding_dim
                for column, table in enumerate(self.context_embeddings):
                    segment = grad_features[:, dim * (column + 2) : dim * (column + 3)]
                    np.add.at(table.weight.grad, ctx[batch][:, column], segment)
                optimizer.step()
                batch_losses.append(loss)
            epoch_losses.append(float(np.mean(batch_losses)))
        return epoch_losses


# Rows per ranking chunk: ~4 MB of float64 intermediates at width 128,
# small enough to stay in cache on the serving hosts.
_SCORE_CHUNK_ROWS = 4096


def score_in_chunks(total: int, score: Callable[[slice], np.ndarray]) -> np.ndarray:
    """``score(rows)`` over a flat pass of ``total`` rows, in fixed chunks.

    A large pass then never page-faults hundred-megabyte temporaries;
    every layer of the ranking net is row-stable, so chunk boundaries
    cannot change a single bit.
    """
    ctrs = np.empty(total, dtype=np.float64)
    for start in range(0, total, _SCORE_CHUNK_ROWS):
        rows = slice(start, start + _SCORE_CHUNK_ROWS)
        ctrs[rows] = score(rows)
    return ctrs


class RankingServingScorer:
    """Serving-time CTR scorer with the first Linear layer decomposed.

    In the serving hot path every candidate row of a query shares the
    same user and context feature blocks; only the item block varies --
    and items come from a *fixed* table.  The ranking net's first layer
    is linear in the concatenated blocks, so its output splits into

        first(features) = user @ W_u + sum_j ctx_j @ W_cj + b  (per query)
                          + item @ W_i                         (per item)

    where the item projection ``item_table @ W_i`` is computed *once* at
    scorer build.  Scoring a candidate then costs one row gather + one
    add + the (narrow) remaining layers, instead of re-multiplying the
    full concatenated feature width per candidate -- the dominant FLOP
    saving of the vectorised serving kernels.

    Bit-exactness contract: every matmul goes through
    :func:`~repro.nn.stable.stable_matmul` and the block sums always
    fold in the same order (user, contexts in feature order, bias,
    item), so scoring one query alone and scoring it inside any batch
    produce bitwise-identical CTRs.  (The decomposition itself rounds
    differently than one wide matmul, which is why *both* the per-query
    ``recommend`` and the batch path must score through this class.)
    """

    def __init__(self, model: YouTubeDNNRanking, item_table: np.ndarray):
        first = model.net.layers[0]
        if not isinstance(first, Linear):
            raise TypeError("ranking net must start with a Linear layer")
        dim = model.config.embedding_dim
        expected = dim * (2 + len(model.context_embeddings))
        if first.in_features != expected:
            raise ValueError(
                f"ranking net input width {first.in_features} does not match "
                f"the (user, item, contexts) feature layout ({expected})"
            )
        self._model = model
        self._dim = dim
        weight = first.weight.data
        self._user_block = weight[:dim]
        self._context_blocks = [
            weight[dim * (column + 2) : dim * (column + 3)]
            for column in range(len(model.context_embeddings))
        ]
        self._bias = None if first.bias is None else first.bias.data
        self._tail = model.net.layers[1:]
        table = np.asarray(item_table, dtype=np.float64)
        if table.ndim != 2 or table.shape[1] != dim:
            raise ValueError(f"item table must be (n, {dim}), got {table.shape}")
        self.item_projection = stable_matmul(table, weight[dim : 2 * dim])

    @property
    def num_items(self) -> int:
        return int(self.item_projection.shape[0])

    def query_constants(
        self, user_embeddings: np.ndarray, context: np.ndarray
    ) -> np.ndarray:
        """Per-query first-layer constants: user + context blocks + bias."""
        users = np.atleast_2d(np.asarray(user_embeddings, dtype=np.float64))
        ctx = np.atleast_2d(np.asarray(context, dtype=np.int64))
        constants = stable_matmul(users, self._user_block)
        for column, table in enumerate(self._model.context_embeddings):
            constants = constants + stable_matmul(
                table.weight.data[ctx[:, column]], self._context_blocks[column]
            )
        if self._bias is not None:
            constants = constants + self._bias
        return constants

    def _finish(self, first_layer_out: np.ndarray) -> np.ndarray:
        activation = first_layer_out
        for layer in self._tail:
            activation = layer(activation)
        logits = activation.reshape(-1)
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))

    def score_grouped(
        self,
        query_constants: np.ndarray,
        query_index: np.ndarray,
        item_indices: np.ndarray,
    ) -> np.ndarray:
        """CTRs for flat (query, item) pairs given *shared* constant rows.

        Row ``r`` scores item ``item_indices[r]`` for the query whose
        constants are ``query_constants[query_index[r]]``.  The constants
        gather happens per chunk, so a large batch never materialises the
        full duplicated-constants matrix (the gather is row-wise, hence
        bit-neutral).
        """
        constants = np.asarray(query_constants, dtype=np.float64)
        groups = np.asarray(query_index, dtype=np.int64)
        indices = np.asarray(item_indices, dtype=np.int64)
        if groups.shape[0] != indices.shape[0]:
            raise ValueError("one query index per item index required")
        return score_in_chunks(
            groups.shape[0],
            lambda rows: self._finish(
                constants[groups[rows]] + self.item_projection[indices[rows]]
            ),
        )

    def score_query(
        self,
        user_embedding: np.ndarray,
        item_indices: np.ndarray,
        context: Sequence[int],
    ) -> np.ndarray:
        """CTRs of one query against table rows ``item_indices``."""
        constants = self.query_constants(
            np.asarray(user_embedding, dtype=np.float64).reshape(1, -1),
            np.asarray(context, dtype=np.int64).reshape(1, -1),
        )
        indices = np.asarray(item_indices, dtype=np.int64)
        return self._finish(constants + self.item_projection[indices])
