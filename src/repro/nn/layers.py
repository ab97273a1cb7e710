"""Layers for the RecSys DNN stacks: dense, activations, embeddings.

The two models the paper evaluates need exactly this layer set:

* YouTubeDNN filtering tower: embeddings -> average pooling -> MLP
  (128-64-32) -> L2-normalised user embedding (Table I).
* YouTubeDNN ranking model: embeddings + user vector -> MLP (128-1) -> CTR.
* DLRM: dense bottom MLP (256-128-32), per-feature EmbeddingBags, pairwise
  feature interaction, top MLP (256-64-1) -> CTR.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn.stable import stable_matmul

__all__ = [
    "Linear",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "L2Normalize",
    "Embedding",
    "EmbeddingBag",
]


class Linear(Module):
    """Fully-connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("feature dimensions must be positive")
        generator = rng or np.random.default_rng(0)
        limit = np.sqrt(6.0 / (in_features + out_features))  # Glorot uniform
        self.weight = Parameter(
            generator.uniform(-limit, limit, size=(in_features, out_features)),
            name="weight",
        )
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None
        self.in_features = in_features
        self.out_features = out_features
        self._input_cache: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ValueError(
                f"expected (batch, {self.in_features}) input, got {inputs.shape}"
            )
        self._input_cache = inputs
        # stable_matmul keeps each output row bitwise-independent of the
        # batch it rides in -- the invariant the serving subsystem's
        # scalar-vs-vectorised equivalence contract rests on.
        outputs = stable_matmul(inputs, self.weight.data)
        if self.bias is not None:
            outputs = outputs + self.bias.data
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_cache is None:
            raise RuntimeError("backward called before forward")
        inputs = self._input_cache
        self.weight.grad += inputs.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data.T


class ReLU(Module):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._mask = inputs > 0.0
        # Bit for bit ``np.where(inputs > 0.0, inputs, 0.0)``: fmax maps
        # NaN and negatives to 0.0, and adding +0.0 turns its -0.0 into
        # +0.0.  The masked select costs ~6x more on a serving block.
        outputs = np.fmax(inputs, 0.0)
        outputs += 0.0
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Sigmoid(Module):
    """Logistic activation (used by the CTR output head)."""

    def __init__(self) -> None:
        super().__init__()
        self._output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        clipped = np.clip(inputs, -60.0, 60.0)
        self._output = 1.0 / (1.0 + np.exp(-clipped))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._output * (1.0 - self._output)


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._output = np.tanh(inputs)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._output * self._output)


class L2Normalize(Module):
    """Row-wise L2 normalisation (the YouTubeDNN user-embedding head).

    Normalised outputs make inner product equivalent to cosine similarity,
    which is what the filtering-stage NNS assumes.
    """

    def __init__(self, epsilon: float = 1e-12):
        super().__init__()
        self.epsilon = epsilon
        self._input_cache: Optional[np.ndarray] = None
        self._norms: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._input_cache = inputs
        self._norms = np.sqrt((inputs * inputs).sum(axis=1, keepdims=True)) + self.epsilon
        return inputs / self._norms

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_cache is None or self._norms is None:
            raise RuntimeError("backward called before forward")
        inputs, norms = self._input_cache, self._norms
        normalised = inputs / norms
        dot = (grad_output * normalised).sum(axis=1, keepdims=True)
        return (grad_output - normalised * dot) / norms


class Embedding(Module):
    """Lookup table: integer indices -> dense rows.

    This is the software view of an embedding table; the hardware view
    (rows inside CMAs) lives in :mod:`repro.core.mapping`.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        scale: float = 0.1,
    ):
        super().__init__()
        if num_embeddings < 1 or embedding_dim < 1:
            raise ValueError("embedding table dimensions must be positive")
        generator = rng or np.random.default_rng(0)
        self.weight = Parameter(
            generator.normal(0.0, scale, size=(num_embeddings, embedding_dim)),
            name="weight",
        )
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self._indices_cache: Optional[np.ndarray] = None

    def forward(self, indices: np.ndarray) -> np.ndarray:
        lookup = np.asarray(indices)
        if not np.issubdtype(lookup.dtype, np.integer):
            raise TypeError("embedding indices must be integers")
        if lookup.min(initial=0) < 0 or lookup.max(initial=0) >= self.num_embeddings:
            raise IndexError("embedding index out of range")
        self._indices_cache = lookup
        return self.weight.data[lookup]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._indices_cache is None:
            raise RuntimeError("backward called before forward")
        flat_indices = self._indices_cache.reshape(-1)
        flat_grads = grad_output.reshape(-1, self.embedding_dim)
        np.add.at(self.weight.grad, flat_indices, flat_grads)
        return np.zeros(0)  # indices carry no gradient


class EmbeddingBag(Module):
    """Embedding lookup + pooling over a bag of indices per sample.

    This is *the* sparse-feature operator of RecSys (Sec. II-A): a sample's
    multi-hot feature is a variable-length list of indices whose embedding
    rows are pooled (summed or averaged).  In iMARS the pooling runs as
    in-memory additions + adder trees; here it is the reference software
    semantics.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        mode: str = "sum",
        rng: Optional[np.random.Generator] = None,
        scale: float = 0.1,
    ):
        super().__init__()
        if mode not in ("sum", "mean"):
            raise ValueError(f"pooling mode must be 'sum' or 'mean', got {mode!r}")
        generator = rng or np.random.default_rng(0)
        self.weight = Parameter(
            generator.normal(0.0, scale, size=(num_embeddings, embedding_dim)),
            name="weight",
        )
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.mode = mode
        self._bags_cache: Optional[Sequence[Sequence[int]]] = None

    def forward(self, bags: Sequence[Sequence[int]]) -> np.ndarray:
        pooled = np.zeros((len(bags), self.embedding_dim), dtype=np.float64)
        for sample_index, bag in enumerate(bags):
            indices = np.asarray(list(bag), dtype=np.int64)
            if indices.size == 0:
                continue
            if indices.min() < 0 or indices.max() >= self.num_embeddings:
                raise IndexError("embedding index out of range")
            rows = self.weight.data[indices]
            pooled[sample_index] = rows.sum(axis=0)
            if self.mode == "mean":
                pooled[sample_index] /= indices.size
        self._bags_cache = bags
        return pooled

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._bags_cache is None:
            raise RuntimeError("backward called before forward")
        for sample_index, bag in enumerate(self._bags_cache):
            indices = np.asarray(list(bag), dtype=np.int64)
            if indices.size == 0:
                continue
            grad = grad_output[sample_index]
            if self.mode == "mean":
                grad = grad / indices.size
            np.add.at(self.weight.grad, indices, grad)
        return np.zeros(0)  # indices carry no gradient
