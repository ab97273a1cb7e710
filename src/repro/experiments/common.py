"""Shared experiment infrastructure: paper targets and comparison records.

Every experiment module returns a structured result carrying the paper's
published value next to the reproduced one, so the benchmark harness (and
EXPERIMENTS.md) can report paper-vs-measured for every table and figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.mapping import WorkloadMapping
from repro.core.pipeline import ServeQuery
from repro.data.movielens import MovieLensDataset, movielens_table_specs
from repro.models.youtube_dnn import (
    YouTubeDNNConfig,
    YouTubeDNNFiltering,
    YouTubeDNNRanking,
)
from repro.serving.shard import ShardedEngine, make_sharded_engine

__all__ = [
    "PaperComparison",
    "ExperimentReport",
    "ServingCorpus",
    "relative_error",
    "seeded_rng",
]


class ServingCorpus:
    """One serving study's corpus and the fleets it builds over it.

    A synthetic MovieLens at ``scale``, seeded *untrained* YouTubeDNN
    filtering and ranking models (serving behaviour -- scheduling,
    sharding, caching, cost accounting -- does not depend on embedding
    quality), ``workload[u]``, the query user ``u`` issues, and the
    MovieLens mapping, candidate budget, top-k and seed every fleet of
    the study shares.
    """

    def __init__(self, seed: int, scale: float, num_candidates: int, top_k: int):
        self.seed = seed
        self.num_candidates = num_candidates
        self.top_k = top_k
        self.dataset = MovieLensDataset(scale=scale, seed=seed)
        config = YouTubeDNNConfig(
            num_items=self.dataset.num_items,
            demographic_cardinalities=(self.dataset.num_users, 3, 7, 21, 450),
            seed=seed,
        )
        self.filtering = YouTubeDNNFiltering(config)
        self.ranking = YouTubeDNNRanking(config)
        self.mapping = WorkloadMapping(movielens_table_specs())
        self.workload = [
            ServeQuery.make(
                self.dataset.histories[user],
                self.dataset.demographics[user],
                self.dataset.ranking_context[user],
            )
            for user in range(self.dataset.num_users)
        ]

    def fleet(
        self, kind: str, shards: int = 1, replicas: int = 1, **options
    ) -> ShardedEngine:
        """A fresh ``kind`` ('imars' or 'gpu') fleet of ``shards`` x
        ``replicas``; ``options`` go to
        :func:`~repro.serving.shard.make_sharded_engine` (spillover)."""
        return make_sharded_engine(
            kind,
            self.filtering,
            self.ranking,
            shards,
            mapping=self.mapping if kind == "imars" else None,
            num_candidates=self.num_candidates,
            top_k=self.top_k,
            seed=self.seed,
            replicas_per_shard=replicas,
            **options,
        )

    def calibrate(self, probe_batch_size: int) -> Tuple[float, float]:
        """``(batch_one_s, capacity_qps)`` of one fresh iMARS engine: its
        batch-1 latency, then its throughput on one batch of the first
        ``probe_batch_size`` users' queries -- the operating point the
        studies scale their load and SLOs by."""
        workload = self.workload
        probe = self.fleet("imars")
        batch_one_s = probe.recommend_query(workload[0]).cost.latency_s
        probe_batch = probe.serve_batch(
            [workload[user % len(workload)] for user in range(probe_batch_size)]
        )
        return batch_one_s, probe_batch_size / probe_batch.cost.latency_s


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The repository-wide seeded RNG: one master ``seed``, many streams.

    Every stochastic component (experiment sweeps, serving traffic
    generators, noise models) derives its generator from a single
    user-facing ``--seed`` plus a small integer ``stream`` id, so a whole
    run is reproducible from one number while independent components do
    not share (or perturb) each other's random state.
    """
    if stream < 0:
        raise ValueError(f"stream id must be non-negative, got {stream}")
    # Seed with the (seed, stream) *pair*: SeedSequence hashes both words,
    # so (0, 2) and (1, 1) produce unrelated generators (a plain
    # ``seed + stream`` sum would collide).
    return np.random.default_rng([seed, stream])


def relative_error(measured: float, published: float) -> float:
    """Signed relative deviation of measured from published."""
    if published == 0.0:
        raise ValueError("published value must be non-zero")
    return (measured - published) / published


@dataclass
class PaperComparison:
    """One scalar reproduced against the paper."""

    name: str
    published: float
    measured: float
    unit: str = ""

    @property
    def error(self) -> float:
        return relative_error(self.measured, self.published)

    def within(self, tolerance: float) -> bool:
        """True when |relative error| <= tolerance."""
        return abs(self.error) <= tolerance

    def format_row(self) -> str:
        return (
            f"  {self.name:<42s} paper={self.published:>12.4g} "
            f"measured={self.measured:>12.4g} {self.unit:<6s} "
            f"({self.error * 100.0:+6.1f}%)"
        )


@dataclass
class ExperimentReport:
    """A named collection of paper comparisons plus free-form notes."""

    experiment_id: str
    title: str
    comparisons: List[PaperComparison] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def add(
        self, name: str, published: float, measured: float, unit: str = ""
    ) -> PaperComparison:
        comparison = PaperComparison(name, published, measured, unit)
        self.comparisons.append(comparison)
        return comparison

    def note(self, text: str) -> None:
        self.notes.append(text)

    def worst_error(self) -> Optional[float]:
        if not self.comparisons:
            return None
        return max(abs(comparison.error) for comparison in self.comparisons)

    def all_within(self, tolerance: float) -> bool:
        return all(comparison.within(tolerance) for comparison in self.comparisons)

    def format(self) -> str:
        lines = [f"[{self.experiment_id}] {self.title}"]
        lines.extend(comparison.format_row() for comparison in self.comparisons)
        lines.extend(f"  note: {text}" for text in self.notes)
        return "\n".join(lines)
