"""Repo-wide test configuration: deterministic Hypothesis profiles and
the per-query twin every serving equivalence suite compares against.

CI runs with ``HYPOTHESIS_PROFILE=ci``: derandomized (the example
sequence depends only on the test, not on a random seed), so a red
property failure always reproduces locally with the same command.
The default ``dev`` profile keeps random exploration for local runs.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core import pipeline
from repro.models.youtube_dnn import RankingServingScorer
from repro.serving.shard import iter_engines

settings.register_profile("dev", deadline=None)
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def _rows_as_arrays(rows, top_k):
    """Ranked rows as ``_ranked_arrays`` returns them: (Q, top-k) ids and
    CTRs padded past each row's length, and the (Q,) counts."""
    items = np.zeros((len(rows), top_k), dtype=np.int64)
    scores = np.full((len(rows), top_k), -1.0)
    for position, (row_items, row_scores, _) in enumerate(rows):
        items[position, : len(row_items)] = row_items
        scores[position, : len(row_scores)] = row_scores
    return items, scores, np.asarray([row[2] for row in rows], dtype=np.int64)


def _per_query_twin(fleet):
    """Make every engine of ``fleet`` serve each batch as per-query
    ``recommend`` calls.

    This is the reference each engine's batch path is pinned to.
    ``serve_batch`` still applies the engine's batch cost model, fault
    hook and EWMA updates, so a twin's batch cost, EWMAs and kernel span
    are what the engine derives from per-query results.  A replica group
    that ranks a round once calls ``_ranked_rows`` on one member, and a
    shard router that ranks a trace ahead calls ``_ranked_arrays`` on
    each shard's ranker, so the twin replaces both too: a twin fleet's
    ranked table holds ``recommend``'s rows.  ``fleet`` may be a bare
    engine, a replica group or a shard router.  Returns ``fleet``.
    """
    for engine, _, replica in iter_engines(fleet):
        if replica is not None:
            engine._serve_results = lambda queries, users=None, engine=engine: [
                engine.recommend_query(query) for query in queries
            ]
            engine._ranked_rows = lambda queries, users=None, engine=engine: [
                (result.items, result.scores, result.candidate_count)
                for result in engine._serve_results(queries)
            ]
            engine._ranked_arrays = lambda queries, users=None, engine=engine: (
                _rows_as_arrays(engine._ranked_rows(queries), engine.top_k)
            )
    return fleet


@pytest.fixture(scope="session")
def per_query_twin():
    """Callable: ``per_query_twin(engine) -> engine``, serving per query."""
    return _per_query_twin


@pytest.fixture
def forbid_batch_ranking(monkeypatch):
    """Callable: from the call on, every batch ranking kernel raises.

    Per-query ``recommend`` runs none of them, so a twin run made after
    the call shows that its answers -- its ranked tables included --
    came from ``recommend``, not from the kernels the batch side runs.
    """

    def forbid():
        for owner, name in (
            (pipeline, "fixed_radius_candidates_batch"),
            (pipeline, "cosine_topk_batch"),
            (pipeline, "score_in_chunks"),
            (RankingServingScorer, "score_grouped"),
        ):

            def forbidden(*args, name=name, **kwargs):
                raise AssertionError(f"a per-query twin ran the batch kernel {name}")

            monkeypatch.setattr(owner, name, forbidden)

    return forbid
