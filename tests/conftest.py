"""Repo-wide test configuration: deterministic Hypothesis profiles and
the per-query twin every serving equivalence suite compares against.

CI runs with ``HYPOTHESIS_PROFILE=ci``: derandomized (the example
sequence depends only on the test, not on a random seed), so a red
property failure always reproduces locally with the same command.
The default ``dev`` profile keeps random exploration for local runs.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

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


def _per_query_twin(fleet):
    """Make every engine of ``fleet`` serve each batch as per-query
    ``recommend`` calls.

    This is the reference each engine's batch path is pinned to.
    ``serve_batch`` still applies the engine's batch cost model, fault
    hook and EWMA updates, so a twin's batch cost, EWMAs and kernel span
    are what the engine derives from per-query results.  A replica group
    that ranks a round once calls ``_ranked_rows`` on one member, so the
    twin replaces that too.  ``fleet`` may be a bare engine, a replica
    group or a shard router.  Returns ``fleet``.
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
    return fleet


@pytest.fixture(scope="session")
def per_query_twin():
    """Callable: ``per_query_twin(engine) -> engine``, serving per query."""
    return _per_query_twin
