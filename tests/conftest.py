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


def _per_query_twin(engine):
    """Make ``engine`` serve every batch as per-query ``recommend`` calls.

    This is the reference each engine's batch path is pinned to.
    ``serve_batch`` still applies the engine's batch cost model, fault
    hook and EWMA updates, so a twin's batch cost, EWMAs and kernel span
    are what the engine derives from per-query results.  A shard router
    (``.shards``) or replica group (``.replicas``) is twinned member by
    member.  Returns ``engine``.
    """
    members = getattr(engine, "shards", None) or getattr(engine, "replicas", None)
    if members is None:
        engine._serve_results = lambda queries: [
            engine.recommend_query(query) for query in queries
        ]
    for member in members or ():
        _per_query_twin(member)
    return engine


@pytest.fixture(scope="session")
def per_query_twin():
    """Callable: ``per_query_twin(engine) -> engine``, serving per query."""
    return _per_query_twin
