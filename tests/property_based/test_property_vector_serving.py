"""Hypothesis pin: batched serving is bit-identical to per-query ``recommend``.

The contract of the engines' one batch path, checked over arbitrary
inputs against each engine's per-query ``recommend`` (served by the
per-query twin of ``tests/conftest.py``):

* for ANY batch -- any size (including empty), any duplication pattern --
  the batch path returns bit-identical items and CTR scores and charges
  identical per-query ledgers (hence identical total energy) to the
  per-query twin;
* the pin holds across router topologies: plain engines, corpus shards,
  replica groups, and heterogeneous GPU-spillover groups;
* the GPU reference engine (alone and as 3 corpus shards) is also
  compared against a copy serving each query as a batch of one; only
  per-query fields are compared, because the batched cost amortises
  launch overheads by design;
* it survives arbitrary cache states: a full serving session (scheduler,
  dedup window, result cache, warm-up) records the same items and the
  same ledger totals whichever path serves the misses -- on a bare
  engine and on a shard router that ranks the session's trace ahead
  (the twin router's table holds per-query ``recommend`` rows).

Engines are built once and *shared* across examples on purpose: both
paths observe the same call history, so any state the engines carry
(EWMA telemetry, routing counters) must stay in lockstep too -- a
stronger statement than single-batch equivalence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import WorkloadMapping
from repro.core.pipeline import (
    GPUReferenceEngine,
    GPUSpilloverEngine,
    IMARSEngine,
    ServeQuery,
)
from repro.data.movielens import MovieLensDataset, movielens_table_specs
from repro.models.youtube_dnn import (
    YouTubeDNNConfig,
    YouTubeDNNFiltering,
    YouTubeDNNRanking,
)
from repro.serving.cache import ServingCache
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.shard import make_sharded_engine
from repro.serving.traffic import Request

_STATE: dict = {}


def _setup(per_query_twin):
    """Tiny corpus + one (batch path, per-query twin) pair per topology
    (built once)."""
    if _STATE:
        return _STATE
    dataset = MovieLensDataset(scale=0.03, seed=0)
    config = YouTubeDNNConfig(
        num_items=dataset.num_items,
        demographic_cardinalities=(dataset.num_users, 3, 7, 21, 450),
        seed=0,
    )
    filtering = YouTubeDNNFiltering(config)
    ranking = YouTubeDNNRanking(config)
    mapping = WorkloadMapping(movielens_table_specs())
    workload = [
        ServeQuery.make(
            dataset.histories[user],
            dataset.demographics[user],
            dataset.ranking_context[user],
        )
        for user in range(dataset.num_users)
    ]

    def pair(build):
        return build(), per_query_twin(build())

    def sharded(**topology):
        return pair(
            lambda: make_sharded_engine(
                "imars", filtering, ranking, mapping=mapping, seed=0, **topology
            )
        )

    _STATE["workload"] = workload
    _STATE["pairs"] = {
        "imars": pair(lambda: IMARSEngine(filtering, ranking, mapping, seed=0)),
        "gpu-spillover-engine": pair(
            lambda: GPUSpilloverEngine(filtering, ranking, mapping, seed=0)
        ),
        "shards": sharded(num_shards=3),
        "replicas": sharded(num_shards=2, replicas_per_shard=2),
        "spillover-group": sharded(
            num_shards=2, spillover_replicas_per_shard=1, spillover_slo_s=0.5
        ),
        "gpu-reference": (
            GPUReferenceEngine(filtering, ranking),
            GPUReferenceEngine(filtering, ranking),
        ),
        "gpu-shards": tuple(
            make_sharded_engine("gpu", filtering, ranking, num_shards=3)
            for _ in range(2)
        ),
    }
    return _STATE


def _snapshot(results):
    return [
        (
            result.items,
            tuple(result.scores),
            result.candidate_count,
            result.cost,
            tuple(result.ledger),
        )
        for result in results
    ]


@given(
    topology=st.sampled_from(
        ["imars", "gpu-spillover-engine", "shards", "replicas", "spillover-group"]
    ),
    indices=st.lists(st.integers(0, 180), min_size=0, max_size=24),
)
@settings(max_examples=40)
def test_vectorised_batches_bit_identical(per_query_twin, topology, indices):
    state = _setup(per_query_twin)
    workload = state["workload"]
    vectorised, scalar = state["pairs"][topology]
    queries = [workload[index % len(workload)] for index in indices]
    vec_batch = vectorised.serve_batch(queries)
    ref_batch = scalar.serve_batch(queries)
    assert _snapshot(vec_batch.results) == _snapshot(ref_batch.results)
    assert vec_batch.cost == ref_batch.cost
    # Identical ledgers imply identical total energy; assert it
    # explicitly anyway -- it is the billing invariant downstream
    # studies depend on.
    assert sum(
        result.cost.energy_pj for result in vec_batch.results
    ) == sum(result.cost.energy_pj for result in ref_batch.results)


@given(
    topology=st.sampled_from(["gpu-reference", "gpu-shards"]),
    indices=st.lists(st.integers(0, 180), min_size=0, max_size=24),
)
@settings(max_examples=40)
def test_gpu_reference_batches_match_batch_of_one(per_query_twin, topology, indices):
    """The GPU reference engine's batches match a copy serving each query
    as a batch of one.  Only per-query fields are compared -- the batched
    cost amortises launch overheads by design."""
    state = _setup(per_query_twin)
    workload = state["workload"]
    batched, twin = state["pairs"][topology]
    queries = [workload[index % len(workload)] for index in indices]
    results = batched.serve_batch(queries).results
    reference = [twin.serve_batch([query]).results[0] for query in queries]
    assert _snapshot(results) == _snapshot(reference)
    assert [result.ledger.name for result in results] == [
        result.ledger.name for result in reference
    ]


@given(
    router=st.booleans(),
    warm_users=st.lists(st.integers(0, 180), max_size=8),
    stream=st.lists(st.integers(0, 180), min_size=1, max_size=30),
    capacity=st.integers(1, 64),
)
@settings(max_examples=15)
def test_sessions_identical_across_cache_states(
    per_query_twin, router, warm_users, stream, capacity
):
    """A full session (scheduler + dedup + cache + warm-up) serves the
    same items and charges the same ledger whichever path runs."""
    state = _setup(per_query_twin)
    workload = state["workload"]
    filtering, ranking, mapping = _models(state)

    def build():
        if router:
            return make_sharded_engine(
                "imars", filtering, ranking, 2, mapping=mapping, seed=0
            )
        return IMARSEngine(filtering, ranking, mapping, seed=0)

    requests = [
        Request(request_id=index, arrival_s=index * 1e-4, user=user)
        for index, user in enumerate(stream)
    ]
    outcomes = []
    # Fresh engines per run: a session's EWMA history must not leak
    # between the two paths being compared.
    for engine in (build(), per_query_twin(build())):
        session = ServingSession(
            engine,
            workload,
            scheduler=MicroBatchScheduler(
                MicroBatchConfig(max_batch_size=8, max_wait_s=2e-4)
            ),
            cache=ServingCache(capacity=capacity, rows_per_entry=4),
        )
        if warm_users:
            session.warm(warm_users)
        result = session.run(requests)
        outcomes.append(
            (
                [(record.request.request_id, record.items, record.cache_hit)
                 for record in result.records],
                result.ledger.total(),
                tuple(result.ledger),
            )
        )
    assert outcomes[0] == outcomes[1]


def _models(state):
    """(filtering, ranking, mapping) shared by fresh session engines."""
    prototype = state["pairs"]["imars"][0]
    return (
        prototype.filtering_model,
        prototype.ranking_model,
        prototype.mapping,
    )
