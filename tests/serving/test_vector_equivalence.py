"""Batch-vs-per-query serving equivalence suite (the fast CI pin).

Every engine's batch path must be *bit-identical* to its per-query
``recommend``, served by the per-query twin of ``tests/conftest.py``:
same items, same CTR bits, same per-query ledgers, same batched cost,
same EWMA state afterwards -- across plain iMARS, GPU spillover and GPU
reference engines, shards, replica groups and heterogeneous spillover.
CI runs this file as its own job before the coverage gate so an
equivalence break fails fast.
"""

import copy

import numpy as np
import pytest

from repro.core.pipeline import GPUReferenceEngine, GPUSpilloverEngine, IMARSEngine
from repro.energy.accounting import Cost
from repro.models.youtube_dnn import _SCORE_CHUNK_ROWS, RankingServingScorer
from repro.nn.stable import stable_matmul
from repro.serving.shard import _member_merge_cost, make_sharded_engine


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


def _engine_pair(engine_cls, serving_setup, per_query_twin):
    """(batch-path engine, per-query twin), built alike."""
    _, filtering, ranking, mapping, _ = serving_setup
    return (
        engine_cls(filtering, ranking, mapping, seed=0),
        per_query_twin(engine_cls(filtering, ranking, mapping, seed=0)),
    )


@pytest.mark.parametrize("engine_cls", [IMARSEngine, GPUSpilloverEngine])
class TestEngineBitIdentity:
    def test_batch_identical_to_scalar(self, engine_cls, serving_setup, per_query_twin):
        *_, workload = serving_setup
        vectorised, scalar = _engine_pair(engine_cls, serving_setup, per_query_twin)
        queries = (workload * 2)[:60]  # includes duplicate queries
        vec_batch = vectorised.serve_batch(queries)
        ref_batch = scalar.serve_batch(queries)
        assert _snapshot(vec_batch.results) == _snapshot(ref_batch.results)
        assert vec_batch.cost == ref_batch.cost
        # The EWMA telemetry both feed downstream routing from must match.
        assert (
            vectorised.expected_query_latency_s
            == scalar.expected_query_latency_s
        )
        assert (
            vectorised.expected_query_energy_pj
            == scalar.expected_query_energy_pj
        )

    def test_batch_of_one_matches_recommend(self, engine_cls, serving_setup, per_query_twin):
        *_, workload = serving_setup
        vectorised, scalar = _engine_pair(engine_cls, serving_setup, per_query_twin)
        query = workload[3]
        vec = vectorised.serve_batch([query]).results[0]
        ref = scalar.recommend_query(query)
        assert _snapshot([vec]) == _snapshot([ref])

    def test_empty_batch(self, engine_cls, serving_setup, per_query_twin):
        vectorised, scalar = _engine_pair(engine_cls, serving_setup, per_query_twin)
        assert vectorised.serve_batch([]).results == []
        assert vectorised.serve_batch([]).cost == scalar.serve_batch([]).cost


class TestShardedBitIdentity:
    @pytest.mark.parametrize(
        "topology",
        [
            dict(num_shards=3),
            dict(num_shards=2, replicas_per_shard=2),
            dict(
                num_shards=2,
                spillover_replicas_per_shard=1,
                spillover_slo_s=0.5,
            ),
        ],
        ids=["shards", "replicas", "spillover"],
    )
    def test_topology(self, topology, serving_setup, per_query_twin):
        _, filtering, ranking, mapping, workload = serving_setup
        queries = (workload * 2)[:50]
        routers = [
            make_sharded_engine(
                "imars", filtering, ranking, mapping=mapping, seed=0, **topology
            )
            for _ in range(2)
        ]
        per_query_twin(routers[1])
        batches = [router.serve_batch(queries) for router in routers]
        assert _snapshot(batches[0].results) == _snapshot(batches[1].results)
        assert batches[0].cost == batches[1].cost


class TestAnalogFallsBackToScalar:
    def test_analog_disables_vector_kernels(self, serving_setup):
        # Crossbar noise is drawn per forward and the batched scorer has
        # no analog port, so an analog engine serves a batch query by
        # query: exactly what per-query recommend returns and draws.
        _, filtering, ranking, mapping, workload = serving_setup
        engines = [
            IMARSEngine(filtering, ranking, mapping, seed=0, analog_dnn=True)
            for _ in range(2)
        ]
        queries = (workload * 2)[:30]  # includes duplicate queries
        batch = engines[0].serve_batch(queries)
        reference = [engines[1].recommend_query(query) for query in queries]
        assert _snapshot(batch.results) == _snapshot(reference)
        assert [result.ledger.name for result in batch.results] == [
            result.ledger.name for result in reference
        ]


class TestMergeEnergyIdentity:
    def test_batched_merge_charges_equal_per_query(self, serving_setup):
        """Satellite pin: one cached merge price per entry count must
        charge exactly what the old per-query ``merge_cost`` call did."""
        _, filtering, ranking, mapping, workload = serving_setup
        router = make_sharded_engine(
            "imars", filtering, ranking, mapping=mapping, num_shards=3, seed=0
        )
        queries = workload[:12]
        # Gathered entries per query: each shard contributes its ranked
        # list (shard engines are deterministic, so re-serving them here
        # observes exactly what the router's scatter gathered).
        shard_results = [
            shard.serve_batch(queries).results for shard in router.shards
        ]
        entry_counts = [
            sum(len(results[position].items) for results in shard_results)
            for position in range(len(queries))
        ]
        batch = router.serve_batch(queries)
        merge_total = Cost()
        for position, (query, result) in enumerate(zip(queries, batch.results)):
            merge_entries = [
                cost for category, cost in result.ledger if category == "Merge"
            ]
            assert len(merge_entries) == 1
            # The cached price equals the direct platform model call ...
            assert merge_entries[0] == _member_merge_cost(
                router.shards, entry_counts[position]
            )
            merge_total = merge_total.then(merge_entries[0])
            # ... and a batch-of-1 serve charges the identical merge.
            solo = router.serve_batch([query]).results[0]
            solo_merge = [
                cost for category, cost in solo.ledger if category == "Merge"
            ]
            assert solo_merge == merge_entries
            assert solo.cost == result.cost
            assert solo.items == result.items
            assert solo.scores == result.scores
        # The batch merge bill is the sequential fold of per-query merges.
        scatter = Cost.concurrent(
            shard.serve_batch(queries).cost for shard in router.shards
        )
        assert batch.cost == scatter.then(merge_total)


class TestScorerConsistency:
    def test_score_paths_agree(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        engine = IMARSEngine(filtering, ranking, mapping, seed=0)
        scorer = engine._scorer
        assert isinstance(scorer, RankingServingScorer)
        rng = np.random.default_rng(0)
        users = rng.normal(size=(4, filtering.config.embedding_dim))
        contexts = np.asarray([workload[i].context for i in range(4)])
        items = rng.integers(0, scorer.num_items, size=4)
        constants = scorer.query_constants(users, contexts)
        grouped = scorer.score_grouped(constants, np.arange(4), items)
        for row in range(4):
            solo = scorer.score_query(
                users[row], np.asarray([items[row]]), contexts[row]
            )
            assert solo[0] == grouped[row]

    def test_chunked_grouped_pass_matches_score_query(self, serving_setup):
        # More than two 4,096-row chunks, with query groups straddling
        # the chunk boundaries: every row must equal its query scored alone.
        _, filtering, ranking, mapping, workload = serving_setup
        scorer = IMARSEngine(filtering, ranking, mapping, seed=0)._scorer
        rng = np.random.default_rng(1)
        num_queries = 7
        users = rng.normal(size=(num_queries, filtering.config.embedding_dim))
        contexts = np.asarray([workload[i].context for i in range(num_queries)])
        per_query = 2 * _SCORE_CHUNK_ROWS // num_queries + 5
        owners = np.repeat(np.arange(num_queries), per_query)
        assert owners.shape[0] > 2 * _SCORE_CHUNK_ROWS
        items = rng.integers(0, scorer.num_items, size=owners.shape[0])
        grouped = scorer.score_grouped(
            scorer.query_constants(users, contexts), owners, items
        )
        for query in range(num_queries):
            rows = owners == query
            solo = scorer.score_query(users[query], items[rows], contexts[query])
            assert solo.tobytes() == grouped[rows].tobytes()


class TestStableMatmulRowStability:
    def test_rows_independent_of_batch(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(32, 1))  # the narrow CTR head shape
        inputs = rng.normal(size=(64, 32))
        full = stable_matmul(inputs, weights)
        for rows in (1, 2, 3, 63, 64):
            prefix = stable_matmul(inputs[:rows], weights)
            np.testing.assert_array_equal(prefix, full[:rows])


# -- GPU reference engine: the batch path against per-query recommend -------

_GPU_CASES = {
    "corpus": {},
    "shard": dict(item_subset=range(1, 90, 3)),
    "candidates-equal-shard": dict(item_subset=range(0, 90, 4), num_candidates=23),
    "candidates-above-shard": dict(item_subset=range(0, 90, 4), num_candidates=40),
    "top-k-above-candidates": dict(num_candidates=6, top_k=9),
}


def _gpu_twins(serving_setup, per_query_twin, **kwargs):
    """(batched GPU reference engine, its per-query twin), built alike."""
    _, filtering, ranking, _, _ = serving_setup
    return (
        GPUReferenceEngine(filtering, ranking, **kwargs),
        per_query_twin(GPUReferenceEngine(filtering, ranking, **kwargs)),
    )


def _gpu_snapshot(results):
    return _snapshot(results), [result.ledger.name for result in results]


@pytest.mark.parametrize("engine_kwargs", list(_GPU_CASES.values()), ids=list(_GPU_CASES))
class TestGPUReferenceBatchIdentity:
    def test_batch_identical_to_recommend(self, engine_kwargs, serving_setup, per_query_twin):
        *_, workload = serving_setup
        batched, twin = _gpu_twins(serving_setup, per_query_twin, **engine_kwargs)
        queries = (workload * 2)[:60]  # includes duplicate queries
        # Two batches, so the second EWMA update (not just the seed) is pinned.
        for batch_queries in (queries, queries[7:20]):
            batch = batched.serve_batch(batch_queries)
            reference = twin.serve_batch(batch_queries)
            assert _gpu_snapshot(batch.results) == _gpu_snapshot(reference.results)
            assert _gpu_snapshot(reference.results) == _gpu_snapshot(
                [twin.recommend_query(query) for query in batch_queries]
            )
            assert batch.cost == reference.cost
            assert batched.expected_query_latency_s == twin.expected_query_latency_s
            assert batched.expected_query_energy_pj == twin.expected_query_energy_pj

    def test_batch_of_one_matches_recommend(self, engine_kwargs, serving_setup, per_query_twin):
        *_, workload = serving_setup
        batched, twin = _gpu_twins(serving_setup, per_query_twin, **engine_kwargs)
        query = workload[3]
        result = batched.serve_batch([query]).results[0]
        assert _gpu_snapshot([result]) == _gpu_snapshot([twin.recommend_query(query)])

    def test_tied_items_break_like_recommend(self, engine_kwargs, serving_setup, per_query_twin):
        # Every item twice: cosine and CTR ties everywhere, so the batch
        # path must resolve ties with the single-query top-k rule.
        dataset, filtering, ranking, mapping, workload = serving_setup
        tied = copy.deepcopy(filtering)
        table = tied.item_embeddings.weight.data
        table[1::2] = table[0::2][: table[1::2].shape[0]]
        batched, twin = _gpu_twins(
            (dataset, tied, ranking, mapping, workload), per_query_twin, **engine_kwargs
        )
        queries = (workload * 2)[:60]
        batch = batched.serve_batch(queries)
        assert _gpu_snapshot(batch.results) == _gpu_snapshot(
            [twin.recommend_query(query) for query in queries]
        )

    def test_empty_batch(self, engine_kwargs, serving_setup, per_query_twin):
        batched, twin = _gpu_twins(serving_setup, per_query_twin, **engine_kwargs)
        batch = batched.serve_batch([])
        assert batch.results == []
        assert batch.cost == twin.serve_batch([]).cost == Cost()
        assert batched.expected_query_latency_s is None
