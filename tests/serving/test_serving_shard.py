"""Tests for serve_batch, corpus sharding, replica groups, the router
and the fleet walk."""

import numpy as np
import pytest

from repro.core.pipeline import GPUReferenceEngine, IMARSEngine
from repro.energy.accounting import Cost
from repro.serving.faults import CRASH, FaultError, FaultEvent, FaultPlan
from repro.serving.resilience import FaultContext, attach_faults
from repro.serving.shard import (
    ReplicaGroup,
    ShardedEngine,
    iter_engines,
    make_sharded_engine,
    partition_corpus,
)


def test_partition_covers_corpus_without_overlap():
    parts = partition_corpus(10, 3)
    assert len(parts) == 3
    merged = np.sort(np.concatenate(parts))
    assert np.array_equal(merged, np.arange(10))
    sizes = [part.size for part in parts]
    assert max(sizes) - min(sizes) <= 1


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_corpus(4, 5)
    with pytest.raises(ValueError):
        partition_corpus(4, 0)


class TestServeBatch:
    def test_batch_of_one_matches_recommend(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        engine = IMARSEngine(filtering, ranking, mapping, num_candidates=12, top_k=4)
        single = engine.recommend_query(workload[0])
        batch = engine.serve_batch([workload[0]])
        assert batch.results[0].items == single.items
        assert batch.cost.latency_ns == pytest.approx(single.cost.latency_ns)
        assert batch.cost.energy_pj == pytest.approx(single.cost.energy_pj)

    def test_gpu_batching_amortises_latency_not_results(self, serving_setup):
        _, filtering, ranking, _, workload = serving_setup
        engine = GPUReferenceEngine(filtering, ranking, num_candidates=12, top_k=4)
        queries = workload[:4]
        batch = engine.serve_batch(queries)
        sequential = sum(result.cost.latency_ns for result in batch.results)
        assert batch.cost.latency_ns < sequential  # launches paid once
        for query, result in zip(queries, batch.results):
            assert result.items == engine.recommend_query(query).items

    def test_imars_pipelining_bounded_by_slowest_stage(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        engine = IMARSEngine(filtering, ranking, mapping, num_candidates=12, top_k=4)
        batch = engine.serve_batch(workload[:4])
        sequential = sum(result.cost.latency_ns for result in batch.results)
        first = batch.results[0].cost.latency_ns
        assert first < batch.cost.latency_ns < sequential
        # Energy is not amortised: every stage still runs per query.
        assert batch.cost.energy_pj == pytest.approx(
            sum(result.cost.energy_pj for result in batch.results)
        )

    def test_scores_sorted_descending(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        engine = IMARSEngine(filtering, ranking, mapping, num_candidates=12, top_k=4)
        result = engine.recommend_query(workload[0])
        assert len(result.scores) == len(result.items)
        assert result.scores == sorted(result.scores, reverse=True)


class TestItemSubset:
    def test_subset_returns_global_ids_only(self, serving_setup):
        dataset, filtering, ranking, mapping, workload = serving_setup
        subset = np.arange(dataset.num_items // 2)
        for engine in (
            GPUReferenceEngine(
                filtering, ranking, num_candidates=8, top_k=4, item_subset=subset
            ),
            IMARSEngine(
                filtering, ranking, mapping,
                num_candidates=8, top_k=4, item_subset=subset,
            ),
        ):
            result = engine.recommend_query(workload[0])
            assert set(result.items) <= set(int(item) for item in subset)

    def test_subset_validation(self, serving_setup):
        _, filtering, ranking, _, _ = serving_setup
        with pytest.raises(ValueError):
            GPUReferenceEngine(filtering, ranking, item_subset=[])
        with pytest.raises(ValueError):
            GPUReferenceEngine(filtering, ranking, item_subset=[0, 0])
        with pytest.raises(ValueError):
            GPUReferenceEngine(filtering, ranking, item_subset=[10_000_000])

    def test_gpu_shard_nns_cost_scales_with_slice(self, serving_setup):
        dataset, filtering, ranking, _, workload = serving_setup
        full = GPUReferenceEngine(filtering, ranking, num_candidates=8, top_k=4)
        half = GPUReferenceEngine(
            filtering, ranking, num_candidates=8, top_k=4,
            item_subset=np.arange(dataset.num_items // 2),
        )
        full_nns = full.recommend_query(workload[0]).ledger.by_category()["NNS"]
        half_nns = half.recommend_query(workload[0]).ledger.by_category()["NNS"]
        assert half_nns.latency_ns < full_nns.latency_ns


class TestShardedEngine:
    def test_single_shard_router_matches_engine(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        plain = IMARSEngine(
            filtering, ranking, mapping, num_candidates=12, top_k=4, seed=0
        )
        routed = make_sharded_engine(
            "imars", filtering, ranking, 1, mapping=mapping,
            num_candidates=12, top_k=4, seed=0,
        )
        for query in workload[:3]:
            assert routed.recommend_query(query).items == plain.recommend_query(query).items

    def test_sharding_cuts_latency_and_merges_topk(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        single = make_sharded_engine(
            "imars", filtering, ranking, 1, mapping=mapping,
            num_candidates=12, top_k=4, seed=0,
        )
        sharded = make_sharded_engine(
            "imars", filtering, ranking, 3, mapping=mapping,
            num_candidates=12, top_k=4, seed=0,
        )
        one = single.recommend_query(workload[0])
        three = sharded.recommend_query(workload[0])
        assert three.cost.latency_ns < one.cost.latency_ns
        assert len(three.items) == 4
        assert three.scores == sorted(three.scores, reverse=True)
        assert "Merge" in three.ledger.categories()

    def test_shards_partition_results(self, serving_setup):
        dataset, filtering, ranking, mapping, workload = serving_setup
        sharded = make_sharded_engine(
            "gpu", filtering, ranking, 2, num_candidates=12, top_k=4, seed=0
        )
        # Each shard serves only its slice; merged ids stay in-corpus and
        # unique.
        result = sharded.recommend_query(workload[0])
        assert len(set(result.items)) == len(result.items)
        assert all(0 <= item < dataset.num_items for item in result.items)

    def test_gather_cost_composition(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        sharded = make_sharded_engine(
            "imars", filtering, ranking, 2, mapping=mapping,
            num_candidates=12, top_k=4, seed=0,
        )
        batch = sharded.serve_batch(workload[:2])
        shard_batches = [shard.serve_batch(workload[:2]) for shard in sharded.shards]
        slowest = max(sb.cost.latency_ns for sb in shard_batches)
        total_energy = sum(sb.cost.energy_pj for sb in shard_batches)
        # Scatter latency = slowest shard (+ merge); energy adds across shards.
        assert batch.cost.latency_ns >= slowest
        assert batch.cost.energy_pj >= total_energy

    def test_router_validation(self, serving_setup):
        with pytest.raises(ValueError):
            ShardedEngine([], top_k=4)
        with pytest.raises(ValueError):
            make_sharded_engine("unknown", None, None, 1)
        # Shards ranking more entries than the router keeps would overflow
        # the gather's per-shard slice on the first serve_batch.
        _, filtering, ranking, _, _ = serving_setup
        for num_shards in (1, 2):
            top5 = make_sharded_engine(
                "gpu", filtering, ranking, num_shards, num_candidates=12, top_k=5
            )
            with pytest.raises(ValueError, match="top-k"):
                ShardedEngine(top5.shards, top_k=3)

    def test_imars_requires_mapping(self, serving_setup):
        _, filtering, ranking, _, _ = serving_setup
        with pytest.raises(ValueError):
            make_sharded_engine("imars", filtering, ranking, 2, mapping=None)

    @pytest.mark.parametrize("num_candidates", [0, -3])
    def test_rejects_candidate_budget_below_one(self, serving_setup, num_candidates):
        """Like every engine constructor, the builder refuses a budget
        below one instead of rounding it up to one candidate per shard."""
        _, filtering, ranking, _, _ = serving_setup
        with pytest.raises(ValueError, match="candidate"):
            make_sharded_engine(
                "gpu", filtering, ranking, 2, num_candidates=num_candidates
            )


class TestReplicaGroup:
    def _engines(self, serving_setup, replicas):
        _, filtering, ranking, mapping, _ = serving_setup
        return make_sharded_engine(
            "imars", filtering, ranking, 2, mapping=mapping,
            num_candidates=12, top_k=4, seed=0, replicas_per_shard=replicas,
        )

    def test_replication_never_changes_recommendations(self, serving_setup):
        _, _, _, _, workload = serving_setup
        single = self._engines(serving_setup, 1)
        tripled = self._engines(serving_setup, 3)
        batch = workload[:6]
        for lhs, rhs in zip(
            single.serve_batch(batch).results, tripled.serve_batch(batch).results
        ):
            assert lhs.items == rhs.items
            assert lhs.scores == rhs.scores

    def test_replication_cuts_occupancy_not_energy(self, serving_setup):
        _, _, _, _, workload = serving_setup
        batch = workload[:6]
        single = self._engines(serving_setup, 1).serve_batch(batch)
        doubled = self._engines(serving_setup, 2).serve_batch(batch)
        # The dispatch round splits across replicas: the group's occupancy
        # (slowest member) drops, while the work (energy) is unchanged.
        assert doubled.cost.latency_ns < single.cost.latency_ns
        assert doubled.cost.energy_pj == pytest.approx(single.cost.energy_pj)

    def test_assignment_levels_work_deterministically(self, serving_setup):
        _, filtering, ranking, mapping, _ = serving_setup
        replicas = [
            IMARSEngine(
                filtering, ranking, mapping, num_candidates=12, top_k=4, seed=0
            )
            for _ in range(3)
        ]
        group = ReplicaGroup(replicas)
        assignment = group.assign(7)
        positions = sorted(position for member in assignment for position in member)
        assert positions == list(range(7))  # every query placed exactly once
        sizes = [len(member) for member in assignment]
        assert max(sizes) - min(sizes) <= 1  # levelled before any history
        assert group.assign(7) == assignment  # deterministic replan

    def test_busy_time_accumulates_and_balances(self, serving_setup):
        _, _, _, _, workload = serving_setup
        group = self._engines(serving_setup, 2).shards[0]
        assert isinstance(group, ReplicaGroup)
        assert group.busy_s == [0.0, 0.0]
        group.serve_batch(workload[:4])
        assert all(busy > 0.0 for busy in group.busy_s)

    def test_empty_batch_is_a_noop(self, serving_setup):
        group = self._engines(serving_setup, 2).shards[0]
        result = group.serve_batch([])
        assert result.results == []
        assert result.cost.energy_pj == 0.0

    def test_validation(self, serving_setup):
        _, filtering, ranking, mapping, _ = serving_setup
        with pytest.raises(ValueError):
            ReplicaGroup([])
        with pytest.raises(ValueError):
            ReplicaGroup([GPUReferenceEngine(filtering, ranking)], p95_target_s=float("nan"))
        with pytest.raises(ValueError):
            make_sharded_engine(
                "imars", filtering, ranking, 2, mapping=mapping,
                replicas_per_shard=0,
            )


# -- the fleet walk --------------------------------------------------------


def _imars(setup):
    _, filtering, ranking, mapping, _ = setup
    return IMARSEngine(filtering, ranking, mapping, num_candidates=12, top_k=4, seed=0)


def _router(setup, shards, **options):
    _, filtering, ranking, mapping, _ = setup
    return make_sharded_engine(
        "imars", filtering, ranking, shards, mapping=mapping,
        num_candidates=12, top_k=4, seed=0, **options,
    )


def _bare_engine(setup):
    engine = _imars(setup)
    return engine, [(engine, 0, 0)]


def _bare_group(setup):
    group = ReplicaGroup([_imars(setup), _imars(setup)])
    first, second = group.replicas
    return group, [(group, 0, None), (first, 0, 0), (second, 0, 1)]


def _bare_shards(setup):
    router = _router(setup, 3)
    first, second, third = router.shards
    return router, [
        (router, None, None), (first, 0, 0), (second, 1, 0), (third, 2, 0)
    ]


def _two_groups(setup, **options):
    router = _router(setup, 2, **options)
    first, second = router.shards
    return router, [
        (router, None, None),
        (first, 0, None), (first.replicas[0], 0, 0), (first.replicas[1], 0, 1),
        (second, 1, None), (second.replicas[0], 1, 0), (second.replicas[1], 1, 1),
    ]


_WALKS = {
    "engine": _bare_engine,
    "replica-group": _bare_group,
    "bare-shards": _bare_shards,
    "replica-groups": lambda setup: _two_groups(setup, replicas_per_shard=2),
    "spillover-groups": lambda setup: _two_groups(
        setup, spillover_replicas_per_shard=1, spillover_slo_s=1e-3
    ),
}


@pytest.mark.parametrize("topology", list(_WALKS))
def test_fleet_walk_yields_each_node_once_parents_first(serving_setup, topology):
    """The walk visits every router, group and engine once, parents
    before children, and an engine's site is the one the fault plane
    targets: a crash planned there fires that engine's hook and no other."""
    fleet, expected = _WALKS[topology](serving_setup)
    walk = list(iter_engines(fleet))
    assert len(walk) == len(expected)
    for (node, *site), (want, *want_site) in zip(walk, expected):
        assert node is want and site == want_site
    engines = [(node, shard, replica) for node, shard, replica in walk if replica is not None]
    for target, shard, replica in engines:
        ctx = FaultContext(
            FaultPlan((FaultEvent(CRASH, 0.0, 1.0, shard=shard, replica=replica),))
        )
        attach_faults(fleet, ctx)
        crashed = []
        for node, _, _ in engines:
            try:
                node._fault_hook(Cost(), 1)
            except FaultError:
                crashed.append(node)
        assert len(crashed) == 1 and crashed[0] is target
    for node, shard, replica in walk:
        if replica is None:
            assert node._faults is ctx
        if replica is None and shard is not None:
            assert node._fault_site == shard
