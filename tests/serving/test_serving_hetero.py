"""Tests for the heterogeneous fleet: GPU spillover engine, cost-aware
routing, the routers' shared merge rule and the migration cost model."""

import numpy as np
import pytest

from repro.core.pipeline import GPUSpilloverEngine, IMARSEngine
from repro.energy.accounting import Cost
from repro.serving.shard import (
    ReplicaGroup,
    ShardedEngine,
    make_sharded_engine,
    migration_cost,
    migration_plan,
    plan_scale_migration,
)


@pytest.fixture(scope="module")
def engine_pair(serving_setup):
    """(IMC engine, GPU spillover engine) built identically."""
    _, filtering, ranking, mapping, _ = serving_setup
    imc = IMARSEngine(filtering, ranking, mapping, num_candidates=12, top_k=4, seed=0)
    gpu = GPUSpilloverEngine(
        filtering, ranking, mapping, num_candidates=12, top_k=4, seed=0
    )
    return imc, gpu


class TestGPUSpilloverEngine:
    def test_recommendations_bit_identical(self, engine_pair, serving_setup):
        _, _, _, _, workload = serving_setup
        imc, gpu = engine_pair
        for query in workload[:8]:
            ours = imc.recommend_query(query)
            theirs = gpu.recommend_query(query)
            assert ours.items == theirs.items
            assert ours.scores == theirs.scores
            assert ours.candidate_count == theirs.candidate_count

    def test_batch_identical_and_costed_differently(self, engine_pair, serving_setup):
        _, _, _, _, workload = serving_setup
        imc, gpu = engine_pair
        ours = imc.serve_batch(workload[:6])
        theirs = gpu.serve_batch(workload[:6])
        for lhs, rhs in zip(ours.results, theirs.results):
            assert lhs.items == rhs.items
            assert lhs.scores == rhs.scores
        # Same answers, very different bill: the GPU pays board power.
        assert theirs.cost.energy_pj > 10.0 * ours.cost.energy_pj

    def test_gpu_ledger_categories(self, engine_pair, serving_setup):
        _, _, _, _, workload = serving_setup
        _, gpu = engine_pair
        ledger = gpu.recommend_query(workload[0]).ledger
        assert set(ledger.categories()) == {
            "ET Lookup",
            "DNN Stack",
            "NNS",
            "Ranking",
            "TopK",
        }

    def test_gpu_batching_amortises_launches(self, engine_pair, serving_setup):
        _, _, _, _, workload = serving_setup
        _, gpu = engine_pair
        batch = gpu.serve_batch(workload[:4])
        sequential = sum(result.cost.latency_ns for result in batch.results)
        assert batch.cost.latency_ns < sequential

    def test_analog_dnn_rejected(self, serving_setup):
        _, filtering, ranking, mapping, _ = serving_setup
        with pytest.raises(TypeError):
            GPUSpilloverEngine(filtering, ranking, mapping, analog_dnn=True)

    def test_energy_ewma_tracks_serving(self, engine_pair, serving_setup):
        _, _, _, _, workload = serving_setup
        imc, gpu = engine_pair
        assert imc.expected_query_energy_pj is not None  # served above
        assert gpu.expected_query_energy_pj > imc.expected_query_energy_pj


class TestSpilloverRouting:
    def _hetero(self, serving_setup, slo_s, headroom=0.8):
        _, filtering, ranking, mapping, _ = serving_setup
        return make_sharded_engine(
            "imars",
            filtering,
            ranking,
            1,
            mapping=mapping,
            num_candidates=12,
            top_k=4,
            seed=0,
            spillover_replicas_per_shard=1,
            spillover_slo_s=slo_s,
            spill_headroom=headroom,
        )

    def test_cold_start_stays_on_primary(self, serving_setup):
        _, _, _, _, workload = serving_setup
        group = self._hetero(serving_setup, slo_s=1e-4).shards[0]
        assert isinstance(group, ReplicaGroup)
        assignment = group.assign(9)
        assert [len(member) for member in assignment] == [9, 0]

    def test_unobserved_backend_gets_one_probe(self, serving_setup):
        _, _, _, _, workload = serving_setup
        group = self._hetero(serving_setup, slo_s=1e-4).shards[0]
        group.serve_batch(workload[:4])  # primary observed, GPU still cold
        assignment = group.assign(40)
        assert len(assignment[1]) <= 1  # slow-start probe, not a dump

    def test_overflow_spills_and_counts(self, serving_setup):
        _, _, _, _, workload = serving_setup
        engine = self._hetero(serving_setup, slo_s=1e-4)
        group = engine.shards[0]
        for _ in range(4):
            engine.serve_batch([workload[user % len(workload)] for user in range(30)])
        stats = group.stats()
        assert stats["spilled"] > 0
        assert stats["assigned"][1] > 0  # the GPU served real queries
        assert 0.0 < stats["spill_rate"] < 1.0
        assert stats["spilled"] == group.spilled

    def test_generous_target_never_spills(self, serving_setup):
        _, _, _, _, workload = serving_setup
        engine = self._hetero(serving_setup, slo_s=10.0)  # 10 s: no threat
        group = engine.shards[0]
        for _ in range(3):
            engine.serve_batch(workload[:8])
        assert group.spilled == 0
        assert group.assigned[1] == 0

    def test_hetero_results_match_imc_reference(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        reference = make_sharded_engine(
            "imars", filtering, ranking, 1, mapping=mapping,
            num_candidates=12, top_k=4, seed=0,
        )
        hetero = self._hetero(serving_setup, slo_s=1e-4)
        batch = [workload[user % len(workload)] for user in range(25)]
        for _ in range(3):  # several rounds so routing exercises the GPU
            expected = reference.serve_batch(batch)
            observed = hetero.serve_batch(batch)
            for lhs, rhs in zip(expected.results, observed.results):
                assert lhs.items == rhs.items
                assert lhs.scores == rhs.scores

    def test_replica_group_validation(self, serving_setup):
        _, filtering, ranking, mapping, _ = serving_setup
        engine = IMARSEngine(
            filtering, ranking, mapping, num_candidates=12, top_k=4, seed=0
        )
        with pytest.raises(ValueError):
            ReplicaGroup([engine], p95_target_s=0.0)
        with pytest.raises(ValueError):
            ReplicaGroup([engine], spill_headroom=0.0)
        with pytest.raises(ValueError):
            ReplicaGroup([engine], spill_headroom=1.5)
        other = IMARSEngine(
            filtering, ranking, mapping, num_candidates=12, top_k=5, seed=0
        )
        with pytest.raises(ValueError):
            ReplicaGroup([engine, other])  # top-k disagreement

    def test_spillover_replicas_match_primaries(self, serving_setup):
        """The builder makes GPU replicas exactly like their IMC peers, so
        routing overflow to them never changes a recommendation."""
        _, filtering, ranking, mapping, workload = serving_setup
        reference = make_sharded_engine(
            "imars", filtering, ranking, 1, mapping=mapping,
            num_candidates=12, top_k=4, seed=0,
        )
        hetero = make_sharded_engine(
            "imars", filtering, ranking, 1, mapping=mapping,
            num_candidates=12, top_k=4, seed=0,
            spillover_replicas_per_shard=1, spillover_slo_s=1e-4,
        )
        group = hetero.shards[0]
        batch = [workload[user % len(workload)] for user in range(25)]
        for _ in range(3):
            expected = reference.serve_batch(batch)
            observed = hetero.serve_batch(batch)
            for lhs, rhs in zip(expected.results, observed.results):
                assert lhs.items == rhs.items
        assert group.assigned[1] > 0  # the GPU replica really served

    def test_make_sharded_engine_spillover_validation(self, serving_setup):
        _, filtering, ranking, mapping, _ = serving_setup
        with pytest.raises(ValueError):
            make_sharded_engine(
                "gpu", filtering, ranking, 1,
                spillover_replicas_per_shard=1, spillover_slo_s=1e-3,
            )
        with pytest.raises(ValueError):
            make_sharded_engine(
                "imars", filtering, ranking, 1, mapping=mapping,
                spillover_replicas_per_shard=1,  # no SLO target
            )
        with pytest.raises(ValueError):
            make_sharded_engine(
                "imars", filtering, ranking, 1, mapping=mapping,
                spillover_replicas_per_shard=-1, spillover_slo_s=1e-3,
            )


class TestMergeCostHelper:
    def test_replicated_and_unreplicated_merges_charge_identically(
        self, serving_setup
    ):
        """The satellite pin: one formula behind every router's merge."""
        _, filtering, ranking, mapping, _ = serving_setup
        engine = IMARSEngine(
            filtering, ranking, mapping, num_candidates=12, top_k=4, seed=0
        )
        replicas = [
            IMARSEngine(
                filtering, ranking, mapping, num_candidates=12, top_k=4, seed=0
            )
            for _ in range(3)
        ]
        group = ReplicaGroup(replicas)
        sharded_plain = ShardedEngine([engine], top_k=4)
        sharded_replicated = ShardedEngine([group], top_k=4)
        for entries in (1, 4, 17):
            baseline = engine.merge_cost(entries)
            for router in (group, sharded_plain, sharded_replicated):
                merged = router.merge_cost(entries)
                assert merged.energy_pj == pytest.approx(baseline.energy_pj)
                assert merged.latency_ns == pytest.approx(baseline.latency_ns)

    def test_hetero_group_merges_on_the_primary_platform(self, serving_setup):
        _, filtering, ranking, mapping, _ = serving_setup
        imc = IMARSEngine(
            filtering, ranking, mapping, num_candidates=12, top_k=4, seed=0
        )
        gpu = GPUSpilloverEngine(
            filtering, ranking, mapping, num_candidates=12, top_k=4, seed=0
        )
        group = ReplicaGroup([imc, gpu], p95_target_s=1e-3)
        assert group.merge_cost(8).energy_pj == pytest.approx(
            imc.merge_cost(8).energy_pj
        )


class TestMigrationModel:
    def test_plan_is_residue_difference(self):
        moved = migration_plan(10, 1, 2)
        assert np.array_equal(moved, np.array([1, 3, 5, 7, 9]))
        assert migration_plan(10, 2, 2).size == 0
        # Growing and shrinking move the same rows.
        assert np.array_equal(migration_plan(12, 2, 3), migration_plan(12, 3, 2))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            migration_plan(0, 1, 1)
        with pytest.raises(ValueError):
            migration_plan(4, 0, 1)
        with pytest.raises(ValueError):
            migration_plan(4, 1, 5)

    def test_cost_scales_with_rows_and_width(self):
        small = migration_cost(10, embedding_dim=32, signature_bits=64)
        more_rows = migration_cost(20, embedding_dim=32, signature_bits=64)
        wider = migration_cost(10, embedding_dim=256, signature_bits=64)
        assert more_rows.energy_pj == pytest.approx(2.0 * small.energy_pj)
        assert wider.energy_pj > small.energy_pj
        assert migration_cost(0, 32, 64) == Cost()
        with pytest.raises(ValueError):
            migration_cost(-1, 32, 64)
        with pytest.raises(ValueError):
            migration_cost(1, 0, 64)

    def test_scale_event_rows(self):
        # Re-partition only: the moved ids are written once each.
        moved, rows = plan_scale_migration(10, (1, 1), (2, 1))
        assert rows == moved.size == 5
        # Added replicas copy the whole corpus once per replica.
        moved, rows = plan_scale_migration(10, (1, 1), (1, 3))
        assert moved.size == 0
        assert rows == 20
        # Dropping state is free.
        moved, rows = plan_scale_migration(10, (1, 3), (1, 1))
        assert rows == 0
        with pytest.raises(ValueError):
            plan_scale_migration(10, (1, 0), (1, 1))
