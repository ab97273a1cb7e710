"""Tests for online scale events: mid-run re-deployment with migration
cost, cache invalidation, and the live scaling controllers."""

import pytest

from repro.serving.autoscaler import (
    OnlineScaler,
    OnlineScalerConfig,
    ScheduledScalePlan,
)
from repro.serving.cache import ServingCache
from repro.serving.scheduler import Batch, MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.shard import make_sharded_engine
from repro.serving.traffic import PoissonTraffic


@pytest.fixture()
def scaling_setup(serving_setup):
    """(engine_factory, workload, requests, slo_s) for an overloaded run."""
    dataset, filtering, ranking, mapping, workload = serving_setup

    def factory(shards, replicas):
        return make_sharded_engine(
            "imars", filtering, ranking, shards, mapping=mapping,
            num_candidates=12, top_k=4, seed=0, replicas_per_shard=replicas,
        )

    probe = factory(1, 1)
    batch_one_s = probe.recommend_query(workload[0]).cost.latency_s
    rate = 6.0 / batch_one_s
    requests = PoissonTraffic(
        rate, num_users=dataset.num_users, seed=0, stream=5
    ).generate(120)
    return factory, workload, requests, 4.0 * batch_one_s


def _session(factory, workload, cache=None, scaler=None):
    return ServingSession(
        factory(1, 1),
        workload,
        scheduler=MicroBatchScheduler(
            MicroBatchConfig(max_batch_size=8, max_wait_s=0.0)
        ),
        cache=cache,
        label="scaling-test",
        engine_factory=factory,
        deployment=(1, 1),
        scaler=scaler,
    )


class TestScaleTo:
    def test_resharding_migrates_and_invalidates(self, scaling_setup):
        factory, workload, requests, _ = scaling_setup
        cache = ServingCache(capacity=16, rows_per_entry=4)
        session = _session(factory, workload, cache=cache)
        session.warm(range(12))
        resident = len(cache)
        assert resident > 0
        event = session.scale_to(2, 1)
        assert event.old_deployment == (1, 1)
        assert event.new_deployment == (2, 1)
        assert event.moved_rows > 0
        assert event.cost.energy_pj > 0.0
        # Roughly half the corpus moves 1 -> 2 shards; the Zipf head of
        # cached results touches moved items with near certainty.
        assert event.invalidated_entries > 0
        assert len(cache) == resident - event.invalidated_entries
        assert cache.invalidations == event.invalidated_entries
        assert session.deployment == (2, 1)

    def test_replica_add_copies_but_invalidates_nothing(self, scaling_setup):
        factory, workload, _, _ = scaling_setup
        cache = ServingCache(capacity=16, rows_per_entry=4)
        session = _session(factory, workload, cache=cache)
        session.warm(range(8))
        resident = len(cache)
        event = session.scale_to(1, 2)
        assert event.moved_rows > 0  # the new replica copies its slice
        assert event.invalidated_entries == 0  # no rows changed shard
        assert len(cache) == resident

    def test_unchanged_deployment_is_a_noop(self, scaling_setup):
        factory, workload, _, _ = scaling_setup
        session = _session(factory, workload)
        assert session.scale_to(1, 1) is None
        assert session.scale_events == []

    def test_pre_run_migration_charged_to_next_run(self, scaling_setup):
        factory, workload, requests, _ = scaling_setup
        session = _session(factory, workload)
        event = session.scale_to(2, 2)
        result = session.run(requests)
        migration = result.ledger.by_category().get("Migration")
        assert migration is not None
        assert migration.energy_pj == pytest.approx(event.cost.energy_pj)
        # The run that pays for the event also reports it.
        assert result.scale_events == [event]
        # Charged once: a second run starts with a clean slate.
        second = session.run(requests)
        assert "Migration" not in second.ledger.by_category()
        assert second.scale_events == []

    def test_requires_engine_factory(self, serving_setup):
        _, filtering, ranking, mapping, workload = serving_setup
        engine = make_sharded_engine(
            "imars", filtering, ranking, 1, mapping=mapping,
            num_candidates=12, top_k=4, seed=0,
        )
        session = ServingSession(engine, workload)
        with pytest.raises(ValueError):
            session.scale_to(2, 1)

    def test_validation(self, scaling_setup):
        factory, workload, _, _ = scaling_setup
        session = _session(factory, workload)
        with pytest.raises(ValueError):
            session.scale_to(0, 1)
        with pytest.raises(ValueError):
            ServingSession(
                factory(1, 1), workload, scaler=object()
            )  # scaler without factory


class TestOnlineScaler:
    def test_overload_triggers_scale_out_mid_run(self, scaling_setup):
        factory, workload, requests, slo_s = scaling_setup
        scaler = OnlineScaler(
            OnlineScalerConfig(
                p95_target_s=slo_s, window=16, cooldown=16,
                max_shards=2, max_replicas=2,
            )
        )
        session = _session(factory, workload, scaler=scaler)
        result = session.run(requests)
        assert result.scale_events
        assert scaler.decisions
        assert "Migration" in result.ledger.by_category()
        # Events stay within the controller's bounds.
        for event in result.scale_events:
            shards, replicas = event.new_deployment
            assert 1 <= shards <= 2 and 1 <= replicas <= 2

    def test_scaling_improves_the_tail(self, scaling_setup):
        factory, workload, requests, slo_s = scaling_setup
        frozen = _session(factory, workload).run(requests)
        scaled = _session(
            factory,
            workload,
            scaler=OnlineScaler(
                OnlineScalerConfig(
                    p95_target_s=slo_s, window=16, cooldown=16,
                    max_shards=2, max_replicas=2,
                )
            ),
        ).run(requests)
        assert scaled.report.p95_ms < frozen.report.p95_ms

    def test_run_is_deterministic(self, scaling_setup):
        factory, workload, requests, slo_s = scaling_setup

        def run_once():
            scaler = OnlineScaler(
                OnlineScalerConfig(p95_target_s=slo_s, window=16, cooldown=16)
            )
            return _session(factory, workload, scaler=scaler).run(requests)

        first, second = run_once(), run_once()
        assert [
            (event.time_s, event.new_deployment) for event in first.scale_events
        ] == [(event.time_s, event.new_deployment) for event in second.scale_events]
        assert [record.items for record in first.records] == [
            record.items for record in second.records
        ]

    def test_relaxed_load_scales_back_in(self):
        config = OnlineScalerConfig(
            p95_target_s=1.0, window=4, cooldown=0, relax_watermark=0.5
        )
        scaler = OnlineScaler(config)
        from repro.serving.slo import RequestRecord
        from repro.serving.traffic import Request

        def fake_batch(dispatch_s):
            return Batch(requests=[], open_s=dispatch_s, dispatch_s=dispatch_s)

        def fake_records(latency_s, count):
            return [
                RequestRecord(
                    request=Request(request_id=i, arrival_s=0.0, user=0),
                    completion_s=latency_s,
                    batch_size=1,
                    cache_hit=False,
                    items=(1,),
                )
                for i in range(count)
            ]

        decision = scaler.observe(fake_batch(0.0), 0.01, fake_records(0.01, 4), (2, 3))
        assert decision == (2, 2)  # replicas drop first (free)
        decision = scaler.observe(fake_batch(1.0), 0.01, fake_records(0.01, 4), (2, 1))
        assert decision == (1, 1)  # then shards

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OnlineScalerConfig(p95_target_s=0.0)
        with pytest.raises(ValueError):
            OnlineScalerConfig(p95_target_s=float("nan"))
        with pytest.raises(ValueError):
            OnlineScalerConfig(p95_target_s=1.0, window=0)
        with pytest.raises(ValueError):
            OnlineScalerConfig(p95_target_s=1.0, max_shards=0)
        with pytest.raises(ValueError):
            OnlineScalerConfig(p95_target_s=1.0, relax_watermark=1.0)


class TestScheduledScalePlan:
    def test_events_fire_at_their_times(self, scaling_setup):
        factory, workload, requests, _ = scaling_setup
        midpoint = requests[len(requests) // 2].arrival_s
        plan = ScheduledScalePlan([(midpoint, (2, 1))])
        result = _session(factory, workload, scaler=plan).run(requests)
        assert len(result.scale_events) == 1
        event = result.scale_events[0]
        assert event.new_deployment == (2, 1)
        assert event.time_s >= midpoint

    def test_latest_due_event_wins(self):
        plan = ScheduledScalePlan([(0.0, (2, 1)), (0.5, (2, 2))])
        batch = Batch(requests=[], open_s=1.0, dispatch_s=1.0)
        assert plan.observe(batch, 0.0, [], (1, 1)) == (2, 2)
        # Consumed: nothing further to fire.
        assert plan.observe(batch, 0.0, [], (2, 2)) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduledScalePlan([(-1.0, (1, 1))])
        with pytest.raises(ValueError):
            # Sorted first, a NaN time used to stall every later event.
            ScheduledScalePlan([(float("nan"), (2, 1)), (0.5, (2, 2))])
        with pytest.raises(ValueError):
            ScheduledScalePlan([(0.0, (0, 1))])

    def test_empty_plan_is_legal_noop(self):
        # The shape a forecaster with nothing to do emits: legal, fires
        # nothing, forever.
        plan = ScheduledScalePlan([])
        batch = Batch(requests=[], open_s=1.0, dispatch_s=1.0)
        assert plan.observe(batch, 0.0, [], (1, 1)) is None
        assert plan.observe(batch, 0.0, [], (1, 1)) is None

    def test_empty_plan_bit_identical_to_no_scaler(self, scaling_setup):
        factory, workload, requests, _ = scaling_setup
        bare = _session(factory, workload).run(requests)
        planned = _session(
            factory, workload, scaler=ScheduledScalePlan([])
        ).run(requests)
        assert planned.scale_events == []
        assert len(bare.records) == len(planned.records)
        for left, right in zip(bare.records, planned.records):
            assert left.items == right.items
            assert left.completion_s == right.completion_s
            assert left.cache_hit == right.cache_hit
        assert (
            bare.ledger.total().energy_pj == planned.ledger.total().energy_pj
        )

    def test_duplicate_timestamps_deterministic_last_listed_wins(self):
        # A stable time sort keeps listing order among equal timestamps,
        # and the latest due event wins -- so the last-listed deployment
        # at a duplicated time is the one that fires.
        plan = ScheduledScalePlan([(0.5, (2, 1)), (0.5, (2, 2)), (0.5, (3, 1))])
        batch = Batch(requests=[], open_s=1.0, dispatch_s=1.0)
        assert plan.observe(batch, 0.0, [], (1, 1)) == (3, 1)
        assert plan.observe(batch, 0.0, [], (3, 1)) is None

    def test_out_of_order_events_sorted_by_time(self):
        plan = ScheduledScalePlan([(0.9, (2, 2)), (0.1, (2, 1))])
        assert [time_s for time_s, _ in plan.events] == [0.1, 0.9]
        early = Batch(requests=[], open_s=0.2, dispatch_s=0.2)
        assert plan.observe(early, 0.0, [], (1, 1)) == (2, 1)
        late = Batch(requests=[], open_s=1.0, dispatch_s=1.0)
        assert plan.observe(late, 0.0, [], (2, 1)) == (2, 2)

    def test_mid_batch_event_never_splits_ledger_rows(self, scaling_setup):
        # A plan time strictly inside a batch's occupancy fires after the
        # batch completes: the billed prefix up to the Migration row is
        # exactly the unplanned run's row sequence -- migration is a
        # whole appended row, never an interleaved split of a batch's
        # Cache/Serve rows.
        factory, workload, requests, _ = scaling_setup
        bare = _session(factory, workload).run(requests)
        first_serve = next(
            record for record in bare.records if not record.cache_hit
        )
        # Strictly inside the first served batch's service window.
        mid_batch_s = (
            first_serve.completion_s - 0.25 * (
                first_serve.completion_s - first_serve.request.arrival_s
            )
        )
        plan = ScheduledScalePlan([(mid_batch_s, (2, 1))])
        planned = _session(factory, workload, scaler=plan).run(requests)
        assert len(planned.scale_events) == 1
        bare_rows = list(bare.ledger)
        planned_rows = list(planned.ledger)
        migration_at = next(
            index for index, (category, _) in enumerate(planned_rows)
            if category == "Migration"
        )
        assert sum(
            1 for category, _ in planned_rows if category == "Migration"
        ) == 1
        assert planned_rows[:migration_at] == bare_rows[:migration_at]
