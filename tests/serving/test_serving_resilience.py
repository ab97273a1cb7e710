"""Tests for the self-healing layer: breakers, recovery, bit-identity.

Four contracts from the chaos PR's acceptance list:

* the circuit breaker's three-state machine handles the awkward edges
  (half-open probe failure re-opens with a fresh cooldown, probe slots
  are claimed at attempt start -- not at the routing check -- and the
  concurrent-probe cap holds);
* breaker-aware routing composes with replica groups and spillover
  (``assign(allowed=...)`` confines work, a crashed primary fails over
  to its spillover peer without changing recommendations);
* partial scatter-gather answers from the surviving shards and accounts
  the recall loss instead of failing the request;
* the *empty-plan bit-identity* property: a resilience-wrapped fleet
  over an empty :class:`FaultPlan` produces byte-identical results to
  an unwrapped one, across arbitrary shard/replica/spillover topologies
  (Hypothesis) and through a real end-to-end session -- and a faulted
  run is itself deterministic: same seed, same plan, same bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import BatchResult, QueryResult, ServeQuery
from repro.energy.accounting import Cost, Ledger
from repro.serving.faults import CRASH, SHARD_OUTAGE, FaultEvent, FaultPlan
from repro.serving.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultContext,
    ResilienceConfig,
    attach_faults,
)
from repro.serving.session import ServingSession
from repro.serving.shard import ReplicaGroup, ShardedEngine, make_sharded_engine
from repro.serving.traffic import PoissonTraffic


# -- circuit-breaker state machine ----------------------------------------


def _breaker(**overrides) -> CircuitBreaker:
    defaults = dict(
        breaker_failure_threshold=2,
        breaker_cooldown_s=1.0,
        breaker_half_open_probes=1,
    )
    defaults.update(overrides)
    return CircuitBreaker(ResilienceConfig(**defaults))


def test_breaker_stays_closed_below_threshold():
    breaker = _breaker()
    breaker.record_failure(0.0)
    assert breaker.state == CLOSED
    assert breaker.allow(0.1)
    # A success wipes the streak: two more failures are needed to open.
    breaker.record_success(0.2)
    breaker.record_failure(0.3)
    assert breaker.state == CLOSED


def test_breaker_opens_at_threshold_and_blocks_until_cooldown():
    breaker = _breaker()
    breaker.record_failure(0.0)
    breaker.record_failure(0.5)
    assert breaker.state == OPEN
    assert breaker.opened_at_s == 0.5
    assert not breaker.allow(1.0)  # cooldown (1s) not elapsed
    assert breaker.allow(1.5)  # elapsed: moves to half-open
    assert breaker.state == HALF_OPEN


def test_allow_is_non_consuming_and_take_probe_claims_the_slot():
    """Routing may poll allow() across many candidates; only an attempt
    that actually starts (take_probe) occupies the half-open slot."""
    breaker = _breaker()
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    for _ in range(5):  # poll away: nothing is consumed
        assert breaker.allow(2.0)
    assert breaker.probes_in_flight == 0
    breaker.take_probe()
    assert breaker.probes_in_flight == 1
    assert not breaker.allow(2.0)  # the single slot is now in flight


def test_take_probe_is_a_noop_while_closed():
    breaker = _breaker()
    breaker.take_probe()
    assert breaker.probes_in_flight == 0
    assert breaker.allow(0.0)


def test_half_open_probe_success_recloses():
    breaker = _breaker()
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    assert breaker.allow(1.5)
    breaker.take_probe()
    breaker.record_success(1.6)
    assert breaker.state == CLOSED
    assert breaker.probes_in_flight == 0
    assert breaker.consecutive_failures == 0
    assert [(old, new) for _, old, new in breaker.transitions] == [
        (CLOSED, OPEN),
        (OPEN, HALF_OPEN),
        (HALF_OPEN, CLOSED),
    ]


def test_half_open_probe_failure_reopens_with_fresh_cooldown():
    breaker = _breaker()
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    assert breaker.allow(1.5)
    breaker.take_probe()
    breaker.record_failure(1.7)
    assert breaker.state == OPEN
    # The cooldown restarts from the probe's failure time, not the
    # original trip: the replica is still sick, back off fully.
    assert breaker.opened_at_s == 1.7
    assert not breaker.allow(2.5)
    assert breaker.allow(2.7)
    assert breaker.state == HALF_OPEN


def test_concurrent_half_open_probes_capped():
    breaker = _breaker(breaker_half_open_probes=2)
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    assert breaker.allow(1.5)
    breaker.take_probe()
    assert breaker.allow(1.5)  # one slot left
    breaker.take_probe()
    assert not breaker.allow(1.5)  # both probes in flight
    # One probe failing sends the site straight back to open; the next
    # half-open round starts with a clean slot count.
    breaker.record_failure(1.6)
    assert breaker.state == OPEN
    assert breaker.allow(2.7)
    assert breaker.probes_in_flight == 0


def test_resilience_config_rejects_nonsense():
    for bad in (
        dict(timeout_factor=0.0),
        dict(shard_deadline_factor=-1.0),
        dict(default_timeout_s=0.0),
        dict(max_retries=-1),
        dict(retry_budget=-1),
        dict(backoff_base_s=-0.1),
        dict(backoff_multiplier=0.5),
        dict(hedge_factor=1.0),
        dict(hedge_delay_factor=0.0),
        dict(breaker_failure_threshold=0),
        dict(breaker_cooldown_s=-1.0),
        dict(breaker_half_open_probes=0),
    ):
        with pytest.raises(ValueError):
            ResilienceConfig(**bad)


@pytest.mark.parametrize(
    "field",
    [
        "timeout_factor",
        "shard_deadline_factor",
        "default_timeout_s",
        "backoff_base_s",
        "backoff_multiplier",
        "hedge_factor",
        "hedge_delay_factor",
        "breaker_cooldown_s",
    ],
)
def test_resilience_config_rejects_nan(field):
    with pytest.raises(ValueError):
        ResilienceConfig(**{field: float("nan")})


def test_timeouts_scale_with_expectation_and_batch_size():
    config = ResilienceConfig(
        timeout_factor=4.0, default_timeout_s=0.005, shard_deadline_factor=2.0
    )
    # No observation yet: fall back to the configured default.
    assert config.attempt_timeout_s(None, 1) == pytest.approx(0.02)
    assert config.attempt_timeout_s(0.001, 3) == pytest.approx(0.012)
    assert config.shard_deadline_s(None, 2) == pytest.approx(0.02)
    assert config.shard_deadline_s(0.001, 1) == pytest.approx(0.002)


def test_fault_context_rejects_non_plan():
    with pytest.raises(TypeError, match="FaultPlan or FaultInjector"):
        FaultContext({"not": "a plan"})


def test_fault_events_reach_tracer_and_metrics():
    """record_event feeds both telemetry planes -- and lazily, so a run
    that never fires exports nothing fault-related at all."""
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry()
    ctx = FaultContext(
        FaultPlan(()), resilience=ResilienceConfig(), telemetry=telemetry
    )
    assert not telemetry.tracer.instants  # lazy until a real event
    ctx.record_event("failover", 0.25, shard=0, origin=0, target=1)
    names = [instant.name for instant in telemetry.tracer.instants]
    assert names == ["failover"]
    exported = telemetry.metrics.render_prometheus()
    assert "repro_fault_events_total" in exported
    assert 'event="failover"' in exported


# -- breaker-aware routing over replica groups and spillover --------------


class _StubEngine:
    """Minimal engine: fixed per-query cost, identity results."""

    expected_query_latency_s = 1.0
    top_k = 5

    def serve_batch(self, queries):
        results = [
            QueryResult(
                items=[0],
                candidate_count=1,
                cost=Cost(energy_pj=1.0, latency_ns=1.0),
                ledger=Ledger(),
                scores=[1.0],
            )
            for _ in queries
        ]
        return BatchResult(
            results=results, cost=Cost(energy_pj=len(queries), latency_ns=1.0)
        )

    def merge_cost(self, num_entries):
        return Cost()


def test_assign_confines_work_to_allowed_replicas():
    group = ReplicaGroup([_StubEngine(), _StubEngine(), _StubEngine()])
    assignment = group.assign(5, allowed=[1])
    assert [len(lane) for lane in assignment] == [0, 5, 0]
    assignment = group.assign(6, allowed=[0, 2])
    assert len(assignment[1]) == 0
    assert sorted(assignment[0] + assignment[2]) == list(range(6))


def test_assign_allowed_composes_with_spillover_routing():
    group = ReplicaGroup(
        [_StubEngine(), _StubEngine(), _StubEngine()],
        p95_target_s=10.0,
        spill_headroom=0.8,
    )
    # The cost-aware router must still respect the breaker's verdict.
    assignment = group.assign(4, allowed=[2])
    assert [len(lane) for lane in assignment] == [0, 0, 4]


@pytest.fixture(scope="module")
def _traffic(serving_setup):
    dataset, filtering, ranking, mapping, workload = serving_setup
    probe = make_sharded_engine(
        "imars", filtering, ranking, 1, mapping=mapping,
        num_candidates=24, top_k=5, seed=0,
    )
    rate_qps = 8.0 / probe.recommend_query(workload[0]).cost.latency_s
    requests = PoissonTraffic(
        rate_qps, num_users=dataset.num_users, seed=0, stream=5
    ).generate(48)
    return requests, max(request.arrival_s for request in requests)


def _session(serving_setup, shards, replicas, faults=None, resilience=None, **kwargs):
    _, filtering, ranking, mapping, workload = serving_setup
    engine = make_sharded_engine(
        "imars", filtering, ranking, shards, mapping=mapping,
        num_candidates=24, top_k=5, seed=0,
        replicas_per_shard=replicas, **kwargs,
    )
    return ServingSession(
        engine, workload, label="chaos-test", faults=faults, resilience=resilience
    )


def test_crashed_replica_fails_over_without_changing_items(
    serving_setup, _traffic
):
    requests, horizon = _traffic
    plan = FaultPlan(
        (FaultEvent(CRASH, 0.0, 2.0 * horizon + 1.0, shard=0, replica=0),)
    )
    healthy = _session(serving_setup, 1, 2).run(requests)
    # threshold=1: open the breaker on the very first failed attempt --
    # with a laxer threshold the least-busy router (whose view of the
    # crashed lane already includes the timeout stalls) steers traffic
    # away before a failure streak can even accumulate.
    shielded = _session(
        serving_setup, 1, 2, faults=plan,
        resilience=ResilienceConfig(breaker_failure_threshold=1),
    ).run(requests)
    counters = shielded.fault_stats["counters"]
    assert counters["failovers"] >= 1
    assert counters["failed_queries"] == 0
    # Replicas are bit-identical by construction, so recovery must not
    # change a single recommendation.
    assert [record.items for record in shielded.records] == [
        record.items for record in healthy.records
    ]
    assert shielded.report.availability == 1.0
    # The crashed site's breaker opened (and is still dark at the end).
    assert counters["breaker_opens"] >= 1
    assert shielded.fault_stats["breakers"]["shard0/replica0"] != CLOSED


def test_crashed_primary_fails_over_to_spillover_replica(
    serving_setup, _traffic
):
    requests, horizon = _traffic
    plan = FaultPlan(
        (FaultEvent(CRASH, 0.0, 2.0 * horizon + 1.0, shard=0, replica=0),)
    )
    spillover = dict(
        spillover_replicas_per_shard=1, spillover_slo_s=0.001
    )
    healthy = _session(serving_setup, 1, 1, **spillover).run(requests)
    shielded = _session(
        serving_setup, 1, 1,
        faults=plan, resilience=ResilienceConfig(), **spillover,
    ).run(requests)
    counters = shielded.fault_stats["counters"]
    assert counters["failovers"] >= 1
    assert counters["failed_queries"] == 0
    # The GPU spillover replica mirrors the IMC primary bit for bit.
    assert [record.items for record in shielded.records] == [
        record.items for record in healthy.records
    ]


def test_bare_engine_has_no_failover_and_drops_the_batch(
    serving_setup, _traffic
):
    """A router-less engine has no peer: a crash window drops its miss
    batches after the detection timeout, and the wasted detection time
    is billed to the ledger under Retry."""
    from repro.core.pipeline import IMARSEngine

    _, filtering, ranking, mapping, workload = serving_setup
    requests, horizon = _traffic
    engine = IMARSEngine(
        filtering, ranking, mapping, num_candidates=24, top_k=5, seed=0
    )
    plan = FaultPlan(
        (FaultEvent(CRASH, 0.0, 2.0 * horizon + 1.0, shard=0, replica=0),)
    )
    result = ServingSession(
        engine,
        workload,
        label="bare-chaos",
        faults=plan,
        resilience=ResilienceConfig(),
    ).run(requests)
    counters = result.fault_stats["counters"]
    assert counters["crash_hits"] >= 1
    assert counters["failed_queries"] >= 1
    assert all(record.failed for record in result.records)
    assert result.report.availability == 0.0
    assert result.ledger.by_category()["Retry"].latency_ns > 0.0


# -- partial scatter-gather ------------------------------------------------


def test_dark_shard_goes_partial_and_accounts_recall(serving_setup, _traffic):
    requests, horizon = _traffic
    plan = FaultPlan(
        (FaultEvent(SHARD_OUTAGE, 0.0, 2.0 * horizon + 1.0, shard=1),)
    )
    shielded = _session(
        serving_setup, 2, 1, faults=plan, resilience=ResilienceConfig()
    ).run(requests)
    stats = shielded.fault_stats
    counters = stats["counters"]
    # Every engine-served query lost shard 1: answered from shard 0,
    # marked degraded (partial), never failed.
    assert counters["failed_queries"] == 0
    assert counters["partial_queries"] >= 1
    assert shielded.report.availability == 1.0
    engine_records = [
        record for record in shielded.records if not record.cache_hit
    ]
    assert all(record.degraded for record in engine_records)
    assert all(record.items for record in engine_records)
    # Recall loss = dark/total shards per partial query, here 1/2 each.
    assert stats["recall_loss"] == pytest.approx(
        counters["partial_queries"] / 2.0
    )


def test_dark_shard_without_resilience_drops_requests(serving_setup, _traffic):
    requests, horizon = _traffic
    plan = FaultPlan(
        (FaultEvent(SHARD_OUTAGE, 0.0, 2.0 * horizon + 1.0, shard=1),)
    )
    bare = _session(serving_setup, 2, 1, faults=plan).run(requests)
    assert bare.fault_stats["counters"]["failed_queries"] >= 1
    assert bare.report.availability < 1.0
    assert bare.report.error_rate > 0.0


# -- empty-plan bit-identity (Hypothesis, arbitrary topologies) ------------


class _MatrixEngine:
    """Fake engine scoring items from a fixed (query x item) table."""

    #: Generous estimate so the wrapped fleet never "hedges" a healthy
    #: batch (fake latencies are ~1ns against a 1s expectation).
    expected_query_latency_s = 1.0

    def __init__(self, scores, query_index, item_subset, top_k):
        self.scores = scores
        self.query_index = query_index
        self.item_subset = np.asarray(item_subset)
        self.top_k = top_k

    def _one(self, query):
        row = self.scores[self.query_index[query]][self.item_subset]
        order = np.argsort(-row, kind="stable")[: self.top_k]
        return QueryResult(
            items=[int(self.item_subset[position]) for position in order],
            candidate_count=int(self.item_subset.size),
            cost=Cost(energy_pj=1.0, latency_ns=1.0),
            ledger=Ledger(),
            scores=[float(row[position]) for position in order],
        )

    def recommend_query(self, query):
        return self._one(query)

    def serve_batch(self, queries):
        results = [self._one(query) for query in queries]
        return BatchResult(
            results=results, cost=Cost(energy_pj=len(results), latency_ns=1.0)
        )

    def merge_cost(self, num_entries):
        return Cost(energy_pj=0.1, latency_ns=0.1)


def _fleet(scores, query_index, num_items, num_shards, replicas, top_k, spillover):
    from repro.serving.shard import partition_corpus

    shards = []
    for subset in partition_corpus(num_items, num_shards):
        members = [
            _MatrixEngine(scores, query_index, subset, top_k)
            for _ in range(replicas)
        ]
        if replicas == 1:
            shards.append(members[0])
        elif spillover:
            shards.append(
                ReplicaGroup(members, p95_target_s=1.0, spill_headroom=0.8)
            )
        else:
            shards.append(ReplicaGroup(members))
    return ShardedEngine(shards, top_k=top_k)


@given(
    num_items=st.integers(min_value=1, max_value=30),
    num_queries=st.integers(min_value=1, max_value=6),
    num_shards=st.integers(min_value=1, max_value=3),
    replicas=st.integers(min_value=1, max_value=3),
    top_k=st.integers(min_value=1, max_value=6),
    spillover=st.booleans(),
    resilience=st.sampled_from([None, ResilienceConfig()]),
    rounds=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40)
def test_empty_plan_wrapped_fleet_is_bit_identical(
    num_items,
    num_queries,
    num_shards,
    replicas,
    top_k,
    spillover,
    resilience,
    rounds,
    seed,
):
    """For ANY topology (shards x replicas, with or without cost-aware
    spillover routing), attaching the fault plane with an EMPTY plan --
    with full resilience or as a strict resilience-off client -- changes
    nothing: same items, same scores, same cost floats, round after
    round."""
    num_shards = min(num_shards, num_items)
    top_k = min(top_k, num_items)
    rng = np.random.default_rng(seed)
    scores = rng.permutation(num_queries * num_items).reshape(
        num_queries, num_items
    ).astype(np.float64)
    queries = [
        ServeQuery.make([index], [index], [index]) for index in range(num_queries)
    ]
    query_index = {query: index for index, query in enumerate(queries)}

    plain = _fleet(
        scores, query_index, num_items, num_shards, replicas, top_k, spillover
    )
    wrapped = _fleet(
        scores, query_index, num_items, num_shards, replicas, top_k, spillover
    )
    ctx = FaultContext(FaultPlan(()), resilience=resilience)
    attach_faults(wrapped, ctx)

    for _ in range(rounds):
        expected = plain.serve_batch(queries)
        observed = wrapped.serve_batch(queries)
        for expected_result, observed_result in zip(
            expected.results, observed.results
        ):
            assert observed_result.items == expected_result.items
            assert observed_result.scores == expected_result.scores
            assert observed_result.cost.energy_pj == expected_result.cost.energy_pj
            assert observed_result.cost.latency_ns == expected_result.cost.latency_ns
            assert not observed_result.failed and not observed_result.partial
        assert observed.cost.energy_pj == expected.cost.energy_pj
        assert observed.cost.latency_ns == expected.cost.latency_ns
    # No recovery machinery fired, nothing was billed.
    assert not any(ctx.counters.values())
    assert ctx.retries_used == 0
    assert ctx.take_retry_cost().energy_pj == 0.0
    assert ctx.take_hedge_cost().energy_pj == 0.0


def test_empty_plan_session_is_bit_identical_end_to_end(
    serving_setup, _traffic
):
    """The acceptance form of the property: a real engine, a real session,
    resilience on over an empty plan -- reports, records and ledger are
    byte-identical to a session with no fault plane at all."""
    requests, _ = _traffic
    plain = _session(serving_setup, 2, 2).run(requests)
    wrapped = _session(
        serving_setup, 2, 2, faults=FaultPlan(()), resilience=ResilienceConfig()
    ).run(requests)
    assert repr(wrapped.report.as_dict()) == repr(plain.report.as_dict())
    assert wrapped.report.format_row() == plain.report.format_row()
    assert [record.items for record in wrapped.records] == [
        record.items for record in plain.records
    ]
    assert repr(
        {key: cost.energy_pj for key, cost in wrapped.ledger.by_category().items()}
    ) == repr(
        {key: cost.energy_pj for key, cost in plain.ledger.by_category().items()}
    )
    assert not any(wrapped.fault_stats["counters"].values())


@pytest.mark.parametrize("spillover", [False, True])
def test_empty_plan_telemetry_exports_are_byte_identical(
    serving_setup, _traffic, spillover
):
    """Over an empty plan the fault plane records nothing of its own: a
    traced 2x2 fleet (two IMC replicas per shard, or one IMC primary plus
    one GPU spillover replica) exports the same Chrome trace and the same
    Prometheus text as the same fleet with no fault plane attached."""
    from repro.obs import Telemetry, chrome_trace_events

    requests, _ = _traffic
    _, filtering, ranking, mapping, workload = serving_setup
    batch_one_s = make_sharded_engine(
        "imars", filtering, ranking, 1, mapping=mapping,
        num_candidates=24, top_k=5, seed=0,
    ).recommend_query(workload[0]).cost.latency_s

    def export(faults):
        engine = make_sharded_engine(
            "imars", filtering, ranking, 2, mapping=mapping,
            num_candidates=24, top_k=5, seed=0,
            replicas_per_shard=1 if spillover else 2,
            spillover_replicas_per_shard=1 if spillover else 0,
            spillover_slo_s=2.0 * batch_one_s if spillover else None,
        )
        telemetry = Telemetry()
        ServingSession(
            engine, workload, label="chaos-test", telemetry=telemetry,
            faults=faults,
        ).run(requests)
        return (
            chrome_trace_events(telemetry.tracer),
            telemetry.metrics.render_prometheus(),
        )

    plain_events, plain_metrics = export(None)
    wrapped_events, wrapped_metrics = export(FaultPlan(()))
    assert wrapped_events == plain_events
    assert wrapped_metrics == plain_metrics
    # The fleet really ran its replica lanes (and, with spillover, spilled).
    spans = [event for event in plain_events if event.get("ph") == "X"]
    assert any(event["name"] == "replica1" for event in spans)
    if spillover:
        assert any(event["args"].get("spill") for event in spans)
    assert "repro_fault_events_total" not in wrapped_metrics


# -- faulted runs are deterministic ---------------------------------------


def test_same_seed_same_plan_same_bytes(serving_setup, _traffic):
    """A chaos run is a pure function of (seed, plan): two independently
    constructed sessions replay byte-identically, recovery and all."""
    requests, horizon = _traffic
    plan = FaultPlan(
        (
            FaultEvent(CRASH, 0.0, 0.4 * horizon, shard=0, replica=0),
            FaultEvent(SHARD_OUTAGE, 0.5 * horizon, 0.8 * horizon, shard=1),
        )
    )

    def run():
        return _session(
            serving_setup, 2, 2, faults=plan, resilience=ResilienceConfig()
        ).run(requests)

    first, second = run(), run()
    assert repr(first.report.as_dict()) == repr(second.report.as_dict())
    assert repr(first.fault_stats) == repr(second.fault_stats)
    assert [record.items for record in first.records] == [
        record.items for record in second.records
    ]
    assert [
        (record.degraded, record.failed) for record in first.records
    ] == [(record.degraded, record.failed) for record in second.records]


def test_failed_query_result_never_shares_state():
    """Each dropped query gets its own result object: a shared mutable
    default here would let one failure path corrupt another's record."""
    from repro.serving.resilience import failed_query_result

    first, second = failed_query_result(), failed_query_result()
    assert first is not second
    assert first.items is not second.items
    assert first.ledger is not second.ledger
    first.items.append(42)
    assert second.items == []
    assert first.failed and second.failed


def test_fault_stats_iteration_order_is_pinned():
    """stats() must serialise identically whatever fired: counters in
    the fixed declaration order, breakers sorted by site -- dict-order
    drift here would break the byte-identical E-chaos artefact."""
    ctx = FaultContext(FaultPlan(()), resilience=ResilienceConfig())
    # Touch breakers in scrambled order; report order must not care.
    for site in ((1, 1), (0, 1), (1, 0), (0, 0)):
        ctx.breaker(*site)
    ctx.counters["hedges"] += 1  # a late counter fires first
    stats = ctx.stats()
    twin = FaultContext(FaultPlan(()), resilience=ResilienceConfig())
    for site in ((0, 0), (0, 1), (1, 0), (1, 1)):
        twin.breaker(*site)
    twin.counters["hedges"] += 1
    assert repr(stats) == repr(twin.stats())
    assert list(stats["breakers"]) == [
        "shard0/replica0",
        "shard0/replica1",
        "shard1/replica0",
        "shard1/replica1",
    ]


# -- the E-chaos artefact --------------------------------------------------


def test_chaos_study_invariants_and_determinism():
    """The CI smoke for the chaos PR: every E-chaos invariant holds (the
    pinned scenario keeps availability >= 99% at p95 <= 2x healthy while
    the unshielded arm drops requests, and resilience-on availability
    beats resilience-off on every rung), and the whole study -- notes,
    extras, floats -- reproduces byte-identically from its seed."""
    from repro.experiments.chaos_study import run_chaos_study

    report = run_chaos_study(seed=0)
    assert report.all_within(0.0), report.format()
    pinned = report.extras["scenario_reports"]["moderate"]
    off_avail = pinned["off"].availability
    on_avail = pinned["on"].availability
    assert on_avail >= 0.99
    assert off_avail < on_avail  # the unshielded arm really drops requests
    healthy_p95 = report.extras["healthy_report"].p95_ms
    assert pinned["on"].p95_ms <= 2.0 * healthy_p95
    rerun = run_chaos_study(seed=0)
    assert rerun.format() == report.format()
    assert repr(rerun.extras["fault_stats"]) == repr(report.extras["fault_stats"])
