"""Hypothesis property tests for the serving layer.

The serving subsystem's contracts, checked over arbitrary inputs:

* the micro-batch scheduler never emits a batch above the size cap and
  never holds a request past the wait window (fixed and adaptive);
* scatter-gather top-k over shards (and replica groups) equals the
  unsharded top-k;
* cost-aware spillover routing never changes recommendations: for any
  queue state (busy history, work/energy estimates, target, headroom)
  the heterogeneous group's serve_batch equals the IMC-only reference;
* every cache lookup -- hit and miss alike -- charges probe energy, and
  the ledger total equals the sum of the charged costs;
* SLO percentiles are monotone (p50 <= p95 <= p99 <= max) for arbitrary
  request records, globally and per tenant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import BatchResult, QueryResult, ServeQuery
from repro.energy.accounting import Cost, Ledger
from repro.serving.cache import ServingCache, TinyLFUAdmission
from repro.serving.scheduler import (
    AdaptiveBatchConfig,
    AdaptiveMicroBatchScheduler,
    MicroBatchConfig,
    MicroBatchScheduler,
)
from repro.serving.shard import ReplicaGroup, ShardedEngine, partition_corpus
from repro.serving.slo import RequestRecord, summarize, summarize_tenants
from repro.serving.traffic import Request


# -- scheduler admission invariants --------------------------------------


@st.composite
def request_streams(draw):
    """Sorted arrival times from non-negative gaps (possibly bursty)."""
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    arrivals = np.cumsum(gaps)
    return [
        Request(request_id=index, arrival_s=float(arrival), user=index)
        for index, arrival in enumerate(arrivals)
    ]


def _service_times(seed, scale=0.05):
    rng = np.random.default_rng(seed)
    return lambda batch: float(rng.uniform(0.0, scale))


@given(
    requests=request_streams(),
    max_batch_size=st.integers(min_value=1, max_value=8),
    max_wait_s=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60)
def test_scheduler_admission_invariants(requests, max_batch_size, max_wait_s, seed):
    config = MicroBatchConfig(max_batch_size=max_batch_size, max_wait_s=max_wait_s)
    batches = MicroBatchScheduler(config).run(requests, _service_times(seed))
    served = [request.request_id for batch in batches for request in batch.requests]
    # Every request is served exactly once, in arrival order.
    assert sorted(served) == [request.request_id for request in requests]
    for batch in batches:
        # Never above the size cap.
        assert 1 <= len(batch) <= max_batch_size
        # Never held past the wait window after the batch opened.
        assert batch.dispatch_s <= batch.open_s + max_wait_s + 1e-12
        # The window cannot open before its first member arrives.
        assert batch.open_s >= batch.requests[0].arrival_s - 1e-12
        # No request dispatches before it arrives.
        for request in batch.requests:
            assert batch.dispatch_s >= request.arrival_s - 1e-12


@given(
    requests=request_streams(),
    target_p95_s=st.floats(min_value=1e-3, max_value=0.5, allow_nan=False),
    max_batch_size=st.integers(min_value=2, max_value=16),
    window=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60)
def test_adaptive_scheduler_respects_bounds(
    requests, target_p95_s, max_batch_size, window, seed
):
    config = AdaptiveBatchConfig(
        target_p95_s=target_p95_s,
        window=window,
        max_batch_size=max_batch_size,
        max_wait_s=0.5 * target_p95_s,
    )
    scheduler = AdaptiveMicroBatchScheduler(config)
    batches = scheduler.run(requests, _service_times(seed))
    served = [request.request_id for batch in batches for request in batch.requests]
    assert sorted(served) == [request.request_id for request in requests]
    for batch in batches:
        # Whatever the controller retuned to, the configured bounds hold:
        # no batch above the outer cap, no hold past the outer window.
        assert 1 <= len(batch) <= config.max_batch_size
        assert batch.dispatch_s <= batch.open_s + config.max_wait_s + 1e-12
    for decision in scheduler.knob_history:
        assert config.min_batch_size <= decision["max_batch_size"] <= config.max_batch_size
        assert config.min_wait_s <= decision["max_wait_s"] <= config.max_wait_s + 1e-12


# -- scatter-gather merge equals unsharded top-k -------------------------


class _MatrixEngine:
    """Fake engine scoring items from a fixed (query x item) table."""

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

    def serve_batch(self, queries, users=None):
        results = [self._one(query) for query in queries]
        return BatchResult(
            results=results, cost=Cost(energy_pj=len(results), latency_ns=1.0)
        )

    def merge_cost(self, num_entries):
        return Cost(energy_pj=0.1, latency_ns=0.1)


@given(
    num_items=st.integers(min_value=1, max_value=40),
    num_queries=st.integers(min_value=1, max_value=6),
    num_shards=st.integers(min_value=1, max_value=5),
    replicas=st.integers(min_value=1, max_value=3),
    top_k=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60)
def test_scatter_gather_topk_equals_unsharded(
    num_items, num_queries, num_shards, replicas, top_k, seed
):
    num_shards = min(num_shards, num_items)
    top_k = min(top_k, num_items)
    rng = np.random.default_rng(seed)
    # Globally distinct scores: the top-k ordering is unambiguous.
    scores = rng.permutation(num_queries * num_items).reshape(
        num_queries, num_items
    ).astype(np.float64)
    queries = [ServeQuery.make([index], [index], [index]) for index in range(num_queries)]
    query_index = {query: index for index, query in enumerate(queries)}

    unsharded = _MatrixEngine(scores, query_index, np.arange(num_items), top_k)
    shards = []
    for subset in partition_corpus(num_items, num_shards):
        members = [
            _MatrixEngine(scores, query_index, subset, top_k)
            for _ in range(replicas)
        ]
        shards.append(members[0] if replicas == 1 else ReplicaGroup(members))
    sharded = ShardedEngine(shards, top_k=top_k)

    expected = unsharded.serve_batch(queries)
    merged = sharded.serve_batch(queries)
    for expected_result, merged_result in zip(expected.results, merged.results):
        assert merged_result.items == expected_result.items
        assert merged_result.scores == expected_result.scores


# -- spillover routing never changes recommendations ----------------------


class _HeteroEngine(_MatrixEngine):
    """Matrix engine with a configurable speed/energy profile.

    Models one member of a heterogeneous replica group: same functional
    scores (the spillover contract), different observed occupancy and
    energy estimates for the router to chew on.
    """

    def __init__(
        self,
        scores,
        query_index,
        item_subset,
        top_k,
        latency_est=None,
        energy_est=None,
    ):
        super().__init__(scores, query_index, item_subset, top_k)
        self.expected_query_latency_s = latency_est
        self.expected_query_energy_pj = energy_est


@given(
    num_items=st.integers(min_value=1, max_value=30),
    num_queries=st.integers(min_value=1, max_value=10),
    num_shards=st.integers(min_value=1, max_value=3),
    num_replicas=st.integers(min_value=2, max_value=4),
    top_k=st.integers(min_value=1, max_value=6),
    p95_target_s=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
    spill_headroom=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    profile_seed=st.integers(min_value=0, max_value=2**16),
    rounds=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60)
def test_spillover_routing_never_changes_recommendations(
    num_items,
    num_queries,
    num_shards,
    num_replicas,
    top_k,
    p95_target_s,
    spill_headroom,
    profile_seed,
    rounds,
    seed,
):
    """For ANY queue state -- arbitrary busy history, latency/energy
    estimates (including unobserved members), target and headroom -- the
    heterogeneous group's top-k equals the IMC-only reference's."""
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

    profile_rng = np.random.default_rng(profile_seed)

    def replica_profile():
        latency = (
            None
            if profile_rng.random() < 0.3
            else float(profile_rng.uniform(1e-6, 2.0 * p95_target_s))
        )
        energy = (
            None
            if profile_rng.random() < 0.3
            else float(profile_rng.uniform(1.0, 1e6))
        )
        return latency, energy

    unsharded = _MatrixEngine(scores, query_index, np.arange(num_items), top_k)
    shards = []
    for subset in partition_corpus(num_items, num_shards):
        members = []
        for _ in range(num_replicas):
            latency, energy = replica_profile()
            members.append(
                _HeteroEngine(
                    scores, query_index, subset, top_k,
                    latency_est=latency, energy_est=energy,
                )
            )
        group = ReplicaGroup(
            members, p95_target_s=p95_target_s, spill_headroom=spill_headroom
        )
        # Arbitrary pre-existing queue state.
        group.busy_s = [
            float(value)
            for value in profile_rng.uniform(0.0, 5.0, size=num_replicas)
        ]
        shards.append(group)
    sharded = ShardedEngine(shards, top_k=top_k)

    for _ in range(rounds):
        expected = unsharded.serve_batch(queries)
        merged = sharded.serve_batch(queries)
        for expected_result, merged_result in zip(expected.results, merged.results):
            assert merged_result.items == expected_result.items
            assert merged_result.scores == expected_result.scores

    for group in shards:
        total_assigned = sum(group.assigned)
        assert 0 <= group.spilled <= total_assigned
        assert total_assigned == rounds * num_queries


# -- cache energy accounting ---------------------------------------------


@given(
    keys=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=80),
    capacity=st.integers(min_value=1, max_value=8),
    with_admission=st.booleans(),
)
@settings(max_examples=60)
def test_cache_charges_hits_and_misses(keys, capacity, with_admission):
    admission = TinyLFUAdmission(sample_size=16, seed=0) if with_admission else None
    cache = ServingCache(capacity=capacity, rows_per_entry=3, admission=admission)
    ledger = Ledger()
    charged = Cost()
    for key in keys:
        value, cost = cache.lookup(key)
        # Hit and miss alike pay the CMA probe: energy is always charged.
        assert cost.energy_pj > 0.0
        ledger.charge("Cache", cost)
        charged = charged.then(cost)
        if value is None:
            fill = cache.insert(key, ("result", key))
            assert fill.energy_pj >= 0.0
            ledger.charge("Cache", fill)
            charged = charged.then(fill)
        else:
            assert value == ("result", key)
        assert len(cache) <= capacity
    total = ledger.total()
    assert total.energy_pj == charged.energy_pj
    assert total.latency_ns == charged.latency_ns
    assert cache.hits + cache.misses == len(keys)
    if admission is None:
        assert cache.rejections == 0


# -- SLO percentile monotonicity -----------------------------------------


@st.composite
def request_records(draw):
    count = draw(st.integers(min_value=1, max_value=50))
    records = []
    for index in range(count):
        arrival = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        wait = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        records.append(
            RequestRecord(
                request=Request(
                    request_id=index,
                    arrival_s=arrival,
                    user=index,
                    tenant=draw(st.sampled_from(["alpha", "beta", "gamma"])),
                ),
                completion_s=arrival + wait,
                batch_size=draw(st.integers(min_value=1, max_value=8)),
                cache_hit=draw(st.booleans()),
                items=(1, 2, 3),
            )
        )
    return records


@given(records=request_records(), energy_pj=st.floats(min_value=0.0, max_value=1e9))
@settings(max_examples=60)
def test_slo_percentiles_monotone(records, energy_pj):
    ledger = Ledger()
    ledger.charge("Serve", Cost(energy_pj=energy_pj, latency_ns=1.0))
    report = summarize(records, ledger)
    assert report.p50_ms <= report.p95_ms <= report.p99_ms <= report.max_ms
    assert 0.0 <= report.cache_hit_rate <= 1.0
    assert report.num_requests == len(records)
    tenant_reports = summarize_tenants(records, ledger)
    for tenant_report in tenant_reports.values():
        assert tenant_report.p50_ms <= tenant_report.p95_ms <= tenant_report.p99_ms
    # Pro-rata energy attribution conserves the session total.
    total_uj = sum(
        tenant_report.energy_per_request_uj * tenant_report.num_requests
        for tenant_report in tenant_reports.values()
    )
    assert total_uj == pytest.approx(ledger.total().energy_uj, rel=1e-9, abs=1e-12)
    assert sum(r.num_requests for r in tenant_reports.values()) == len(records)
