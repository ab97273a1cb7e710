"""Closed-loop autoscaling demo: right-size a multi-tenant deployment.

Builds two MovieLens-shaped tenant corpora, mixes a trace-replay tenant
with a bursty one into a single overloaded request stream, and lets the
autoscaler grow (shards, replicas) -- serving every candidate deployment
through the full stack (replica groups, SLO-aware adaptive batching,
TinyLFU-admission cache with warm-up) -- until both tenants' p95
contracts hold, then prints the trajectory and the chosen deployment.

Run:  python examples/autoscale_serving.py
"""

from repro.core import ServeQuery, WorkloadMapping
from repro.data.movielens import MovieLensDataset, movielens_table_specs
from repro.models.youtube_dnn import (
    YouTubeDNNConfig,
    YouTubeDNNFiltering,
    YouTubeDNNRanking,
)
from repro.serving import (
    AdaptiveBatchConfig,
    AdaptiveMicroBatchScheduler,
    Autoscaler,
    AutoscalerConfig,
    BurstyTraffic,
    MultiTenantTraffic,
    ServingCache,
    ServingSession,
    TenantSpec,
    TinyLFUAdmission,
    TraceReplayTraffic,
    make_sharded_engine,
)

SCALE = 0.03
NUM_CANDIDATES = 24
TOP_K = 5
NUM_REQUESTS = 150


def build_tenant(seed):
    dataset = MovieLensDataset(scale=SCALE, seed=seed)
    config = YouTubeDNNConfig(
        num_items=dataset.num_items,
        demographic_cardinalities=(dataset.num_users, 3, 7, 21, 450),
        seed=seed,
    )
    workload = [
        ServeQuery.make(
            dataset.histories[user],
            dataset.demographics[user],
            dataset.ranking_context[user],
        )
        for user in range(dataset.num_users)
    ]
    return dataset, YouTubeDNNFiltering(config), YouTubeDNNRanking(config), workload


print(f"Generating two tenant corpora (scale={SCALE}) ...")
dataset_a, filtering, ranking, workload_a = build_tenant(seed=0)
dataset_b, _, _, workload_b = build_tenant(seed=1)
mapping = WorkloadMapping(movielens_table_specs())
workload = workload_a + workload_b
print(f"  tenant A: {dataset_a.num_users} users, tenant B: {dataset_b.num_users} users")

print("Calibrating the operating point against one engine ...")
probe = make_sharded_engine(
    "imars", filtering, ranking, 1, mapping=mapping,
    num_candidates=NUM_CANDIDATES, top_k=TOP_K, seed=0,
)
batch_one_s = probe.recommend_query(workload[0]).cost.latency_s
capacity_qps = 16 / probe.serve_batch(workload[:16]).cost.latency_s
rate_qps = 2.5 * capacity_qps  # deliberately overloads a single engine
slo_a_ms = 6.0 * batch_one_s * 1e3
slo_b_ms = 12.0 * batch_one_s * 1e3

traffic = MultiTenantTraffic([
    TenantSpec(
        name="movielens",
        traffic=TraceReplayTraffic.from_movielens(dataset_a, 0.6 * rate_qps, seed=0),
        share=0.6,
        p95_slo_ms=slo_a_ms,
    ),
    TenantSpec(
        name="bursty-b",
        traffic=BurstyTraffic(
            calm_qps=0.3 * rate_qps,
            burst_qps=1.5 * rate_qps,
            num_users=dataset_b.num_users,
            mean_calm_s=15.0 / rate_qps,
            mean_burst_s=15.0 / rate_qps,
            seed=0,
            stream=1,
        ),
        share=0.4,
        p95_slo_ms=slo_b_ms,
    ),
])
requests = traffic.generate(NUM_REQUESTS)
span = requests[-1].arrival_s - requests[0].arrival_s
print(f"\n{NUM_REQUESTS} mixed requests over {span * 1e3:.2f} ms "
      f"({NUM_REQUESTS / span:,.0f} q/s offered; "
      f"SLOs: movielens {slo_a_ms:.3f} ms, bursty-b {slo_b_ms:.3f} ms)")


def evaluate(shards, replicas, spillover):
    # ``spillover`` (GPU replicas per shard) stays 0: the config below
    # allows none, so every candidate is an IMC-only fleet.
    engine = make_sharded_engine(
        "imars", filtering, ranking, shards, mapping=mapping,
        num_candidates=NUM_CANDIDATES, top_k=TOP_K, seed=0,
        replicas_per_shard=replicas,
    )
    session = ServingSession(
        engine,
        workload,
        scheduler=AdaptiveMicroBatchScheduler(
            AdaptiveBatchConfig(
                target_p95_s=slo_a_ms / 1e3,
                max_batch_size=16,
                max_wait_s=0.25 * slo_a_ms / 1e3,
            )
        ),
        cache=ServingCache(
            capacity=max(4, traffic.num_users // 4),
            rows_per_entry=TOP_K,
            admission=TinyLFUAdmission(seed=0),
        ),
        label=f"s={shards} r={replicas}",
    )
    session.warm(range(0, traffic.num_users, 8))
    return session.run(requests)


print("\nClosing the loop (start at 1 shard x 1 replica) ...")
outcome = Autoscaler(
    evaluate,
    AutoscalerConfig(
        p95_slo_ms=slo_a_ms,
        tenant_slos_ms={"movielens": slo_a_ms, "bursty-b": slo_b_ms},
        max_shards=3,
        max_replicas=3,
    ),
).run()
print(outcome.format())

shards, replicas, _ = outcome.chosen
print(f"\nChosen deployment: {shards} shard(s) x {replicas} replica(s)")
for tenant, tenant_report in outcome.best.tenant_reports.items():
    print(tenant_report.format_row())
