"""E-SERVE -- online serving study: tail latency, sharding, caching.

The paper's Sec. IV-C3 protocol is offline: per-query cost at batch 1,
averaged over a whole dataset.  This extension drives the same calibrated
engines with *live traffic* -- timestamped requests, micro-batching
admission control, an LRU result cache and scatter-gather sharding -- and
reports what a production deployment is judged on:

* p50/p95/p99 end-to-end latency (queueing + batching + service),
* sustained throughput,
* energy per request (engine + cache + merge traffic),

for iMARS vs the GPU baseline, across >= 3 traffic patterns (Poisson,
MMPP bursty, diurnal, MovieLens trace replay) and >= 2 shard counts.

Both engines face the *same offered load*, set to a fixed fraction of the
GPU's batch-1 capacity: at that operating point the GPU queues while the
iMARS fabric is barely utilised -- the latency-regime advantage the
paper's averages cannot show.  The models are untrained (random
embeddings): serving behaviour depends only on cost models, corpus shape
and traffic, not on recommendation accuracy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import ServeQuery
from repro.experiments.common import ExperimentReport, ServingCorpus
from repro.obs import Telemetry
from repro.serving.cache import ServingCache
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingResult, ServingSession
from repro.serving.slo import SLOReport
from repro.serving.traffic import (
    BurstyTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    TraceReplayTraffic,
)

__all__ = ["run_serving_study", "SERVING_STUDY_DEFAULTS"]

#: Study-scale defaults (small corpus: the study measures scheduling and
#: cost-model behaviour, which are corpus-shape invariant).
SERVING_STUDY_DEFAULTS = {
    "scale": 0.04,
    "num_candidates": 24,
    "top_k": 5,
    "num_requests": 160,
    "shard_counts": (1, 2),
    "max_batch_size": 8,
    "max_wait_s": 0.0005,
    "load_fraction": 0.75,  # offered load as a fraction of GPU capacity
    "cache_fraction": 3,  # cache capacity = num_users // cache_fraction
}


def _traffic_patterns(rate_qps: float, dataset, seed: int) -> List[object]:
    """The study's arrival processes, all at comparable mean load."""
    return [
        PoissonTraffic(rate_qps, num_users=dataset.num_users, seed=seed, stream=10),
        BurstyTraffic(
            calm_qps=0.5 * rate_qps,
            burst_qps=2.5 * rate_qps,
            num_users=dataset.num_users,
            mean_calm_s=0.05,
            mean_burst_s=0.02,
            seed=seed,
            stream=20,
        ),
        DiurnalTraffic(
            base_qps=rate_qps,
            num_users=dataset.num_users,
            amplitude=0.8,
            period_s=0.5,
            seed=seed,
            stream=30,
        ),
        TraceReplayTraffic.from_movielens(dataset, rate_qps, seed=seed, stream=40),
    ]


def _cache_hit_identity(engine, workload: Sequence[ServeQuery]) -> bool:
    """Hit path must return exactly what the miss path computed."""
    cache = ServingCache(capacity=8, rows_per_entry=5)
    query = workload[0]
    miss = engine.recommend_query(query)
    cache.insert(query, (tuple(miss.items), tuple(miss.scores)))
    value, _ = cache.lookup(query)
    if value is None:
        return False
    items, scores = value
    return list(items) == list(miss.items) and list(scores) == list(miss.scores)


def _records_hit_identity(result: ServingResult) -> bool:
    """Within a session, every hit served the same items as the first miss."""
    first_by_user: Dict[int, Tuple[int, ...]] = {}
    for record in result.records:
        user = record.request.user
        if user not in first_by_user:
            first_by_user[user] = record.items
        elif record.cache_hit and record.items != first_by_user[user]:
            return False
    return True


def run_serving_study(
    seed: int = 0,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    **overrides,
) -> ExperimentReport:
    """Run the full serving grid and fold it into an experiment report.

    ``trace_out`` / ``metrics_out`` enable the telemetry plane and write
    the combined trace (Chrome trace-event JSON, or JSONL for a
    ``.jsonl`` path) and Prometheus textfile covering every session in
    the grid.  Tracing is observation-only: reported latencies, energy
    and recommendations are bit-identical with it on or off.
    """
    params = dict(SERVING_STUDY_DEFAULTS)
    params.update(overrides)
    telemetry = Telemetry() if (trace_out or metrics_out) else None
    report = ExperimentReport(
        "E-SERVE", "Online serving: tail latency, sharding, caching"
    )
    corpus = ServingCorpus(
        seed, params["scale"], params["num_candidates"], params["top_k"]
    )
    dataset, workload = corpus.dataset, corpus.workload
    engines: Dict[Tuple[str, int], object] = {
        (kind, shards): corpus.fleet(kind, shards)
        for kind in ("imars", "gpu")
        for shards in params["shard_counts"]
    }

    # Offered load: a fixed fraction of the GPU's batch-1 capacity, so both
    # platforms face identical traffic at a GPU-stressing operating point.
    min_shards = min(params["shard_counts"])
    gpu_probe = engines[("gpu", min_shards)].recommend_query(workload[0])
    rate_qps = params["load_fraction"] / gpu_probe.cost.latency_s
    patterns = _traffic_patterns(rate_qps, dataset, seed)

    scheduler_config = MicroBatchConfig(
        max_batch_size=params["max_batch_size"], max_wait_s=params["max_wait_s"]
    )
    cache_capacity = max(4, dataset.num_users // params["cache_fraction"])

    grid: Dict[Tuple[str, str, int], SLOReport] = {}
    identity_ok = True
    for pattern in patterns:
        requests = pattern.generate(params["num_requests"])
        for (kind, shards), engine in engines.items():
            label = f"{kind} {pattern.name} shards={shards}"
            session = ServingSession(
                engine,
                workload,
                scheduler=MicroBatchScheduler(scheduler_config),
                cache=ServingCache(
                    capacity=cache_capacity, rows_per_entry=params["top_k"]
                ),
                label=label,
                telemetry=telemetry,
            )
            result = session.run(requests)
            identity_ok = identity_ok and _records_hit_identity(result)
            grid[(kind, pattern.name, shards)] = result.report
            report.note(result.report.format_row().strip())

    # -- invariants the study asserts ------------------------------------
    report.add(
        "cache hit/miss top-k identity",
        1,
        int(
            identity_ok
            and all(
                _cache_hit_identity(engine, workload) for engine in engines.values()
            )
        ),
    )
    pattern_names = [pattern.name for pattern in patterns]
    report.add(
        "iMARS p95 below GPU p95 (all patterns, min shards)",
        1,
        int(
            all(
                grid[("imars", name, min_shards)].p95_ms
                <= grid[("gpu", name, min_shards)].p95_ms
                for name in pattern_names
            )
        ),
    )
    report.add(
        "iMARS energy/request below GPU (all sessions)",
        1,
        int(
            all(
                grid[("imars", name, shards)].energy_per_request_uj
                < grid[("gpu", name, shards)].energy_per_request_uj
                for name in pattern_names
                for shards in params["shard_counts"]
            )
        ),
    )
    max_shards = max(params["shard_counts"])
    if max_shards > min_shards:
        sharded_probe = engines[("imars", max_shards)].recommend_query(workload[0])
        unsharded_probe = engines[("imars", min_shards)].recommend_query(workload[0])
        report.add(
            f"sharding {min_shards}->{max_shards} cuts iMARS query latency",
            1,
            int(sharded_probe.cost.latency_ns < unsharded_probe.cost.latency_ns),
        )

    # Cache ablation: same traffic, cache on vs off (energy saving).
    ablation_requests = patterns[0].generate(params["num_requests"])
    imars_engine = engines[("imars", min_shards)]
    with_cache = ServingSession(
        imars_engine,
        workload,
        scheduler=MicroBatchScheduler(scheduler_config),
        cache=ServingCache(capacity=cache_capacity, rows_per_entry=params["top_k"]),
        label="imars cache-on",
        telemetry=telemetry,
    ).run(ablation_requests)
    without_cache = ServingSession(
        imars_engine,
        workload,
        scheduler=MicroBatchScheduler(scheduler_config),
        cache=None,
        label="imars cache-off",
        telemetry=telemetry,
    ).run(ablation_requests)
    report.add(
        "result cache lowers energy/request",
        1,
        int(
            with_cache.report.energy_per_request_uj
            < without_cache.report.energy_per_request_uj
        ),
    )
    saving = 1.0 - (
        with_cache.report.energy_per_request_uj
        / without_cache.report.energy_per_request_uj
    )
    report.note(
        f"offered load {rate_qps:,.0f} q/s ({params['load_fraction']:.0%} of GPU "
        f"batch-1 capacity); cache capacity {cache_capacity} entries; "
        f"cache hit rate {with_cache.report.cache_hit_rate:.0%} -> "
        f"{saving:.0%} energy/request saving on the Poisson stream."
    )
    report.extras["grid"] = grid
    report.extras["cache_ablation"] = {
        "with": with_cache.report,
        "without": without_cache.report,
    }
    report.extras["rate_qps"] = rate_qps
    if telemetry is not None:
        telemetry.export(trace_out, metrics_out)
    return report
