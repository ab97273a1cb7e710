"""Online serving subsystem: traffic -> scheduler -> shards -> SLO report.

The paper evaluates iMARS with an offline, batch-1, whole-dataset
protocol; this package turns the same calibrated cost models into a
*traffic simulator* that answers the production questions the paper
cannot: tail latency under bursty load, shard/replica scaling, cache
admission, multi-tenant contention, right-sizing, heterogeneous
IMC+GPU fleets, live scale events and overload shedding.

Pipeline of one simulation (:class:`~repro.serving.session.ServingSession`):

1. a seeded :mod:`~repro.serving.traffic` generator emits timestamped
   requests (Poisson, MMPP bursty, diurnal, or trace replay) -- or a
   :class:`~repro.serving.traffic.MultiTenantTraffic` mixer interleaves
   several tenants' streams, each with its own p95 SLO;
2. an optional :mod:`~repro.serving.admission` controller rules on every
   request at dispatch: requests whose projected completion fits the
   tenant's budget are served in full, ones that eat past the degrade
   watermark are answered with a reduced top-k, and ones that would
   overrun the budget are shed at the front door -- with shed/degrade
   volumes reported first-class in the SLO report;
3. the :mod:`~repro.serving.scheduler` micro-batches admitted requests
   under a max-batch-size / max-wait admission policy; the
   :class:`~repro.serving.scheduler.AdaptiveMicroBatchScheduler` variant
   retunes both knobs online from the observed p95-vs-SLO gap;
4. each batch is checked against the :mod:`~repro.serving.cache` (an LRU
   result cache whose CMA lookups are charged to the energy ledger,
   optionally guarded by TinyLFU admission, warmable, and invalidated
   range-wise when re-sharding moves item rows) and the misses are
   served by a (possibly :mod:`~repro.serving.shard`-ed) engine through
   the uniform ``serve_batch`` interface of :mod:`repro.core.pipeline`;
   each shard can be a :class:`~repro.serving.shard.ReplicaGroup` --
   homogeneous (R seed-identical engines, least-outstanding-work
   routing) or *heterogeneous*: IMC primaries plus
   :class:`~repro.core.pipeline.GPUSpilloverEngine` replicas serving
   bit-identical recommendations, with a cost-aware spillover router
   that fills the cheapest engine until its outstanding work threatens
   the p95 target and overflows the rest to the fast-but-hungry backend;
5. :mod:`~repro.serving.slo` folds the per-request records into
   p50/p95/p99 latency, sustained QPS, energy-per-request and
   shed/degrade counts, globally and per tenant;
6. under fault injection (:mod:`~repro.serving.faults`: a seeded
   :class:`~repro.serving.faults.FaultPlan` of replica crashes, shard
   outages, stragglers, transient errors and cache flushes) the
   :mod:`~repro.serving.resilience` layer keeps the fleet answering:
   per-replica timeouts with retry/backoff budgets re-billed to the
   ledger under "Retry", tail hedging under "Hedge", closed/open/
   half-open circuit breakers with failover routing around open ones,
   and partial scatter-gather -- a shard dark past its deadline costs
   recall, not availability.  With an empty plan the wrapped fleet is
   bit-identical to an unwrapped one (recommendations, ledgers,
   telemetry);
7. the :mod:`~repro.serving.autoscaler` closes the loop two ways: the
   replaying :class:`~repro.serving.autoscaler.Autoscaler` searches
   (shards, replicas, spillover_replicas) with energy-aware placement
   against recorded traffic for capacity planning, while the live
   :class:`~repro.serving.autoscaler.OnlineScaler` (or a
   :class:`~repro.serving.autoscaler.ScheduledScalePlan`) rescales the
   running session itself -- every online event paying a state-migration
   bill (re-partitioned item rows, replica-slice copies, cache
   invalidation) to the energy ledger instead of restarting the world;
8. :mod:`~repro.serving.forecast` makes the scaling *predictive*: a
   :class:`~repro.serving.forecast.TrafficForecaster` fits a seasonal-
   plus-trend model to the observed arrivals mid-run and the
   :class:`~repro.serving.forecast.PredictiveScaler` emits a
   :class:`~repro.serving.autoscaler.ScheduledScalePlan` ahead of each
   predicted ramp (lead time >= the measured migration latency), with
   :class:`~repro.serving.forecast.DeploymentCapacityModel` choosing the
   cheapest deployment with headroom for each forecast rate.

Every hop of that pipeline is batch-native: the scheduler hands whole
micro-batches to ``serve_batch``, engines run vectorised multi-query
kernels (packed-bit Hamming scans, batched fixed-radius or exact-cosine
search, array-level CTR scoring, one row-wise stable top-k -- see
:mod:`repro.nns.exact`, :mod:`repro.nns.fixed_radius` and
:mod:`repro.lsh.hamming`), and :class:`~repro.serving.shard.ShardedEngine`
merges a batch's shard results in one vectorised pass with a single
cached merge price per entry count.  The kernels are *bit-identical*
to each engine's per-query ``recommend`` in items, CTR scores and
energy ledgers -- pinned by ``tests/serving/test_vector_equivalence.py``
and a Hypothesis property across topologies and cache states.
"""

from repro.serving.admission import (
    ACCEPT,
    DEGRADE,
    SHED,
    AdmissionConfig,
    AdmissionController,
)
from repro.serving.autoscaler import (
    AutoscaleResult,
    Autoscaler,
    AutoscalerConfig,
    OnlineScaler,
    OnlineScalerConfig,
    ScaleStep,
    ScheduledScalePlan,
)
from repro.serving.cache import (
    CountMinSketch,
    RepetitionAwareCache,
    ServingCache,
    TinyLFUAdmission,
)
from repro.serving.execution import (
    EXECUTION_MODELS,
    EagerExecutionModel,
    ExecutionOutcome,
    HybridExecutionModel,
    LazyExecutionModel,
    run_execution_model,
)
from repro.serving.forecast import (
    DeploymentCapacity,
    DeploymentCapacityModel,
    ForecastModel,
    PredictiveScaler,
    TrafficForecaster,
    build_scale_plan,
)
from repro.serving.faults import (
    FaultError,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    chaos_scenario,
    escalating_scenarios,
)
from repro.serving.pricing import (
    DEFAULT_PRICE_BOOK,
    PriceBook,
    PriceLedger,
    price_serving_run,
)
from repro.serving.resilience import (
    CircuitBreaker,
    FaultContext,
    ResilienceConfig,
    attach_faults,
)
from repro.serving.scheduler import (
    AdaptiveBatchConfig,
    AdaptiveMicroBatchScheduler,
    Batch,
    MicroBatchConfig,
    MicroBatchScheduler,
)
from repro.serving.session import ScaleEvent, ServingResult, ServingSession
from repro.serving.shard import (
    ReplicaGroup,
    ShardedEngine,
    make_sharded_engine,
    migration_cost,
    migration_plan,
    partition_corpus,
    plan_scale_migration,
)
from repro.serving.slo import (
    RequestRecord,
    SLOReport,
    slo_violation_windows,
    summarize,
    summarize_tenants,
)
from repro.serving.traffic import (
    BurstyTraffic,
    DiurnalTraffic,
    MultiTenantTraffic,
    PoissonTraffic,
    Request,
    TenantSpec,
    TraceReplayTraffic,
    zipf_user_weights,
)
from repro.serving.workload_analyzer import (
    WorkloadFeatures,
    analyze_trace,
    hot_users,
    recommend_execution_model,
    user_request_counts,
)

__all__ = [
    "ACCEPT",
    "DEFAULT_PRICE_BOOK",
    "DEGRADE",
    "EXECUTION_MODELS",
    "SHED",
    "AdaptiveBatchConfig",
    "AdaptiveMicroBatchScheduler",
    "AdmissionConfig",
    "AdmissionController",
    "AutoscaleResult",
    "Autoscaler",
    "AutoscalerConfig",
    "Batch",
    "BurstyTraffic",
    "CircuitBreaker",
    "CountMinSketch",
    "DeploymentCapacity",
    "DeploymentCapacityModel",
    "DiurnalTraffic",
    "EagerExecutionModel",
    "ExecutionOutcome",
    "FaultContext",
    "ForecastModel",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HybridExecutionModel",
    "LazyExecutionModel",
    "MicroBatchConfig",
    "MicroBatchScheduler",
    "MultiTenantTraffic",
    "OnlineScaler",
    "OnlineScalerConfig",
    "PoissonTraffic",
    "PredictiveScaler",
    "PriceBook",
    "PriceLedger",
    "RepetitionAwareCache",
    "ReplicaGroup",
    "Request",
    "RequestRecord",
    "ResilienceConfig",
    "SLOReport",
    "ScaleEvent",
    "ScaleStep",
    "ScheduledScalePlan",
    "ServingCache",
    "ServingResult",
    "ServingSession",
    "ShardedEngine",
    "TenantSpec",
    "TinyLFUAdmission",
    "TraceReplayTraffic",
    "TrafficForecaster",
    "WorkloadFeatures",
    "analyze_trace",
    "attach_faults",
    "build_scale_plan",
    "chaos_scenario",
    "escalating_scenarios",
    "hot_users",
    "make_sharded_engine",
    "migration_cost",
    "migration_plan",
    "partition_corpus",
    "plan_scale_migration",
    "price_serving_run",
    "slo_violation_windows",
    "recommend_execution_model",
    "run_execution_model",
    "summarize",
    "summarize_tenants",
    "user_request_counts",
    "zipf_user_weights",
]
