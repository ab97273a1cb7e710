"""The serving simulation loop: traffic in, SLO report out.

A :class:`ServingSession` wires the pieces together: it maps each
request's user to their :class:`~repro.core.pipeline.ServeQuery`, lets the
micro-batch scheduler drive the engine, short-circuits repeated queries
through the LRU cache, and accounts every joule (engine serve, cache
probes, cache fills) in one session ledger.

Timing model of one dispatched batch:

* an attached :class:`~repro.serving.admission.AdmissionController`
  rules first: shed requests complete (rejected) at dispatch and never
  touch the cache or engine; degraded ones are served with a reduced
  top-k;
* cache lookups run next; hits complete at ``dispatch + lookup latency``
  (they never wait for the engine);
* the remaining misses are served as one engine micro-batch; they
  complete when the engine batch finishes;
* the engine is occupied for lookups + miss batch + cache fills, which is
  what the scheduler's free-time clock advances by.

Online scale events
-------------------
With an ``engine_factory`` the deployment is no longer fixed for the
run: :meth:`ServingSession.scale_to` swaps the engine for a new
(shards, replicas) build *mid-run*, charging the state migration --
re-partitioned item rows streamed into their new shards, replica-slice
copies (:func:`~repro.serving.shard.plan_scale_migration`) -- to the
session ledger under "Migration", and invalidating cache entries that
reference moved item ranges.  The swap stalls the data plane: the
migration latency extends the batch occupancy the scheduler sees, so
scaling out under pressure costs real tail latency *now* in exchange for
capacity *afterwards* -- no simulation restart, no free lunch.  A
``scaler`` (e.g. :class:`~repro.serving.autoscaler.OnlineScaler` or a
:class:`~repro.serving.autoscaler.ScheduledScalePlan`) automates the
trigger after every batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import ServeQuery
from repro.energy.accounting import Cost, Ledger
from repro.obs.metrics import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_S
from repro.obs.telemetry import Telemetry, attach_telemetry
from repro.serving.admission import ACCEPT, DEGRADE, SHED, AdmissionController
from repro.serving.cache import ServingCache
from repro.serving.faults import FaultError, FaultPlan
from repro.serving.pricing import PriceBook, PriceLedger, price_serving_run
from repro.serving.resilience import (
    FaultContext,
    ResilienceConfig,
    attach_faults,
    failed_batch_result,
)
from repro.serving.scheduler import Batch, MicroBatchConfig, MicroBatchScheduler
from repro.serving.shard import migration_cost, plan_scale_migration
from repro.serving.slo import (
    RequestRecord,
    SLOReport,
    summarize,
    summarize_tenants,
)
from repro.serving.traffic import Request

__all__ = ["ScaleEvent", "ServingResult", "ServingSession"]


@dataclass(frozen=True)
class ScaleEvent:
    """One online deployment change and what it cost."""

    time_s: float
    old_deployment: Tuple[int, int]
    new_deployment: Tuple[int, int]
    moved_rows: int
    invalidated_entries: int
    cost: Cost


@dataclass
class ServingResult:
    """Everything one simulated session produced."""

    label: str
    records: List[RequestRecord]
    batches: List[Batch]
    ledger: Ledger
    cache_stats: Optional[Dict[str, float]] = None
    admission_stats: Optional[Dict[str, object]] = None
    spill_stats: Optional[Dict[str, object]] = None
    #: Fault/recovery accounting (:meth:`FaultContext.stats`) when the
    #: session ran under an attached fault plane; None otherwise.
    fault_stats: Optional[Dict[str, object]] = None
    #: Dollar bill of the run (:func:`~repro.serving.pricing.price_serving_run`)
    #: when the session carried a price book; None = energy-only run.
    price_ledger: Optional[PriceLedger] = None
    scale_events: List[ScaleEvent] = field(default_factory=list)
    _report: Optional[SLOReport] = field(default=None, repr=False)

    @property
    def report(self) -> SLOReport:
        if self._report is None:
            mttr_s = (
                self.fault_stats.get("mttr_s")
                if self.fault_stats is not None
                else None
            )
            self._report = summarize(
                self.records,
                self.ledger,
                label=self.label,
                mttr_s=mttr_s,
                price_ledger=self.price_ledger,
            )
        return self._report

    @property
    def tenant_reports(self) -> Dict[str, SLOReport]:
        """Per-tenant SLO reports (energy attributed pro rata)."""
        return summarize_tenants(self.records, self.ledger, label=self.label)


def _primary_engine(engine) -> object:
    """Descend routers (shards[0] / replicas[0]) to a concrete engine."""
    seen = 0
    while seen < 8:  # routers never nest deeper than shard -> replica
        if hasattr(engine, "shards"):
            engine = engine.shards[0]
        elif hasattr(engine, "replicas"):
            engine = engine.replicas[0]
        else:
            return engine
        seen += 1
    return engine


def _collect_spill(engine) -> Tuple[int, int]:
    """(spilled, assigned) totals across an engine's replica groups."""
    spilled = 0
    assigned = 0
    groups = engine.shards if hasattr(engine, "shards") else [engine]
    for group in groups:
        if hasattr(group, "spilled"):
            spilled += group.spilled
            assigned += sum(group.assigned)
    return spilled, assigned


class ServingSession:
    """Simulate online serving of a request stream against one engine."""

    def __init__(
        self,
        engine,
        workload: Sequence[ServeQuery],
        scheduler: Optional[MicroBatchScheduler] = None,
        cache: Optional[ServingCache] = None,
        label: str = "session",
        admission: Optional[AdmissionController] = None,
        engine_factory: Optional[Callable[[int, int], object]] = None,
        deployment: Tuple[int, int] = (1, 1),
        scaler=None,
        telemetry: Optional[Telemetry] = None,
        faults=None,
        resilience: Optional[ResilienceConfig] = None,
        price_book: Optional[PriceBook] = None,
        engine_kind: str = "imc",
    ):
        """``engine`` is anything with ``serve_batch`` (a pipeline engine
        or a :class:`~repro.serving.shard.ShardedEngine`); ``workload[u]``
        is the query user ``u`` issues (users wrap modulo the workload).

        ``engine_factory(shards, replicas)`` rebuilds the engine for an
        online scale event (required by :meth:`scale_to` and by a
        ``scaler``); ``deployment`` names the (shards, replicas) the
        initial engine was built with.  ``scaler`` is consulted after
        every batch with the observed records and may return a new
        deployment (see :mod:`repro.serving.autoscaler`).

        ``telemetry`` (a :class:`repro.obs.Telemetry`) turns on the
        observability plane: per-request span traces, stage metrics and
        control-plane annotations, attached through the engine tree and
        the scheduler.  Tracing is observation only -- it charges no
        ledger and draws no randomness, so results are bit-identical
        with or without it.

        ``faults`` (a :class:`~repro.serving.faults.FaultPlan` or
        :class:`~repro.serving.faults.FaultInjector`) attaches the chaos
        plane: scheduled crashes, shard outages, stragglers, transient
        errors and cache flushes fire against the serve path.
        ``resilience`` (a :class:`~repro.serving.resilience.ResilienceConfig`)
        turns on the self-healing layer -- timeouts+retries, hedging,
        circuit breakers, partial scatter-gather; without it the fleet
        takes the faults on the chin and drops the affected requests.
        Passing ``resilience`` alone wraps the fleet over an empty plan
        (the bit-identity configuration the property tests pin).

        ``price_book`` (a :class:`~repro.serving.pricing.PriceBook`)
        turns on dollar accounting: after each run the energy ledger is
        priced row for row (engine time at ``engine_kind``'s $/hour,
        Warm-up off-peak-discounted, Retry/Hedge/Migration through the
        same rows PRs 5 and 8 bill in joules) plus the cache's
        get/put/storage service fees, and the resulting
        :class:`~repro.serving.pricing.PriceLedger` lands on
        ``ServingResult.price_ledger`` and the report's dollar columns.
        Pricing is pure post-processing of the ledger -- it perturbs no
        serve-path decision, so priced and unpriced runs are
        bit-identical in records and energy.
        """
        if not workload:
            raise ValueError("workload must contain at least one query")
        if scaler is not None and engine_factory is None:
            raise ValueError("an online scaler needs an engine_factory")
        if min(deployment) < 1:
            raise ValueError(f"deployment axes must be >= 1, got {deployment}")
        self.engine = engine
        self.workload = list(workload)
        self.scheduler = scheduler or MicroBatchScheduler(MicroBatchConfig())
        self.cache = cache
        self.label = label
        self.admission = admission
        self.engine_factory = engine_factory
        self.deployment = tuple(deployment)
        self.scaler = scaler
        self.telemetry = telemetry
        if telemetry is not None:
            attach_telemetry(self.engine, telemetry)
            self.scheduler.telemetry = telemetry
            if scaler is not None and hasattr(scaler, "attach_telemetry"):
                # Forecast-driven scalers emit fit instants and
                # repro_forecast_* metrics into the session's trace.
                scaler.attach_telemetry(telemetry)
        if faults is not None or resilience is not None:
            plan = faults if faults is not None else FaultPlan(())
            self.faults: Optional[FaultContext] = FaultContext(
                plan,
                resilience=resilience,
                telemetry=telemetry,
                process=label,
            )
            attach_faults(self.engine, self.faults)
            self.scheduler.faults = self.faults
        else:
            self.faults = None
        self.price_book = price_book
        self.engine_kind = engine_kind
        self.scale_events: List[ScaleEvent] = []
        self._warm_cost = Cost()
        self._pending_migration = Cost()
        self._reported_events = 0  # scale events already returned by a run
        self._retired_spill = (0, 0)  # totals from engines already swapped out

    def _query_for(self, request: Request) -> ServeQuery:
        return self.workload[request.user % len(self.workload)]

    def warm(self, users: Sequence[int]) -> Cost:
        """Pre-serve ``users``' queries and seed the cache with the results.

        The warm-up models a deployment's ramp phase: the most popular
        queries (the Zipf head a trace analysis predicts) are served once
        off the critical path and their results written into the cache, so
        the session opens hot instead of paying the cold-start misses.
        Serving and fill energy are real work -- they are charged to the
        next :meth:`run`'s ledger under "Warm-up".  Returns that cost.
        """
        if self.cache is None:
            raise ValueError("cannot warm a session without a cache")
        pairs = []
        serve_cost = Cost()
        seen = set()
        for user in users:
            query = self.workload[user % len(self.workload)]
            if query in seen:
                continue
            seen.add(query)
            result = self.engine.recommend_query(query)
            serve_cost = serve_cost.then(result.cost)
            pairs.append((query, (tuple(result.items), tuple(result.scores))))
        fill_cost = self.cache.warm(pairs)
        self._warm_cost = self._warm_cost.then(serve_cost).then(fill_cost)
        return self._warm_cost

    def scale_to(
        self, shards: int, replicas: int, now_s: float = 0.0
    ) -> Optional[ScaleEvent]:
        """Swap the deployment online, paying the state migration.

        Builds the new engine through ``engine_factory``, computes the
        migration bill (re-partitioned rows + replica-slice copies,
        priced by :func:`~repro.serving.shard.migration_cost` from the
        engine's own corpus shape), invalidates cache entries referencing
        moved ranges, and queues the cost for the next dispatched batch
        (or the next :meth:`run`, if called between runs).  Returns the
        recorded event, or None when the deployment is unchanged.
        """
        if self.engine_factory is None:
            raise ValueError("online scaling needs an engine_factory")
        if shards < 1 or replicas < 1:
            raise ValueError(
                f"deployment axes must be >= 1, got ({shards}, {replicas})"
            )
        new = (shards, replicas)
        if new == self.deployment:
            return None
        primary = _primary_engine(self.engine)
        try:
            num_items = primary.filtering_model.config.num_items
            embedding_dim = primary.filtering_model.config.embedding_dim
            signature_bits = primary.signature_bits
        except AttributeError as error:
            raise ValueError(
                "engine does not expose corpus metadata "
                "(filtering_model/signature_bits) needed to price migration"
            ) from error
        moved_ids, total_rows = plan_scale_migration(
            num_items, self.deployment, new
        )
        cost = migration_cost(total_rows, embedding_dim, signature_bits)
        invalidated = 0
        if self.cache is not None and moved_ids.size:
            invalidated, scan_cost = self.cache.invalidate(moved_ids)
            cost = cost.then(scan_cost)
        self._retire_engine_stats()
        self.engine = self.engine_factory(shards, replicas)
        if self.telemetry is not None:
            # The factory built a fresh engine tree; without re-attachment
            # the swap would silently drop instrumentation mid-run.
            attach_telemetry(self.engine, self.telemetry)
        if self.faults is not None:
            # Same for the fault plane: new replicas must inherit the
            # failure hooks (and the breakers keyed by site survive).
            attach_faults(self.engine, self.faults)
        event = ScaleEvent(
            time_s=now_s,
            old_deployment=self.deployment,
            new_deployment=new,
            moved_rows=total_rows,
            invalidated_entries=invalidated,
            cost=cost,
        )
        self.deployment = new
        self.scale_events.append(event)
        self._pending_migration = self._pending_migration.then(cost)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.tracer.instant(
                "scale-event",
                now_s,
                old_deployment=list(event.old_deployment),
                new_deployment=list(event.new_deployment),
                moved_rows=event.moved_rows,
                invalidated_entries=event.invalidated_entries,
                migration_energy_pj=event.cost.energy_pj,
            )
            self.telemetry.metrics.counter(
                "repro_scale_events_total", "Online deployment changes."
            ).inc(process=self.label)
        return event

    def _retire_engine_stats(self) -> None:
        """Fold the outgoing engine's spill counters into the session."""
        spilled, assigned = _collect_spill(self.engine)
        retired_spilled, retired_assigned = self._retired_spill
        self._retired_spill = (retired_spilled + spilled, retired_assigned + assigned)

    def _spill_stats(self) -> Optional[Dict[str, object]]:
        spilled, assigned = _collect_spill(self.engine)
        retired_spilled, retired_assigned = self._retired_spill
        spilled += retired_spilled
        assigned += retired_assigned
        if assigned == 0:
            return None
        return {
            "assigned": assigned,
            "spilled": spilled,
            "spill_rate": spilled / assigned,
        }

    def run(self, requests: Sequence[Request]) -> ServingResult:
        """Drive the scheduler over ``requests`` and collect the records."""
        ledger = Ledger(name=self.label)
        if self._warm_cost.energy_pj > 0.0 or self._warm_cost.latency_ns > 0.0:
            # One-time work: charge it to this run only, not to every
            # later run of a reused session.
            ledger.charge("Warm-up", self._warm_cost)
            self._warm_cost = Cost()
        records: List[RequestRecord] = []
        # A scale_to issued between runs queued its migration for this
        # run's ledger, so this run also reports its event.
        run_events_start = self._reported_events

        telemetry = self.telemetry
        observing = telemetry is not None and telemetry.enabled
        tracer = telemetry.tracer if telemetry is not None else None
        if observing:
            tracer.set_process(self.label)
            metrics = telemetry.metrics
            m_batches = metrics.counter(
                "repro_batches_total", "Dispatched micro-batches."
            )
            m_requests = metrics.counter(
                "repro_requests_total", "Requests ruled on, by outcome."
            )
            m_cache = metrics.counter(
                "repro_cache_lookups_total", "Result-cache lookups, by result."
            )
            m_batch_size = metrics.histogram(
                "repro_batch_size",
                "Requests per dispatched micro-batch.",
                BATCH_SIZE_BUCKETS,
            )
            m_queue_depth = metrics.histogram(
                "repro_queue_depth",
                "Backlog (arrived, unserved requests) at batch dispatch.",
                BATCH_SIZE_BUCKETS,
            )
            m_stage_latency = metrics.histogram(
                "repro_stage_latency_seconds",
                "Serve-path latency by stage.",
                LATENCY_BUCKETS_S,
            )
            m_stage_energy = metrics.counter(
                "repro_stage_energy_pj", "Serve-path energy by stage."
            )
            m_request_latency = metrics.histogram(
                "repro_request_latency_seconds",
                "End-to-end request latency, by outcome.",
                LATENCY_BUCKETS_S,
            )
            # Bind the hot-loop series once: the label set of every
            # per-batch observation is known here, and label-key hashing
            # per call is most of what tracing would otherwise cost.
            b_batches = m_batches.bind(process=self.label)
            b_cache_hit = m_cache.bind(process=self.label, result="hit")
            b_cache_miss = m_cache.bind(process=self.label, result="miss")
            b_batch_size = m_batch_size.bind(process=self.label)
            b_queue_depth = m_queue_depth.bind(process=self.label)
            # "retry"/"hedge" bindings are lazy (no series until the
            # first observation), so a zero-fault run's export stays
            # byte-identical to a run without a fault plane.
            _stages = (
                "queue",
                "cache_lookup",
                "engine",
                "cache_fill",
                "migration",
                "retry",
                "hedge",
            )
            b_stage_latency = {
                stage: m_stage_latency.bind(process=self.label, stage=stage)
                for stage in _stages
            }
            b_stage_energy = {
                stage: m_stage_energy.bind(process=self.label, stage=stage)
                for stage in _stages
            }
            b_requests = {
                outcome: m_requests.bind(process=self.label, outcome=outcome)
                for outcome in ("served", "degraded", "shed", "failed")
            }
            b_request_latency = {
                outcome: m_request_latency.bind(process=self.label, outcome=outcome)
                for outcome in ("served", "degraded", "failed")
            }
        batch_counter = 0

        def service(batch: Batch) -> float:
            nonlocal batch_counter
            batch_index = batch_counter
            batch_counter += 1
            traced = tracer.start_batch(batch_index) if tracer is not None else False
            if traced:
                # Root span: first member's arrival (members are taken in
                # arrival order) through end of engine occupancy.
                tracer.open(
                    "batch",
                    batch.requests[0].arrival_s,
                    category="serve",
                    track="main",
                    batch_index=batch_index,
                    size=len(batch.requests),
                    queue_depth=batch.queue_depth,
                )
                tracer.add(
                    "queue",
                    batch.open_s,
                    batch.dispatch_s,
                    category="queue",
                    waiting=len(batch.requests),
                    queue_depth=batch.queue_depth,
                )
            if observing:
                b_batches.inc()
                b_batch_size.observe(len(batch.requests))
                b_queue_depth.observe(batch.queue_depth)
                b_stage_latency["queue"].observe(batch.dispatch_s - batch.open_s)
            batch_records: List[RequestRecord] = []
            queries = [self._query_for(request) for request in batch.requests]
            outcomes = self._admission_outcomes(batch)
            if traced:
                tracer.add(
                    "admission",
                    batch.dispatch_s,
                    batch.dispatch_s,
                    category="admission",
                    accepted=outcomes.count(ACCEPT),
                    degraded=outcomes.count(DEGRADE),
                    shed=outcomes.count(SHED),
                )
            degraded_k = (
                self.admission.config.degraded_top_k
                if self.admission is not None
                else None
            )
            active = [
                position
                for position, outcome in enumerate(outcomes)
                if outcome != SHED
            ]
            fault_ctx = self.faults
            if fault_ctx is not None:
                # Cache-flush events scheduled before this dispatch fire
                # now: the store empties and the batch takes the misses.
                for flush_event in fault_ctx.injector.take_flushes(
                    batch.dispatch_s
                ):
                    dropped = self.cache.flush() if self.cache is not None else 0
                    fault_ctx.counters["cache_flushes"] += 1
                    fault_ctx.counters["flushed_entries"] += dropped
                    fault_ctx.record_event(
                        "cache-flush", flush_event.start_s, dropped=dropped
                    )
            hit_values: Dict[int, Tuple[Tuple[int, ...], Tuple[float, ...]]] = {}
            lookup_cost = Cost()
            if self.cache is not None:
                for position in active:
                    value, cost = self.cache.lookup(queries[position])
                    ledger.charge("Cache", cost)
                    lookup_cost = lookup_cost.then(cost)
                    if value is not None:
                        hit_values[position] = value
                if traced:
                    tracer.add(
                        "cache-lookup",
                        batch.dispatch_s,
                        batch.dispatch_s + lookup_cost.latency_s,
                        category="cache",
                        lookups=len(active),
                        hits=len(hit_values),
                        energy_pj=lookup_cost.energy_pj,
                    )
                if observing:
                    b_cache_hit.inc(len(hit_values))
                    b_cache_miss.inc(len(active) - len(hit_values))
                    b_stage_latency["cache_lookup"].observe(lookup_cost.latency_s)
                    b_stage_energy["cache_lookup"].inc(lookup_cost.energy_pj)

            miss_positions = [
                position for position in active if position not in hit_values
            ]
            serve_cost = Cost()
            miss_results = {}
            if miss_positions:
                # Deduplicate identical queries inside the batch: the engine
                # serves each distinct query once (the micro-batch is the
                # natural dedup window).
                distinct: Dict[ServeQuery, List[int]] = {}
                for position in miss_positions:
                    distinct.setdefault(queries[position], []).append(position)
                engine_start_s = batch.dispatch_s + lookup_cost.latency_s
                if traced:
                    # Open before serve_batch so routers/engines record
                    # their shard, replica, kernel and merge children
                    # inside this span.
                    tracer.open(
                        "engine",
                        engine_start_s,
                        category="serve",
                        queries=len(distinct),
                        deduplicated=len(miss_positions) - len(distinct),
                    )
                if fault_ctx is not None:
                    # Anchor the fault clock: engines and routers place
                    # every serve attempt of this round at this instant.
                    fault_ctx.begin_round(engine_start_s)
                try:
                    batch_result = self.engine.serve_batch(list(distinct))
                except FaultError as fault:
                    # Only a bare (router-less) engine under a fault plane
                    # raises here.  It has no peer to fail over to: the
                    # whole miss batch fails after its detection latency
                    # and the wasted energy is re-billed below.
                    detect_s = fault_ctx.detection_s(
                        fault,
                        getattr(self.engine, "expected_query_latency_s", None),
                        len(distinct),
                    )
                    fault_ctx.record_event(
                        "attempt-failed",
                        engine_start_s + detect_s,
                        kind=fault.kind,
                        shard=0,
                        replica=0,
                    )
                    fault_ctx.add_retry_cost(
                        Cost(
                            energy_pj=fault.cost.energy_pj,
                            latency_ns=detect_s * 1e9,
                        )
                    )
                    batch_result = failed_batch_result(len(distinct), detect_s)
                serve_cost = batch_result.cost
                if traced:
                    tracer.close(
                        engine_start_s + serve_cost.latency_s,
                        energy_pj=serve_cost.energy_pj,
                    )
                if observing:
                    b_stage_latency["engine"].observe(serve_cost.latency_s)
                    b_stage_energy["engine"].inc(serve_cost.energy_pj)
                ledger.charge("Serve", serve_cost)
                if fault_ctx is not None:
                    # Re-bill recovery work accumulated during the serve:
                    # failed-attempt + retry energy under "Retry", hedge
                    # duplicates under "Hedge".  Both are zero (and charge
                    # nothing -- the ledger stays byte-identical) when no
                    # fault fired.
                    recovery = fault_ctx.take_retry_cost()
                    if recovery.energy_pj or recovery.latency_ns:
                        ledger.charge("Retry", recovery)
                        if observing:
                            b_stage_latency["retry"].observe(recovery.latency_s)
                            b_stage_energy["retry"].inc(recovery.energy_pj)
                    hedge = fault_ctx.take_hedge_cost()
                    if hedge.energy_pj or hedge.latency_ns:
                        ledger.charge("Hedge", hedge)
                        if observing:
                            b_stage_latency["hedge"].observe(hedge.latency_s)
                            b_stage_energy["hedge"].inc(hedge.energy_pj)
                fill_cost = Cost()
                for query, result in zip(distinct, batch_result.results):
                    for position in distinct[query]:
                        miss_results[position] = result
                    if self.cache is not None and not (
                        result.failed or result.partial
                    ):
                        # Never cache a dropped or partial answer: a
                        # recovered fleet must not keep serving the
                        # degraded result from cache.
                        fill_cost = fill_cost.then(
                            self.cache.insert(
                                query, (tuple(result.items), tuple(result.scores))
                            )
                        )
                if self.cache is not None and fill_cost.latency_ns > 0.0:
                    ledger.charge("Cache", fill_cost)
                    fill_start_s = engine_start_s + serve_cost.latency_s
                    if traced:
                        tracer.add(
                            "cache-fill",
                            fill_start_s,
                            fill_start_s + fill_cost.latency_s,
                            category="cache",
                            fills=len(distinct),
                            energy_pj=fill_cost.energy_pj,
                        )
                    if observing:
                        b_stage_latency["cache_fill"].observe(fill_cost.latency_s)
                        b_stage_energy["cache_fill"].inc(fill_cost.energy_pj)
                serve_cost = serve_cost.then(fill_cost)

            occupancy = lookup_cost.then(serve_cost)
            for position, request in enumerate(batch.requests):
                degraded = outcomes[position] == DEGRADE
                if outcomes[position] == SHED:
                    batch_records.append(
                        RequestRecord(
                            request=request,
                            completion_s=batch.dispatch_s,
                            batch_size=len(batch.requests),
                            cache_hit=False,
                            items=(),
                            shed=True,
                        )
                    )
                elif position in hit_values:
                    items, _scores = hit_values[position]
                    completion = batch.dispatch_s + lookup_cost.latency_s
                    batch_records.append(
                        RequestRecord(
                            request=request,
                            completion_s=completion,
                            batch_size=len(batch.requests),
                            cache_hit=True,
                            items=tuple(items)[:degraded_k] if degraded else tuple(items),
                            degraded=degraded,
                        )
                    )
                else:
                    completion = batch.dispatch_s + occupancy.latency_s
                    result = miss_results[position]
                    if result.failed:
                        fault_ctx.counters["failed_queries"] += 1
                        batch_records.append(
                            RequestRecord(
                                request=request,
                                completion_s=completion,
                                batch_size=len(batch.requests),
                                cache_hit=False,
                                items=(),
                                failed=True,
                            )
                        )
                        continue
                    items = tuple(result.items)
                    batch_records.append(
                        RequestRecord(
                            request=request,
                            completion_s=completion,
                            batch_size=len(batch.requests),
                            cache_hit=False,
                            items=items[:degraded_k] if degraded else items,
                            # A partial scatter-gather is served degraded:
                            # the client got an answer with reduced recall.
                            degraded=degraded or result.partial,
                        )
                    )
            records.extend(batch_records)
            if traced or observing:
                trace_request = tracer.add if traced else None
                for record in batch_records:
                    outcome = (
                        "shed"
                        if record.shed
                        else "failed"
                        if record.failed
                        else "degraded"
                        if record.degraded
                        else "served"
                    )
                    if trace_request is not None:
                        request = record.request
                        trace_request(
                            "request",
                            request.arrival_s,
                            record.completion_s,
                            category="serve",
                            track="requests",
                            request_id=request.request_id,
                            user=request.user,
                            tenant=request.tenant,
                            outcome=outcome,
                            cache_hit=record.cache_hit,
                        )
                    if observing:
                        b_requests[outcome].inc()
                        if not record.shed:
                            b_request_latency[outcome].observe(record.latency_s)

            def drain(current: Cost) -> Cost:
                pending = self._pending_migration
                drained = self._drain_migration(ledger, current)
                if drained is not current:
                    start_s = batch.dispatch_s + current.latency_s
                    if traced:
                        tracer.add(
                            "migration",
                            start_s,
                            start_s + pending.latency_s,
                            category="control",
                            energy_pj=pending.energy_pj,
                        )
                    if observing:
                        b_stage_latency["migration"].observe(pending.latency_s)
                        b_stage_energy["migration"].inc(pending.energy_pj)
                return drained

            # Pay any migration queued by a pre-run scale_to, then let the
            # online scaler react to what this batch measured.
            occupancy = drain(occupancy)
            if self.scaler is not None:
                end_s = batch.dispatch_s + occupancy.latency_s
                decision = self.scaler.observe(
                    batch, occupancy.latency_s, batch_records, self.deployment
                )
                if decision is not None and tuple(decision) != self.deployment:
                    self.scale_to(*decision, now_s=end_s)
                    occupancy = drain(occupancy)
            if traced:
                tracer.close(batch.dispatch_s + occupancy.latency_s)
            if tracer is not None:
                tracer.end_batch()
            return occupancy.latency_s

        batches = self.scheduler.run(requests, service)
        records.sort(key=lambda record: record.request.request_id)
        self._reported_events = len(self.scale_events)
        price_ledger = None
        if self.price_book is not None:
            # Dollar accounting is post-processing: the run is already
            # fully recorded, pricing only re-reads the rows.
            makespan_s = (
                max(record.completion_s for record in records)
                - min(record.request.arrival_s for record in records)
                if records
                else 0.0
            )
            price_ledger = price_serving_run(
                ledger,
                self.price_book,
                engine_kind=self.engine_kind,
                cache_stats=(
                    self.cache.stats() if self.cache is not None else None
                ),
                duration_s=makespan_s,
                name=self.label,
            )
        if observing:
            # Join the aggregate plane against the run's actual ledger and
            # cache/spill counters so the exported textfile can never
            # disagree with the console report.
            telemetry.metrics.record_ledger(ledger, process=self.label)
            if price_ledger is not None:
                telemetry.metrics.record_price_ledger(
                    price_ledger, process=self.label
                )
            if self.cache is not None:
                cache_gauge = telemetry.metrics.gauge(
                    "repro_cache_state", "Result-cache counters at end of run."
                )
                for key, value in self.cache.stats().items():
                    cache_gauge.set(
                        float(value), process=self.label, counter=key
                    )
            spill_stats = self._spill_stats()
            if spill_stats is not None:
                spill_gauge = telemetry.metrics.gauge(
                    "repro_spillover_state", "Spillover routing at end of run."
                )
                for key in ("assigned", "spilled", "spill_rate"):
                    spill_gauge.set(
                        float(spill_stats[key]), process=self.label, counter=key
                    )
            if self.faults is not None and (
                any(self.faults.counters.values()) or self.faults.retries_used
            ):
                # Created only when a fault actually fired, so a run over
                # an empty plan exports byte-identical telemetry.
                fault_gauge = telemetry.metrics.gauge(
                    "repro_fault_state", "Fault-plane counters at end of run."
                )
                for key, value in self.faults.counters.items():
                    fault_gauge.set(
                        float(value), process=self.label, counter=key
                    )
                fault_gauge.set(
                    float(self.faults.retries_used),
                    process=self.label,
                    counter="retries_used",
                )
                fault_gauge.set(
                    self.faults.recall_loss,
                    process=self.label,
                    counter="recall_loss",
                )
        return ServingResult(
            label=self.label,
            records=records,
            batches=batches,
            ledger=ledger,
            cache_stats=self.cache.stats() if self.cache is not None else None,
            admission_stats=(
                self.admission.stats() if self.admission is not None else None
            ),
            spill_stats=self._spill_stats(),
            fault_stats=self.faults.stats() if self.faults is not None else None,
            price_ledger=price_ledger,
            scale_events=list(self.scale_events[run_events_start:]),
        )

    def _admission_outcomes(self, batch: Batch) -> List[str]:
        """Front-door rulings for every request in the batch."""
        if self.admission is None:
            return [ACCEPT] * len(batch.requests)
        expected_s = getattr(self.engine, "expected_query_latency_s", None)
        return [
            self.admission.decide(request, batch.dispatch_s, expected_s)
            for request in batch.requests
        ]

    def _drain_migration(self, ledger: Ledger, occupancy: Cost) -> Cost:
        """Charge queued migration work and stall the data plane with it."""
        if (
            self._pending_migration.energy_pj == 0.0
            and self._pending_migration.latency_ns == 0.0
        ):
            return occupancy
        ledger.charge("Migration", self._pending_migration)
        occupancy = occupancy.then(self._pending_migration)
        self._pending_migration = Cost()
        return occupancy
