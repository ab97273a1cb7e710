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

from repro.core.pipeline import QueryResult, ServeQuery
from repro.energy.accounting import Cost, Ledger
from repro.obs.metrics import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_S
from repro.obs.telemetry import Telemetry
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
from repro.serving.shard import (
    ReplicaGroup,
    iter_engines,
    migration_cost,
    plan_scale_migration,
)
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


#: A cached answer: (items, scores).
_Cached = Tuple[Tuple[int, ...], Tuple[float, ...]]


class _RunObserver:
    """Every span, bound metric series and end-of-run gauge of one run.

    :meth:`ServingSession.run` reports each stage here unconditionally.
    Without telemetry every hook returns at once; with a disabled bundle
    only the tracer's batch bookkeeping runs (its export records
    ``seen_batches``).  Observation only: nothing here charges a ledger
    or feeds back into a serve-path decision.
    """

    #: Serve-path stages with latency/energy series.  Binding is lazy
    #: (no series until the first observation), so a zero-fault run's
    #: export has no "retry"/"hedge" series and stays byte-identical to
    #: a run without a fault plane.
    _STAGES = (
        "queue", "cache_lookup", "engine", "cache_fill", "migration", "retry", "hedge"
    )

    def __init__(self, telemetry: Optional[Telemetry], process: str):
        self.process = process
        self.tracer = telemetry.tracer if telemetry is not None else None
        enabled = telemetry is not None and telemetry.enabled
        self.metrics = telemetry.metrics if enabled else None
        self.traced = False  # is the current batch sampled?
        self._batch_index = 0
        if self.metrics is None:
            return
        self.tracer.set_process(process)
        metrics = self.metrics
        # Bind the hot-loop series once: the label set of every
        # per-batch observation is known here, and label-key hashing per
        # call is most of what observing would otherwise cost.
        self._batches = metrics.counter(
            "repro_batches_total", "Dispatched micro-batches."
        ).bind(process=process)
        cache = metrics.counter(
            "repro_cache_lookups_total", "Result-cache lookups, by result."
        )
        self._cache_hit = cache.bind(process=process, result="hit")
        self._cache_miss = cache.bind(process=process, result="miss")
        self._batch_size = metrics.histogram(
            "repro_batch_size",
            "Requests per dispatched micro-batch.",
            BATCH_SIZE_BUCKETS,
        ).bind(process=process)
        self._queue_depth = metrics.histogram(
            "repro_queue_depth",
            "Backlog (arrived, unserved requests) at batch dispatch.",
            BATCH_SIZE_BUCKETS,
        ).bind(process=process)
        stage_latency = metrics.histogram(
            "repro_stage_latency_seconds",
            "Serve-path latency by stage.",
            LATENCY_BUCKETS_S,
        )
        stage_energy = metrics.counter(
            "repro_stage_energy_pj", "Serve-path energy by stage."
        )
        self._stage_latency = {
            stage: stage_latency.bind(process=process, stage=stage)
            for stage in self._STAGES
        }
        self._stage_energy = {
            stage: stage_energy.bind(process=process, stage=stage)
            for stage in self._STAGES
        }
        requests = metrics.counter(
            "repro_requests_total", "Requests ruled on, by outcome."
        )
        self._requests = {
            outcome: requests.bind(process=process, outcome=outcome)
            for outcome in ("served", "degraded", "shed", "failed")
        }
        request_latency = metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency, by outcome.",
            LATENCY_BUCKETS_S,
        )
        self._request_latency = {
            outcome: request_latency.bind(process=process, outcome=outcome)
            for outcome in ("served", "degraded", "failed")
        }

    def _stage(self, stage: str, cost: Cost) -> None:
        """One stage's latency and energy."""
        if self.metrics is not None:
            self._stage_latency[stage].observe(cost.latency_s)
            self._stage_energy[stage].inc(cost.energy_pj)

    def _finished(
        self, name: str, category: str, start_s: float, cost: Cost, **attrs: object
    ) -> None:
        """A stage that ran from ``start_s`` for ``cost``: its span (in a
        sampled batch) and its series ("cache-fill" -> "cache_fill")."""
        if self.traced:
            self.tracer.add(
                name,
                start_s,
                start_s + cost.latency_s,
                category=category,
                **attrs,
                energy_pj=cost.energy_pj,
            )
        self._stage(name.replace("-", "_"), cost)

    def begin_batch(self, batch: Batch) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        self.traced = tracer.start_batch(self._batch_index)
        if self.traced:
            # Root span: first member's arrival (members are taken in
            # arrival order) through end of engine occupancy.
            tracer.open(
                "batch",
                batch.requests[0].arrival_s,
                category="serve",
                track="main",
                batch_index=self._batch_index,
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
        self._batch_index += 1
        if self.metrics is not None:
            self._batches.inc()
            self._batch_size.observe(len(batch.requests))
            self._queue_depth.observe(batch.queue_depth)
            self._stage_latency["queue"].observe(batch.dispatch_s - batch.open_s)

    def admission(self, at_s: float, outcomes: List[str]) -> None:
        if self.traced:
            self.tracer.add(
                "admission",
                at_s,
                at_s,
                category="admission",
                accepted=outcomes.count(ACCEPT),
                degraded=outcomes.count(DEGRADE),
                shed=outcomes.count(SHED),
            )

    def cache_lookup(self, at_s: float, lookups: int, hits: int, cost: Cost) -> None:
        self._finished("cache-lookup", "cache", at_s, cost, lookups=lookups, hits=hits)
        if self.metrics is not None:
            self._cache_hit.inc(hits)
            self._cache_miss.inc(lookups - hits)

    def engine_open(self, start_s: float, queries: int, deduplicated: int) -> None:
        if self.traced:
            self.tracer.open(
                "engine",
                start_s,
                category="serve",
                queries=queries,
                deduplicated=deduplicated,
            )

    def engine_close(self, start_s: float, cost: Cost) -> None:
        if self.traced:
            self.tracer.close(start_s + cost.latency_s, energy_pj=cost.energy_pj)
        self._stage("engine", cost)

    def recovery(self, category: str, cost: Cost) -> None:
        """Retry or hedge work re-billed under ledger ``category``."""
        self._stage(category.lower(), cost)

    def cache_fill(self, start_s: float, fills: int, cost: Cost) -> None:
        self._finished("cache-fill", "cache", start_s, cost, fills=fills)

    def requests(self, records: List[RequestRecord]) -> None:
        """One span and one outcome count per request of the batch."""
        traced = self.traced
        if not traced and self.metrics is None:
            return
        for record in records:
            outcome = (
                "shed"
                if record.shed
                else "failed"
                if record.failed
                else "degraded"
                if record.degraded
                else "served"
            )
            if traced:
                request = record.request
                self.tracer.add(
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
            if self.metrics is not None:
                self._requests[outcome].inc()
                if not record.shed:
                    self._request_latency[outcome].observe(record.latency_s)

    def migration(self, start_s: float, cost: Cost) -> None:
        self._finished("migration", "control", start_s, cost)

    def end_batch(self, end_s: float) -> None:
        if self.traced:
            self.tracer.close(end_s)
        if self.tracer is not None:
            self.tracer.end_batch()

    def end_run(self, result: ServingResult) -> None:
        """Join the aggregate plane against the run's ledgers and counters,
        so the exported textfile can never disagree with the report."""
        metrics = self.metrics
        if metrics is None:
            return
        process = self.process
        metrics.record_ledger(result.ledger, process=process)
        if result.price_ledger is not None:
            metrics.record_price_ledger(result.price_ledger, process=process)
        if result.cache_stats is not None:
            cache_gauge = metrics.gauge(
                "repro_cache_state", "Result-cache counters at end of run."
            )
            for key, value in result.cache_stats.items():
                cache_gauge.set(float(value), process=process, counter=key)
        if result.spill_stats is not None:
            spill_gauge = metrics.gauge(
                "repro_spillover_state", "Spillover routing at end of run."
            )
            for key in ("assigned", "spilled", "spill_rate"):
                spill_gauge.set(
                    float(result.spill_stats[key]), process=process, counter=key
                )
        faults = result.fault_stats
        if faults is not None and (
            any(faults["counters"].values()) or faults["retries_used"]
        ):
            # Created only when a fault actually fired, so a run over an
            # empty plan exports byte-identical telemetry.
            fault_gauge = metrics.gauge(
                "repro_fault_state", "Fault-plane counters at end of run."
            )
            for key, value in faults["counters"].items():
                fault_gauge.set(float(value), process=process, counter=key)
            for key in ("retries_used", "recall_loss"):
                fault_gauge.set(float(faults[key]), process=process, counter=key)


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
            self.scheduler.faults = self.faults
        else:
            self.faults = None
        self._attach_planes()
        self.price_book = price_book
        self.engine_kind = engine_kind
        self.scale_events: List[ScaleEvent] = []
        self._warm_cost = Cost()
        self._pending_migration = Cost()
        self._reported_events = 0  # scale events already returned by a run
        self._retired_spill = (0, 0)  # totals from engines already swapped out

    def _attach_planes(self) -> None:
        """Plant the session's telemetry and fault plane on every node of
        the fleet.  A plane the session does not carry stays as it is,
        because the studies reuse one fleet across sessions."""
        if self.telemetry is not None:
            for node, _, _ in iter_engines(self.engine):
                node._obs = self.telemetry
        if self.faults is not None:
            attach_faults(self.engine, self.faults)

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
        As on the serve path, a dropped or partial answer is billed but
        never cached.
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
            if not (result.failed or result.partial):
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
        primary = next(
            node for node, _, replica in iter_engines(self.engine) if replica is not None
        )
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
        self._retired_spill = self._spill_totals()
        self.engine = self.engine_factory(shards, replicas)
        # The factory built a fresh fleet: re-plant both planes (the
        # breakers, keyed by site, survive the swap).
        self._attach_planes()
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

    def _spill_totals(self) -> Tuple[int, int]:
        """(spilled, assigned) over the live fleet's replica groups plus
        the fleets already swapped out."""
        spilled, assigned = self._retired_spill
        for node, _, _ in iter_engines(self.engine):
            if isinstance(node, ReplicaGroup):
                spilled += node.spilled
                assigned += sum(node.assigned)
        return spilled, assigned

    def _spill_stats(self) -> Optional[Dict[str, object]]:
        spilled, assigned = self._spill_totals()
        if assigned == 0:
            return None
        return {
            "assigned": assigned,
            "spilled": spilled,
            "spill_rate": spilled / assigned,
        }

    def run(self, requests: Sequence[Request]) -> ServingResult:
        """Drive the scheduler over ``requests`` and collect the records.

        Each dispatched batch passes the stages in request order:
        :meth:`_admit`, :meth:`_flush_fault_caches`, :meth:`_lookup`,
        :meth:`_serve_misses`, :meth:`_build_records`, then
        :meth:`_drain_migration` around the scaler's turn.  Every
        serve-path span and metric goes through one :class:`_RunObserver`.
        """
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
        observer = _RunObserver(self.telemetry, self.label)

        def service(batch: Batch) -> float:
            observer.begin_batch(batch)
            dispatch_s = batch.dispatch_s
            queries = [self._query_for(request) for request in batch.requests]
            outcomes = self._admit(batch, observer)
            self._flush_fault_caches(dispatch_s)
            hits, misses, lookup_cost = self._lookup(
                dispatch_s, queries, outcomes, ledger, observer
            )
            results, serve_cost = self._serve_misses(
                queries, misses, dispatch_s + lookup_cost.latency_s, ledger, observer
            )
            occupancy = lookup_cost.then(serve_cost)
            batch_records = self._build_records(
                batch, outcomes, hits, results, lookup_cost, occupancy
            )
            records.extend(batch_records)
            observer.requests(batch_records)
            # Pay any migration queued by a pre-run scale_to, then let the
            # online scaler react to what this batch measured.
            occupancy = self._drain_migration(ledger, occupancy, dispatch_s, observer)
            if self.scaler is not None:
                decision = self.scaler.observe(
                    batch, occupancy.latency_s, batch_records, self.deployment
                )
                if decision is not None and tuple(decision) != self.deployment:
                    self.scale_to(*decision, now_s=dispatch_s + occupancy.latency_s)
                    occupancy = self._drain_migration(
                        ledger, occupancy, dispatch_s, observer
                    )
            observer.end_batch(dispatch_s + occupancy.latency_s)
            return occupancy.latency_s

        batches = self.scheduler.run(requests, service)
        records.sort(key=lambda record: record.request.request_id)
        self._reported_events = len(self.scale_events)
        result = ServingResult(
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
            price_ledger=self._price(ledger, records),
            scale_events=list(self.scale_events[run_events_start:]),
        )
        observer.end_run(result)
        return result

    # -- the stages of one dispatched batch, in request order -------------

    def _admit(self, batch: Batch, observer: "_RunObserver") -> List[str]:
        """Front-door rulings for every request in the batch."""
        if self.admission is None:
            outcomes = [ACCEPT] * len(batch.requests)
        else:
            expected_s = getattr(self.engine, "expected_query_latency_s", None)
            outcomes = [
                self.admission.decide(request, batch.dispatch_s, expected_s)
                for request in batch.requests
            ]
        observer.admission(batch.dispatch_s, outcomes)
        return outcomes

    def _flush_fault_caches(self, dispatch_s: float) -> None:
        """Fire the fault plane's cache flushes scheduled before dispatch:
        the store empties and the batch takes the misses."""
        faults = self.faults
        if faults is None:
            return
        for flush_event in faults.injector.take_flushes(dispatch_s):
            dropped = self.cache.flush() if self.cache is not None else 0
            faults.counters["cache_flushes"] += 1
            faults.counters["flushed_entries"] += dropped
            faults.record_event("cache-flush", flush_event.start_s, dropped=dropped)

    def _lookup(
        self,
        dispatch_s: float,
        queries: List[ServeQuery],
        outcomes: List[str],
        ledger: Ledger,
        observer: "_RunObserver",
    ) -> Tuple[Dict[int, _Cached], List[int], Cost]:
        """Probe the cache for every admitted request.

        Returns the cached values by batch position, the admitted
        positions that missed, and the probes' summed cost.
        """
        active = [
            position for position, outcome in enumerate(outcomes) if outcome != SHED
        ]
        hits: Dict[int, _Cached] = {}
        lookup_cost = Cost()
        if self.cache is None:
            return hits, active, lookup_cost
        for position in active:
            value, cost = self.cache.lookup(queries[position])
            ledger.charge("Cache", cost)
            lookup_cost = lookup_cost.then(cost)
            if value is not None:
                hits[position] = value
        observer.cache_lookup(dispatch_s, len(active), len(hits), lookup_cost)
        misses = [position for position in active if position not in hits]
        return hits, misses, lookup_cost

    def _serve_misses(
        self,
        queries: List[ServeQuery],
        misses: List[int],
        start_s: float,
        ledger: Ledger,
        observer: "_RunObserver",
    ) -> Tuple[Dict[int, QueryResult], Cost]:
        """Serve the cache misses as one engine round starting at ``start_s``.

        Returns each miss position's query result and the engine time
        plus cache fills.  Recovery work billed during the serve is
        re-charged under "Retry" and "Hedge"; whole answers fill the cache.
        """
        results: Dict[int, QueryResult] = {}
        if not misses:
            return results, Cost()
        # Deduplicate identical queries inside the batch: the engine
        # serves each distinct query once (the micro-batch is the
        # natural dedup window).
        distinct: Dict[ServeQuery, List[int]] = {}
        for position in misses:
            distinct.setdefault(queries[position], []).append(position)
        # Open before serve_batch so routers/engines record their shard,
        # replica, kernel and merge children inside this span.
        observer.engine_open(start_s, len(distinct), len(misses) - len(distinct))
        faults = self.faults
        if faults is not None:
            # Anchor the fault clock: engines and routers place every
            # serve attempt of this round at this instant.
            faults.begin_round(start_s)
        try:
            batch_result = self.engine.serve_batch(list(distinct))
        except FaultError as fault:
            # Only a bare (router-less) engine under a fault plane raises
            # here.  It has no peer to fail over to: the whole miss batch
            # fails after its detection latency and the wasted energy is
            # re-billed below.
            detect_s = faults.detection_s(
                fault,
                getattr(self.engine, "expected_query_latency_s", None),
                len(distinct),
            )
            faults.record_event(
                "attempt-failed",
                start_s + detect_s,
                kind=fault.kind,
                shard=0,
                replica=0,
            )
            faults.add_retry_cost(
                Cost(energy_pj=fault.cost.energy_pj, latency_ns=detect_s * 1e9)
            )
            batch_result = failed_batch_result(len(distinct), detect_s)
        serve_cost = batch_result.cost
        observer.engine_close(start_s, serve_cost)
        ledger.charge("Serve", serve_cost)
        if faults is not None:
            # Failed-attempt + retry energy under "Retry", hedge
            # duplicates under "Hedge".  Both are zero (and charge
            # nothing -- the ledger stays byte-identical) when no fault
            # fired.
            for category, recovery in (
                ("Retry", faults.take_retry_cost()),
                ("Hedge", faults.take_hedge_cost()),
            ):
                if recovery.energy_pj or recovery.latency_ns:
                    ledger.charge(category, recovery)
                    observer.recovery(category, recovery)
        fill_cost = Cost()
        for query, result in zip(distinct, batch_result.results):
            for position in distinct[query]:
                results[position] = result
            if self.cache is not None and not (result.failed or result.partial):
                # Never cache a dropped or partial answer: a recovered
                # fleet must not keep serving the degraded result from
                # cache.
                fill_cost = fill_cost.then(
                    self.cache.insert(
                        query, (tuple(result.items), tuple(result.scores))
                    )
                )
        if self.cache is not None and fill_cost.latency_ns > 0.0:
            ledger.charge("Cache", fill_cost)
            observer.cache_fill(start_s + serve_cost.latency_s, len(distinct), fill_cost)
        return results, serve_cost.then(fill_cost)

    def _build_records(
        self,
        batch: Batch,
        outcomes: List[str],
        hits: Dict[int, _Cached],
        results: Dict[int, QueryResult],
        lookup_cost: Cost,
        occupancy: Cost,
    ) -> List[RequestRecord]:
        """One record per request, in batch order: shed requests complete
        at dispatch, hits after the lookups, misses after ``occupancy``
        (lookups, engine round and fills)."""
        hit_done_s = batch.dispatch_s + lookup_cost.latency_s
        miss_done_s = batch.dispatch_s + occupancy.latency_s
        admission = self.admission
        degraded_k = admission.config.degraded_top_k if admission is not None else None
        batch_size = len(batch.requests)
        records = []
        for position, request in enumerate(batch.requests):
            outcome = outcomes[position]
            hit = hits.get(position)
            result = results.get(position)
            if outcome == SHED:
                completion_s, items = batch.dispatch_s, ()
            elif hit is not None:
                completion_s, items = hit_done_s, tuple(hit[0])
            else:
                completion_s, items = miss_done_s, tuple(result.items)
            failed = result is not None and result.failed
            if failed:
                self.faults.counters["failed_queries"] += 1
            degraded = outcome == DEGRADE and not failed
            records.append(
                RequestRecord(
                    request=request,
                    completion_s=completion_s,
                    batch_size=batch_size,
                    cache_hit=hit is not None,
                    items=items[:degraded_k] if degraded else items,
                    shed=outcome == SHED,
                    # A partial scatter-gather is served degraded: the
                    # client got an answer with reduced recall.
                    degraded=degraded or (result is not None and result.partial),
                    failed=failed,
                )
            )
        return records

    def _drain_migration(
        self,
        ledger: Ledger,
        occupancy: Cost,
        dispatch_s: float,
        observer: "_RunObserver",
    ) -> Cost:
        """Charge queued migration work and stall the data plane with it."""
        pending = self._pending_migration
        if pending.energy_pj == 0.0 and pending.latency_ns == 0.0:
            return occupancy
        ledger.charge("Migration", pending)
        observer.migration(dispatch_s + occupancy.latency_s, pending)
        self._pending_migration = Cost()
        return occupancy.then(pending)

    def _price(
        self, ledger: Ledger, records: List[RequestRecord]
    ) -> Optional[PriceLedger]:
        """The run's dollar bill (None when unpriced).  Pricing is
        post-processing: it only re-reads the recorded rows."""
        if self.price_book is None:
            return None
        makespan_s = (
            max(record.completion_s for record in records)
            - min(record.request.arrival_s for record in records)
            if records
            else 0.0
        )
        return price_serving_run(
            ledger,
            self.price_book,
            engine_kind=self.engine_kind,
            cache_stats=self.cache.stats() if self.cache is not None else None,
            duration_s=makespan_s,
            name=self.label,
        )
