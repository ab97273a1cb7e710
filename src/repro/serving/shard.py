"""Shard router: partition the item corpus across replicated fabrics.

A single iMARS fabric (or GPU) ranks candidates *serially*, so the
per-candidate ranking loop dominates query latency.  Sharding splits the
item corpus round-robin across N engines; every query fans out to all
shards in parallel (scatter), each shard runs NNS + ranking over its own
slice with a proportionally smaller candidate budget, and the router
merges the per-shard top-k by CTR score (gather).

Sharding cuts *per-query* latency but not queueing: one engine per slice
is still a serial resource.  :class:`ReplicaGroup` adds the throughput
axis -- R functionally identical copies of one shard's engine, with each
dispatched micro-batch split across replicas by least outstanding work,
so the group's occupancy per batch approaches 1/R of a single replica's.
Replicas share the slice *and* the construction seed, so the group
returns bit-identical recommendations regardless of R.

A :class:`ReplicaGroup` may also be *heterogeneous*: IMC replicas next
to GPU replicas of the same deployed model
(:class:`~repro.core.pipeline.GPUSpilloverEngine`, bit-identical
recommendations by construction).  With a ``p95_target_s`` the group
routes cost-aware: queries fill the cheapest replica (by observed energy
per query) until its outstanding work this dispatch round threatens the
latency target, and only the overflow spills to the fast-but-hungry
backend -- so the energy bill stays near the IMC-only floor while the
tail stays under the contract.

Cost semantics follow the repo's composition algebra: shards and
replicas run on disjoint hardware, so their batch costs compose with
:meth:`Cost.alongside` (energy adds, latency is the slowest member), and
the merge is charged through the platform's own top-k model
(:meth:`~repro.core.pipeline._EngineBase.merge_cost`).

Online re-sharding (:func:`migration_plan`, :func:`migration_cost`)
models what a *live* scale event pays: every item row whose round-robin
home changes streams its int8 embedding words and LSH signature into the
new shard's arrays, and each added replica copies its shard's full
slice.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.foms import ArrayFoMs, TABLE_II
from repro.core.mapping import WorkloadMapping
from repro.core.pipeline import (
    BatchResult,
    GPUReferenceEngine,
    GPUSpilloverEngine,
    IMARSEngine,
    QueryResult,
    ServeQuery,
)
from repro.energy.accounting import ZERO_COST, Cost, Ledger
from repro.gpu.device import GPUDeviceModel, GTX1080
from repro.serving.faults import FaultError
from repro.serving.resilience import failed_batch_result, failed_query_result

__all__ = [
    "partition_corpus",
    "migration_plan",
    "migration_cost",
    "plan_scale_migration",
    "ReplicaGroup",
    "ShardedEngine",
    "make_sharded_engine",
]


def _member_merge_cost(members: Sequence[object], num_entries: int) -> Cost:
    """The platform top-k merge model shared by a router's members.

    Scatter-gather routers (:class:`ShardedEngine`) and replica routers
    (:class:`ReplicaGroup`) both charge the merge through the platform of
    their *first* member -- the primary engine whose front-end owns the
    gather in a heterogeneous group.  One helper, one formula: replicated
    and unreplicated merges charge identical energy by construction.
    """
    return members[0].merge_cost(num_entries)


def partition_corpus(num_items: int, num_shards: int) -> List[np.ndarray]:
    """Round-robin split of ``num_items`` global ids into ``num_shards``.

    Round-robin (rather than contiguous ranges) keeps shards balanced even
    when item ids correlate with popularity or insertion time.
    """
    if num_items < 1:
        raise ValueError("need at least one item")
    if not 1 <= num_shards <= num_items:
        raise ValueError(
            f"shard count must be in [1, {num_items}], got {num_shards}"
        )
    ids = np.arange(num_items, dtype=np.int64)
    return [ids[shard::num_shards] for shard in range(num_shards)]


class ReplicaGroup:
    """R engines over one corpus slice, load-balanced per dispatch round.

    Homogeneous mode (``p95_target_s=None``): each ``serve_batch`` round
    assigns queries greedily to the replica with the least outstanding
    work -- cumulative busy seconds from past assignments plus the
    estimated work already assigned this round
    (:attr:`~repro.core.pipeline._EngineBase.expected_query_latency_s`,
    falling back to uniform estimates before any replica has served).

    Spillover mode (``p95_target_s`` set): the group may mix engine
    kinds (IMC primaries plus :class:`~repro.core.pipeline.GPUSpilloverEngine`
    overflow replicas serving bit-identical recommendations).  Replicas
    are ranked cheapest-first by their observed energy per query
    (:attr:`~repro.core.pipeline._EngineBase.expected_query_energy_pj`;
    list order -- cheapest first -- breaks the tie until every replica
    has served).  Each query goes to the cheapest replica whose work
    already queued *this round* leaves its projected completion inside
    ``spill_headroom * p95_target_s``; only the overflow spills to the
    next-cheapest backend.  When every replica is saturated the router
    degenerates to least-projected-completion levelling -- the SLO is
    lost either way, so it drains as fast as possible.  Spilled queries
    are counted in :attr:`spilled`.

    In both modes the per-replica sub-batches run concurrently on
    disjoint hardware: group occupancy is the slowest replica, energy is
    the sum, and recommendations never depend on the routing.
    """

    #: Telemetry planted by :func:`repro.obs.attach_telemetry`; see
    #: :class:`repro.core.pipeline._EngineBase`.
    _obs = None

    #: Fault plane planted by :func:`repro.serving.resilience.attach_faults`
    #: (None = no fault plane: no breakers, no fault clock).
    _faults = None
    #: This group's shard index inside the enclosing ShardedEngine.
    _fault_site = 0

    def __init__(
        self,
        replicas: Sequence[object],
        p95_target_s: Optional[float] = None,
        spill_headroom: float = 0.8,
    ):
        if not replicas:
            raise ValueError("need at least one replica")
        if p95_target_s is not None and not p95_target_s > 0.0:
            raise ValueError(f"p95 target must be positive, got {p95_target_s}")
        if not 0.0 < spill_headroom <= 1.0:
            raise ValueError(
                f"spill headroom must be in (0, 1], got {spill_headroom}"
            )
        self.replicas = list(replicas)
        if len({replica.top_k for replica in self.replicas}) != 1:
            raise ValueError("replicas must agree on top-k")
        self.p95_target_s = p95_target_s
        self.spill_headroom = spill_headroom
        #: Cumulative busy seconds dispatched to each replica so far.
        self.busy_s = [0.0] * len(self.replicas)
        #: Cumulative queries dispatched to each replica so far.
        self.assigned = [0] * len(self.replicas)
        #: Queries routed past the cheapest replica (spillover mode only).
        self.spilled = 0

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def top_k(self) -> int:
        return self.replicas[0].top_k

    @property
    def expected_query_latency_s(self) -> Optional[float]:
        """Group-level work estimate: mean member estimate over R
        concurrent replicas (None before any member has served)."""
        known = [
            value
            for replica in self.replicas
            if (value := getattr(replica, "expected_query_latency_s", None))
        ]
        if not known:
            return None
        return float(np.mean(known)) / len(self.replicas)

    def _work_estimates(self) -> List[float]:
        """Per-replica expected seconds of work per assigned query."""
        observed = [
            getattr(replica, "expected_query_latency_s", None)
            for replica in self.replicas
        ]
        known = [value for value in observed if value]
        default = float(np.mean(known)) if known else 1.0
        return [value if value else default for value in observed]

    def _energy_order(self) -> List[int]:
        """Replica indices cheapest-first.

        Ranked by the observed energy-per-query EWMA once every replica
        has served; until then the constructor's list order stands (the
        builder lists IMC primaries before GPU spillover replicas).
        """
        energies = [
            getattr(replica, "expected_query_energy_pj", None)
            for replica in self.replicas
        ]
        if any(value is None for value in energies):
            return list(range(len(self.replicas)))
        return sorted(range(len(self.replicas)), key=lambda i: (energies[i], i))

    def assign(
        self, num_queries: int, allowed: Optional[Sequence[int]] = None
    ) -> List[List[int]]:
        """Plan one dispatch round: query position -> replica.

        Deterministic (ties go to the lowest replica index), so replays
        reproduce the same routing.  ``allowed`` restricts the round to a
        subset of replica indices -- the failover hook the fault plane
        uses to route around open circuit breakers; ``None`` (the
        default, and the behaviour when every breaker is closed) admits
        every replica and routes exactly as before.
        """
        estimates = self._work_estimates()
        assignment: List[List[int]] = [[] for _ in self.replicas]
        candidates_pool = (
            range(len(self.replicas)) if allowed is None else list(allowed)
        )
        if self.p95_target_s is None:
            projected = list(self.busy_s)
            for position in range(num_queries):
                target = min(
                    candidates_pool,
                    key=lambda index: (projected[index], index),
                )
                assignment[target].append(position)
                projected[target] += estimates[target]
            return assignment

        # Spillover: all replicas start this batch together (the
        # scheduler serialises batches), so the latency threat is the
        # work queued on a replica *within this round*.
        order = self._energy_order()
        if allowed is not None:
            permitted = set(allowed)
            order = [index for index in order if index in permitted]
        primary = order[0]
        if getattr(self.replicas[primary], "expected_query_latency_s", None) is None:
            # Cold start: no latency evidence yet, so no threat to react
            # to -- stay on the cheapest replica until it has served.
            assignment[primary] = list(range(num_queries))
            return assignment
        slack_s = self.spill_headroom * self.p95_target_s
        round_work = [0.0] * len(self.replicas)
        # Slow-start: a replica whose speed is still unobserved gets at
        # most one probe query per round -- its work estimate is a guess,
        # and guessing wrong on a batch poisons the whole round's tail.
        quota = [
            num_queries
            if getattr(replica, "expected_query_latency_s", None) is not None
            else 1
            for replica in self.replicas
        ]
        for position in range(num_queries):
            target = None
            for index in order:
                if (
                    len(assignment[index]) < quota[index]
                    and round_work[index] + estimates[index] <= slack_s
                ):
                    target = index
                    break
            if target is None:
                # Saturated everywhere: level projected completions and
                # use cumulative busy time as the long-run tiebreak.
                candidates = [
                    index
                    for index in candidates_pool
                    if len(assignment[index]) < quota[index]
                ] or [primary]
                target = min(
                    candidates,
                    key=lambda index: (
                        round_work[index] + estimates[index],
                        self.busy_s[index],
                        index,
                    ),
                )
            if target != primary:
                self.spilled += 1
            assignment[target].append(position)
            round_work[target] += estimates[target]
        return assignment

    def recommend_query(self, query: ServeQuery) -> QueryResult:
        """Batch-of-one convenience mirroring the engine interface."""
        return self.serve_batch([query]).results[0]

    def serve_batch(self, queries: Sequence[ServeQuery]) -> BatchResult:
        """Route one dispatch round and serve every replica lane.

        Under an attached fault plane (``_faults``) routing skips
        replicas whose breakers are open and each lane recovers from
        failed attempts (:meth:`_serve_lane`).  Without one -- or over an
        empty plan -- no attempt ever fails, so routing, spans and costs
        are those of an unwrapped group (the empty-plan bit-identity
        invariant).  Busy/assigned accounting stays keyed by the
        *planned* replica index so routing replays exactly even when a
        retry lands elsewhere.
        """
        if not queries:
            return BatchResult(results=[], cost=Cost())
        ctx = self._faults
        resilience = ctx.resilience if ctx is not None else None
        base_s = ctx.attempt_time_s if ctx is not None else 0.0
        allowed = None
        if resilience is not None:
            allowed = [
                index
                for index in range(len(self.replicas))
                if ctx.breaker(self._fault_site, index).allow(base_s)
            ]
            if not allowed:
                # Every breaker open: fail fast without touching an
                # engine -- the cheap steady state once a whole shard is
                # known-dark (keeps the tail flat during an outage).
                return failed_batch_result(len(queries))
            if len(allowed) == len(self.replicas):
                allowed = None  # the healthy fast path routes as before
        assignment = self.assign(len(queries), allowed=allowed)
        obs = self._obs
        tracer = obs.tracer if obs is not None else None
        if tracer is not None and not tracer.active:
            tracer = None
        spillover = self.p95_target_s is not None
        primary = (
            self._energy_order()[0] if (tracer is not None and spillover) else 0
        )
        placed: Dict[int, QueryResult] = {}
        sub_costs: List[Cost] = []
        for index, positions in enumerate(assignment):
            if not positions:
                continue
            lane_results, lane_cost = self._serve_lane(
                index,
                [queries[position] for position in positions],
                ctx,
                base_s,
                tracer,
                spillover,
                primary,
            )
            self.busy_s[index] += lane_cost.latency_s
            self.assigned[index] += len(positions)
            sub_costs.append(lane_cost)
            for position, result in zip(positions, lane_results):
                placed[position] = result
        if ctx is not None:
            ctx.begin_round(base_s)  # restore for the caller's next shard
        return BatchResult(
            results=[placed[position] for position in range(len(queries))],
            cost=Cost.concurrent(sub_costs),
        )

    def _serve_lane(
        self,
        index: int,
        sub: Sequence[ServeQuery],
        ctx,
        base_s: float,
        tracer,
        spillover: bool,
        primary: int,
    ) -> Tuple[List[QueryResult], Cost]:
        """One replica lane of a dispatch round.

        Returns the lane's per-query results plus its occupancy cost.
        The first attempt goes to the planned replica -- without a fault
        plane it is the only one.  Each failure pays a detection latency
        (:meth:`~repro.serving.resilience.FaultContext.detection_s`),
        then the retry fails over to the least-loaded breaker-allowed
        peer or, if none exists, backs off exponentially on the same
        replica.  A successful-but-straggling attempt fires one hedge on
        a peer and the earlier finisher sets the lane latency.  All
        failed-attempt and hedge energy is accumulated on the context
        for the session to re-bill under "Retry"/"Hedge".
        """
        resilience = ctx.resilience if ctx is not None else None
        shard = self._fault_site
        n = len(sub)
        if tracer is not None:
            # Replica sub-batches run concurrently: each replica span
            # starts when the enclosing (shard) stage started.
            start_s = tracer.cursor_s
            probe = (
                getattr(self.replicas[index], "expected_query_latency_s", None)
                is None
            )
            tracer.open(
                f"replica{index}",
                start_s,
                category="serve",
                replica=index,
                engine=type(self.replicas[index]).__name__,
                queries=n,
                spill=spillover and index != primary,
            )
            if spillover and probe:
                tracer.instant("spillover-probe", start_s, replica=index)
        current = index
        lane_offset_s = 0.0  # wall-clock burnt on failed attempts so far
        wasted = ZERO_COST  # physical cost of those failed attempts
        retries = 0
        batch = None
        while True:
            pre_estimate = getattr(
                self.replicas[current], "expected_query_latency_s", None
            )
            if ctx is not None:
                if resilience is not None:
                    ctx.breaker(shard, current).take_probe()
                ctx.begin_round(base_s + lane_offset_s)
            try:
                batch = self.replicas[current].serve_batch(sub)
                break
            except FaultError as fault:
                # Only a planted fault hook raises, so ctx is attached.
                detect_s = ctx.detection_s(fault, pre_estimate, n)
                lane_offset_s += detect_s
                wasted = wasted.then(
                    Cost(
                        energy_pj=fault.cost.energy_pj,
                        latency_ns=detect_s * 1e9,
                    )
                )
                failed_at_s = base_s + lane_offset_s
                if resilience is not None:
                    ctx.breaker(shard, current).record_failure(failed_at_s)
                ctx.record_event(
                    "attempt-failed",
                    failed_at_s,
                    kind=fault.kind,
                    shard=shard,
                    replica=current,
                )
                if (
                    resilience is None
                    or retries >= resilience.max_retries
                    or not ctx.retry_budget_left()
                ):
                    break
                retries += 1
                ctx.retries_used += 1
                ctx.counters["retries"] += 1
                peers = [
                    peer
                    for peer in range(len(self.replicas))
                    if peer != current
                    and ctx.breaker(shard, peer).allow(failed_at_s)
                ]
                if peers:
                    target = min(
                        peers, key=lambda peer: (self.busy_s[peer], peer)
                    )
                    ctx.counters["failovers"] += 1
                    ctx.record_event(
                        "failover",
                        failed_at_s,
                        shard=shard,
                        origin=current,
                        target=target,
                    )
                    current = target
                else:
                    backoff_s = resilience.backoff_base_s * (
                        resilience.backoff_multiplier ** (retries - 1)
                    )
                    lane_offset_s += backoff_s
                    ctx.record_event(
                        "retry-backoff",
                        base_s + lane_offset_s,
                        shard=shard,
                        replica=current,
                        backoff_s=backoff_s,
                    )
        if batch is None:
            # Attempts exhausted: the lane's queries are dropped.  The
            # wasted energy is re-billed via the context; the lane's
            # occupancy is the time burnt detecting the failures.
            ctx.add_retry_cost(wasted)
            failed = failed_batch_result(n, lane_offset_s)
            if tracer is not None:
                tracer.close(start_s + failed.cost.latency_s)
            return failed.results, failed.cost

        done_s = base_s + lane_offset_s + batch.cost.latency_s
        if resilience is not None:
            ctx.breaker(shard, current).record_success(done_s)
        lane_latency_s = lane_offset_s + batch.cost.latency_s
        if (
            resilience is not None
            and pre_estimate is not None
            and batch.cost.latency_s
            > resilience.hedge_factor * pre_estimate * n
        ):
            # Straggler: the attempt succeeded but blew its expectation.
            # Model the hedge a real client would have fired after
            # hedge_delay: serve the same sub-batch on the best peer
            # (bit-identical results by construction), let the earlier
            # finisher set the lane latency, bill both energies.
            ctx.counters["straggled_batches"] += 1
            hedge_delay_s = resilience.hedge_delay_factor * pre_estimate * n
            peers = [
                peer
                for peer in range(len(self.replicas))
                if peer != current
                and ctx.breaker(shard, peer).allow(
                    base_s + lane_offset_s + hedge_delay_s
                )
            ]
            if peers and ctx.retry_budget_left():
                target = min(peers, key=lambda peer: (self.busy_s[peer], peer))
                ctx.retries_used += 1
                ctx.counters["hedges"] += 1
                ctx.record_event(
                    "hedge",
                    base_s + lane_offset_s + hedge_delay_s,
                    shard=shard,
                    origin=current,
                    replica=target,
                )
                ctx.breaker(shard, target).take_probe()
                ctx.begin_round(base_s + lane_offset_s + hedge_delay_s)
                try:
                    hedge_batch = self.replicas[target].serve_batch(sub)
                    hedge_latency_s = hedge_delay_s + hedge_batch.cost.latency_s
                    ctx.breaker(shard, target).record_success(
                        base_s + lane_offset_s + hedge_latency_s
                    )
                    ctx.add_hedge_cost(
                        Cost(energy_pj=hedge_batch.cost.energy_pj)
                    )
                    if hedge_latency_s < batch.cost.latency_s:
                        lane_latency_s = lane_offset_s + hedge_latency_s
                except FaultError as fault:
                    # Lost hedge: its (possibly partial) energy still
                    # burnt; the original result stands.
                    ctx.breaker(shard, target).record_failure(
                        base_s + lane_offset_s + hedge_delay_s
                    )
                    ctx.add_hedge_cost(Cost(energy_pj=fault.cost.energy_pj))
        if wasted.energy_pj or wasted.latency_ns:
            ctx.add_retry_cost(wasted)
        if lane_offset_s == 0.0 and lane_latency_s == batch.cost.latency_s:
            # Clean lane: reuse the engine's cost object untouched so the
            # empty-plan path stays bit-identical (no s<->ns round trip).
            lane_cost = batch.cost
        else:
            lane_cost = Cost(
                energy_pj=batch.cost.energy_pj,
                latency_ns=lane_latency_s * 1e9,
            )
        if tracer is not None:
            tracer.close(start_s + lane_cost.latency_s)
        return batch.results, lane_cost

    def stats(self) -> Dict[str, object]:
        """Routing counters (per-replica load and spill volume)."""
        return {
            "assigned": list(self.assigned),
            "busy_s": list(self.busy_s),
            "spilled": self.spilled,
            "spill_rate": self.spilled / max(1, sum(self.assigned)),
        }

    def merge_cost(self, num_entries: int) -> Cost:
        """Expose the members' platform merge model (router nesting)."""
        return _member_merge_cost(self.replicas, num_entries)


class ShardedEngine:
    """Scatter-gather serving over N corpus-partitioned engines."""

    #: Telemetry planted by :func:`repro.obs.attach_telemetry`; see
    #: :class:`repro.core.pipeline._EngineBase`.
    _obs = None

    #: Fault plane planted by :func:`repro.serving.resilience.attach_faults`
    #: (None = no fault plane: no breakers, no fault clock).
    _faults = None

    def __init__(self, shards: Sequence[object], top_k: int):
        if not shards:
            raise ValueError("need at least one shard")
        if top_k < 1:
            raise ValueError("top-k must be >= 1")
        for shard in shards:
            # The gather reserves top_k slots per shard: a longer ranked
            # list would not fit its slice of the score matrix.
            if shard.top_k > top_k:
                raise ValueError(
                    f"shard top-k {shard.top_k} exceeds the router top-k {top_k}"
                )
        self.shards = list(shards)
        self.top_k = top_k
        # The platform merge model is a pure function of the gathered
        # entry count, so each distinct count is priced once per router
        # and replayed for every query (identical Cost values, identical
        # fold order -- bitwise the same totals as pricing per query).
        self._merge_cost_cache: Dict[int, Cost] = {}

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def expected_query_latency_s(self) -> Optional[float]:
        """Scatter-gather work estimate: the slowest shard dominates
        (None before any shard has served)."""
        known = [
            value
            for shard in self.shards
            if (value := getattr(shard, "expected_query_latency_s", None))
        ]
        if not known:
            return None
        return float(max(known))

    def recommend_query(self, query: ServeQuery) -> QueryResult:
        """Batch-of-one convenience mirroring the engine interface."""
        return self.serve_batch([query]).results[0]

    def _merge_cost_for(self, num_entries: int) -> Cost:
        """Batch-cached :func:`_member_merge_cost` (priced once per count)."""
        cached = self._merge_cost_cache.get(num_entries)
        if cached is None:
            cached = _member_merge_cost(self.shards, num_entries)
            self._merge_cost_cache[num_entries] = cached
        return cached

    def serve_batch(self, queries: Sequence[ServeQuery]) -> BatchResult:
        """Scatter the batch to every shard, gather and merge at once.

        The gather stacks every shard's ranked lists into one padded
        (Q, shards * top_k) score matrix and runs a single stable argsort
        over it: padding scores sit below every CTR (sigmoids are > 0) so
        they sort last, and padding only inserts *gaps* into the
        shard-major entry numbering, so the stable tie-break reproduces
        the per-query ``(-score, entry index)`` merge order bit for bit.

        Under an attached fault plane (``_faults``) replica-group shards
        recover internally (retries/failover/hedges), bare shards go
        dark past their deadline (:meth:`_serve_bare_shard`), and the
        per-query construction downgrades: resilience ON merges the
        survivors into a partial (degraded) answer and records the
        recall loss, resilience OFF rejects any response missing a
        corpus slice.  A dark shard contributes zero entries exactly like
        an empty ranked list, so when nothing fires the merge is the
        same arithmetic (the empty-plan bit-identity invariant).
        """
        if not queries:
            return BatchResult(results=[], cost=Cost())
        ctx = self._faults
        resilience = ctx.resilience if ctx is not None else None
        round_s = ctx.attempt_time_s if ctx is not None else 0.0
        obs = self._obs
        tracer = obs.tracer if obs is not None else None
        traced = tracer is not None and tracer.active
        base_s = tracer.cursor_s if traced else 0.0
        shard_batches = []
        for shard_index, shard in enumerate(self.shards):
            if traced:
                # All shards scatter together at the stage start; each
                # shard's lane shows its own occupancy.
                tracer.open(
                    f"shard{shard_index}",
                    base_s,
                    category="serve",
                    track=f"shard{shard_index}",
                    shard=shard_index,
                    queries=len(queries),
                )
            if ctx is None:
                shard_batch = shard.serve_batch(queries)
            else:
                # Every shard's first attempt starts at the same round
                # anchor (lanes advance it locally for their own
                # retries/hedges).
                ctx.begin_round(round_s)
                if getattr(shard, "replicas", None) is not None:
                    shard_batch = shard.serve_batch(queries)
                else:
                    shard_batch = self._serve_bare_shard(
                        shard, shard_index, queries, ctx, round_s
                    )
            if traced:
                tracer.close(base_s + shard_batch.cost.latency_s)
            shard_batches.append(shard_batch)
        if ctx is not None:
            ctx.begin_round(round_s)
        # Shards are replicated fabrics running concurrently.
        scatter_cost = Cost.concurrent(batch.cost for batch in shard_batches)

        num_queries = len(queries)
        width = len(self.shards) * self.top_k
        score_matrix = np.full((num_queries, width), -1.0)
        item_matrix = np.zeros((num_queries, width), dtype=np.int64)
        entry_counts = [0] * num_queries
        dark_counts = [0] * num_queries
        for shard_index, batch in enumerate(shard_batches):
            base = shard_index * self.top_k
            for position, result in enumerate(batch.results):
                if result.failed:
                    dark_counts[position] += 1
                length = len(result.scores)
                score_matrix[position, base : base + length] = result.scores
                item_matrix[position, base : base + length] = result.items
                entry_counts[position] += length

        order = np.argsort(-score_matrix, axis=1, kind="stable")[:, : self.top_k]
        item_lists = np.take_along_axis(item_matrix, order, axis=1).tolist()
        score_lists = np.take_along_axis(score_matrix, order, axis=1).tolist()

        merged: List[QueryResult] = []
        merge_total = Cost()
        partial_queries = 0
        for position in range(num_queries):
            per_shard = [batch.results[position] for batch in shard_batches]
            dark = dark_counts[position]
            if dark and (dark == len(per_shard) or resilience is None):
                # Every slice dark -- or a strict resilience-off client
                # that rejects responses missing part of the corpus.
                merged.append(failed_query_result())
                continue
            num_entries = entry_counts[position]
            merge_cost = self._merge_cost_for(num_entries)
            merge_total = merge_total.then(merge_cost)

            # A dark shard's ledger is empty: extending is a no-op.
            ledger = Ledger(name="sharded-query")
            for result in per_shard:
                ledger.extend(result.ledger)
            ledger.charge("Merge", merge_cost)
            per_query_cost = Cost.concurrent(
                result.cost for result in per_shard
            ).then(merge_cost)
            take = min(self.top_k, num_entries)
            merged_result = QueryResult(
                items=item_lists[position][:take],
                candidate_count=sum(
                    result.candidate_count for result in per_shard
                ),
                cost=per_query_cost,
                ledger=ledger,
                scores=score_lists[position][:take],
            )
            if dark:
                merged_result.partial = True
                partial_queries += 1
                ctx.counters["partial_queries"] += 1
                ctx.counters["lost_entries"] += dark
                ctx.recall_loss += dark / len(per_shard)
            merged.append(merged_result)
        if partial_queries:
            ctx.record_event(
                "partial-merge",
                round_s + scatter_cost.latency_s,
                queries=partial_queries,
                shards=len(self.shards),
            )
        if traced:
            merge_start_s = base_s + scatter_cost.latency_s
            tracer.add(
                "merge",
                merge_start_s,
                merge_start_s + merge_total.latency_s,
                category="merge",
                shards=len(self.shards),
                entries=sum(entry_counts),
                queries=num_queries,
            )
        return BatchResult(results=merged, cost=scatter_cost.then(merge_total))

    def merge_cost(self, num_entries: int) -> Cost:
        """Expose the underlying platform's merge model (router nesting)."""
        return _member_merge_cost(self.shards, num_entries)

    def _serve_bare_shard(
        self,
        shard,
        shard_index: int,
        queries: Sequence[ServeQuery],
        ctx,
        round_s: float,
    ) -> BatchResult:
        """One unreplicated shard's scatter under the fault plane.

        A bare shard has no peer to fail over to, so a faulted attempt
        makes the whole shard dark for this batch: the caller waits the
        shard deadline (or the error's own latency), bills the wasted
        energy for re-billing, and the gather goes partial.  An open
        breaker skips the attempt entirely -- the steady state while a
        known-dead shard recovers.
        """
        breaker = (
            ctx.breaker(shard_index, 0) if ctx.resilience is not None else None
        )
        if breaker is not None:
            if not breaker.allow(round_s):
                return failed_batch_result(len(queries))
            breaker.take_probe()
        estimate = getattr(shard, "expected_query_latency_s", None)
        try:
            batch = shard.serve_batch(queries)
        except FaultError as fault:
            detect_s = ctx.detection_s(
                fault, estimate, len(queries), shard_deadline=True
            )
            failed_at_s = round_s + detect_s
            if breaker is not None:
                breaker.record_failure(failed_at_s)
            ctx.record_event(
                "shard-dark", failed_at_s, kind=fault.kind, shard=shard_index
            )
            ctx.add_retry_cost(
                Cost(energy_pj=fault.cost.energy_pj, latency_ns=detect_s * 1e9)
            )
            return failed_batch_result(len(queries), detect_s)
        if breaker is not None:
            breaker.record_success(round_s + batch.cost.latency_s)
        return batch


def make_sharded_engine(
    kind: str,
    filtering_model,
    ranking_model,
    num_shards: int,
    mapping: Optional[WorkloadMapping] = None,
    num_candidates: int = 72,
    top_k: int = 10,
    seed: int = 0,
    replicas_per_shard: int = 1,
    spillover_replicas_per_shard: int = 0,
    spillover_slo_s: Optional[float] = None,
    spill_headroom: float = 0.8,
    spillover_device: GPUDeviceModel = GTX1080,
    **engine_kwargs,
) -> ShardedEngine:
    """Build a :class:`ShardedEngine` of ``kind`` ('imars' or 'gpu').

    Each shard serves a round-robin slice of the corpus with a
    proportionally reduced candidate budget (``ceil(num_candidates /
    num_shards)``), so the merged candidate pool stays comparable to the
    unsharded engine's while each shard's serial ranking loop shortens by
    ~``num_shards``x -- the latency win sharding buys.

    ``replicas_per_shard > 1`` wraps every shard in a
    :class:`ReplicaGroup` of R engines built with *the same seed* (so
    every replica owns an identical LSH index and recommendations do not
    depend on R) -- the throughput win replication buys.

    ``spillover_replicas_per_shard > 0`` (iMARS only) additionally puts
    that many :class:`~repro.core.pipeline.GPUSpilloverEngine` replicas
    -- same models, same seed, same slice, bit-identical recommendations
    -- behind each shard, and the group routes cost-aware against
    ``spillover_slo_s`` (required): the IMC primaries absorb traffic up
    to ``spill_headroom`` of the latency target, the GPUs absorb only
    the overflow -- the heterogeneous-fleet trade the E-hetero study
    measures.
    """
    if kind not in ("imars", "gpu"):
        raise ValueError(f"unknown engine kind {kind!r} (use 'imars' or 'gpu')")
    if replicas_per_shard < 1:
        raise ValueError(
            f"replicas per shard must be >= 1, got {replicas_per_shard}"
        )
    if spillover_replicas_per_shard < 0:
        raise ValueError(
            f"spillover replicas must be >= 0, got {spillover_replicas_per_shard}"
        )
    if spillover_replicas_per_shard > 0:
        if kind != "imars":
            raise ValueError("spillover replicas only back iMARS primaries")
        if spillover_slo_s is None:
            raise ValueError(
                "spillover routing needs spillover_slo_s (the latency target "
                "that decides when overflow leaves the IMC primaries)"
            )
        if engine_kwargs.get("analog_dnn"):
            raise ValueError(
                "analog_dnn primaries cannot be mirrored bit-identically by "
                "GPU spillover replicas (a CUDA port has no crossbar noise)"
            )
    num_items = filtering_model.config.num_items
    partitions = partition_corpus(num_items, num_shards)
    per_shard_candidates = max(1, math.ceil(num_candidates / num_shards))

    def build_engine(shard_index: int, subset: np.ndarray) -> object:
        if kind == "imars":
            if mapping is None:
                raise ValueError("iMARS shards need a workload mapping")
            return IMARSEngine(
                filtering_model,
                ranking_model,
                mapping,
                num_candidates=per_shard_candidates,
                top_k=top_k,
                seed=seed + shard_index,
                item_subset=subset,
                **engine_kwargs,
            )
        return GPUReferenceEngine(
            filtering_model,
            ranking_model,
            num_candidates=per_shard_candidates,
            top_k=top_k,
            item_subset=subset,
            **engine_kwargs,
        )

    def build_spillover(shard_index: int, subset: np.ndarray) -> object:
        # Forward the primaries' engine kwargs (signature_bits, cost_model,
        # ...): the GPU replica must be built exactly like its IMC peers or
        # the bit-identical-recommendations invariant breaks.  analog_dnn
        # was rejected above; it has no GPU counterpart.
        spill_kwargs = {
            key: value
            for key, value in engine_kwargs.items()
            if key != "analog_dnn"
        }
        return GPUSpilloverEngine(
            filtering_model,
            ranking_model,
            mapping,
            num_candidates=per_shard_candidates,
            top_k=top_k,
            seed=seed + shard_index,
            item_subset=subset,
            device=spillover_device,
            **spill_kwargs,
        )

    shards: List[object] = []
    for shard_index, subset in enumerate(partitions):
        members = [
            build_engine(shard_index, subset) for _ in range(replicas_per_shard)
        ]
        members.extend(
            build_spillover(shard_index, subset)
            for _ in range(spillover_replicas_per_shard)
        )
        if len(members) == 1:
            shards.append(members[0])
        elif spillover_replicas_per_shard > 0:
            shards.append(
                ReplicaGroup(
                    members,
                    p95_target_s=spillover_slo_s,
                    spill_headroom=spill_headroom,
                )
            )
        else:
            shards.append(ReplicaGroup(members))
    return ShardedEngine(shards, top_k=top_k)


# -- online re-sharding: what a live scale event pays ---------------------


def migration_plan(
    num_items: int, old_shards: int, new_shards: int
) -> np.ndarray:
    """Global item ids whose round-robin home changes old -> new shards.

    :func:`partition_corpus` places item ``i`` on shard ``i % N``, so the
    moved set is exactly the ids whose residue differs under the two
    moduli.  Growing 1 -> 2 shards moves every other item; shrinking
    undoes the same moves; ``old == new`` moves nothing.
    """
    if num_items < 1:
        raise ValueError("need at least one item")
    for label, count in (("old", old_shards), ("new", new_shards)):
        if not 1 <= count <= num_items:
            raise ValueError(
                f"{label} shard count must be in [1, {num_items}], got {count}"
            )
    ids = np.arange(num_items, dtype=np.int64)
    return ids[(ids % old_shards) != (ids % new_shards)]


def migration_cost(
    num_rows: int,
    embedding_dim: int,
    signature_bits: int,
    embedding_bits: int = 8,
    foms: ArrayFoMs = TABLE_II,
) -> Cost:
    """Cost of streaming ``num_rows`` item rows into their new arrays.

    Each moved row writes its int8 embedding (``embedding_dim *
    embedding_bits`` bits) into the new shard's ItET CMAs and its LSH
    signature into the TCAM arrays, 256-bit words per CMA write; the
    writes serialise over the destination shard's write port.  Charged
    to the session ledger under "Migration" -- the price of *not*
    restarting the deployment.
    """
    if num_rows < 0:
        raise ValueError(f"row count must be non-negative, got {num_rows}")
    if embedding_dim < 1 or signature_bits < 1 or embedding_bits < 1:
        raise ValueError("embedding dim, signature bits and width must be >= 1")
    words_per_row = math.ceil(embedding_dim * embedding_bits / 256) + math.ceil(
        signature_bits / 256
    )
    return foms.cma_write.repeated(num_rows * words_per_row)


def plan_scale_migration(
    num_items: int,
    old_deployment: Tuple[int, int],
    new_deployment: Tuple[int, int],
) -> Tuple[np.ndarray, int]:
    """(moved item ids, total rows written) of one online scale event.

    Re-partitioning writes every moved item once into its new shard;
    each *added* replica additionally copies its shard's full slice
    (summing to the whole corpus per added replica).  Removing replicas
    is free -- state is dropped, not moved.  The moved-id array (the
    re-partitioned ranges only) is what the result cache invalidates:
    replica copies add rows without relocating any.
    """
    old_shards, old_replicas = old_deployment
    new_shards, new_replicas = new_deployment
    for label, count in (
        ("old replica", old_replicas),
        ("new replica", new_replicas),
    ):
        if count < 1:
            raise ValueError(f"{label} count must be >= 1, got {count}")
    moved = migration_plan(num_items, old_shards, new_shards)
    total_rows = int(moved.size)
    if new_replicas > old_replicas:
        total_rows += (new_replicas - old_replicas) * num_items
    return moved, total_rows
