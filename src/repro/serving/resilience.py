"""Self-healing serving: timeouts, retries, hedging, circuit breakers.

:mod:`repro.serving.faults` schedules the failures; this module decides
what the fleet does about them.  A :class:`FaultContext` binds one
:class:`~repro.serving.faults.FaultInjector` to an optional
:class:`ResilienceConfig` and is *attached* to the fleet
(:func:`attach_faults`, one loop over the fleet walk
:func:`repro.serving.shard.iter_engines`): every engine gains a
failure hook that consults the injector at each serve attempt, and every
router (:class:`~repro.serving.shard.ReplicaGroup`,
:class:`~repro.serving.shard.ShardedEngine`) gains the context it needs
to recover:

* **timeouts + retries with backoff** -- a crashed replica is detected
  after a timeout (a multiple of its expected sub-batch latency); the
  sub-batch retries on the least-loaded healthy peer (failover, no
  backoff) or, when no peer exists, on the same replica after
  exponential backoff.  Retry attempts are re-billed to the session
  ledger under a ``"Retry"`` category -- recovery work is real energy;
* **hedging** -- a straggling (but correct) sub-batch triggers a hedge
  on a healthy peer after a delay; the first finisher wins (results are
  bit-identical by the replica-construction invariant) and both
  attempts' energy is billed (hedges under ``"Hedge"``);
* **circuit breakers** -- per-replica closed/open/half-open state
  machines: repeated failures open the breaker, routing skips open
  breakers (failover), and after a cooldown a limited number of
  half-open probes test recovery -- a probe success re-closes, a probe
  failure re-opens;
* **partial scatter-gather** -- handled in
  :class:`~repro.serving.shard.ShardedEngine`: when a whole shard is
  dark past its deadline the gather returns top-k from the surviving
  shards, marks the results partial (served degraded, like the
  admission controller's reduced top-k) and records the recall loss
  instead of failing the request.

Everything here is deterministic: no randomness is drawn, breakers and
accumulators iterate in insertion order, and with an *empty* fault plan
every hook and breaker call is a no-op that leaves recommendations,
ledgers and telemetry byte-identical to an unwrapped fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.pipeline import BatchResult, QueryResult
from repro.energy.accounting import Cost, Ledger
from repro.serving.faults import ERROR, FaultError, FaultInjector, FaultPlan

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "ResilienceConfig",
    "CircuitBreaker",
    "FaultContext",
    "attach_faults",
    "failed_batch_result",
    "failed_query_result",
]

#: Breaker states (the classic three-state machine).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the self-healing layer (absence = resilience off).

    Timeouts and hedges are sized relative to a replica's *expected*
    per-query latency (the routing EWMA), falling back to
    ``default_timeout_s`` before any observation exists.
    """

    #: Attempt timeout = ``timeout_factor`` x expected sub-batch latency.
    timeout_factor: float = 4.0
    #: Per-query latency assumed before a replica has ever served.
    default_timeout_s: float = 0.005
    #: Retry attempts per failed sub-batch (beyond the first attempt).
    max_retries: int = 2
    #: Backoff before a same-replica retry (no healthy peer available).
    backoff_base_s: float = 0.0005
    backoff_multiplier: float = 2.0
    #: Total retry attempts one run may spend (the retry budget).
    retry_budget: int = 10_000
    #: Hedge when an attempt ran ``hedge_factor`` x its expectation...
    hedge_factor: float = 3.0
    #: ...modelled as fired after ``hedge_delay_factor`` x expectation.
    hedge_delay_factor: float = 1.5
    #: Consecutive failures that open a replica's breaker.
    breaker_failure_threshold: int = 2
    #: Seconds an open breaker waits before letting probes through.
    #: Sized to the simulator's timescale (micro-batches serve in
    #: ~0.1-1ms): long enough to skip a few doomed attempts, short
    #: enough that a recovered replica rejoins within a handful of
    #: batches -- a mis-sized cooldown (say 0.05s against a 5ms fault)
    #: leaves the breaker open for the rest of the run.
    breaker_cooldown_s: float = 0.002
    #: Concurrent probe attempts allowed while half-open.
    breaker_half_open_probes: int = 1
    #: Whole-shard deadline = ``shard_deadline_factor`` x expectation.
    shard_deadline_factor: float = 4.0

    def __post_init__(self) -> None:
        if not (self.timeout_factor > 0.0 and self.shard_deadline_factor > 0.0):
            raise ValueError("timeout/deadline factors must be positive")
        if not self.default_timeout_s > 0.0:
            raise ValueError(
                f"default timeout must be positive, got {self.default_timeout_s}"
            )
        if self.max_retries < 0 or self.retry_budget < 0:
            raise ValueError("retry counts cannot be negative")
        if not self.backoff_base_s >= 0.0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff_base_s}")
        if not self.backoff_multiplier >= 1.0:
            raise ValueError(
                f"backoff multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not (self.hedge_factor > 1.0 and self.hedge_delay_factor > 0.0):
            raise ValueError("hedge factors must be > 1 (trigger) and > 0 (delay)")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker failure threshold must be >= 1")
        if not self.breaker_cooldown_s >= 0.0:
            raise ValueError("breaker cooldown must be >= 0")
        if self.breaker_half_open_probes < 1:
            raise ValueError("half-open probe limit must be >= 1")

    def attempt_timeout_s(
        self, expected_query_s: Optional[float], num_queries: int
    ) -> float:
        """How long a caller waits before declaring an attempt dead."""
        per_query = expected_query_s or self.default_timeout_s
        return self.timeout_factor * per_query * max(1, num_queries)

    def shard_deadline_s(
        self, expected_query_s: Optional[float], num_queries: int
    ) -> float:
        """How long the gather waits on a dark shard before going partial."""
        per_query = expected_query_s or self.default_timeout_s
        return self.shard_deadline_factor * per_query * max(1, num_queries)


class CircuitBreaker:
    """Per-replica closed/open/half-open failure gate.

    Deterministic and allocation-light: state moves only inside
    :meth:`allow` / :meth:`record_success` / :meth:`record_failure`,
    every transition is appended to :attr:`transitions` (and reported
    through the optional callback), and no clock is read -- callers
    pass simulation time in.
    """

    def __init__(
        self,
        config: ResilienceConfig,
        on_transition: Optional[Callable[[float, str, str], None]] = None,
    ):
        self.config = config
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_s = 0.0
        self.probes_in_flight = 0
        #: (time_s, old_state, new_state) per transition, in order.
        self.transitions: List[Tuple[float, str, str]] = []
        self._on_transition = on_transition

    def _move(self, now_s: float, new_state: str) -> None:
        old_state = self.state
        self.state = new_state
        self.transitions.append((now_s, old_state, new_state))
        if self._on_transition is not None:
            self._on_transition(now_s, old_state, new_state)

    def allow(self, now_s: float) -> bool:
        """May a request be routed to this replica at ``now_s``?

        An open breaker whose cooldown elapsed moves to half-open; while
        half-open, requests pass only while probe slots remain.  The
        check is *non-consuming* -- routing may probe many candidates
        before picking one -- so callers claim the slot with
        :meth:`take_probe` when an attempt actually starts, and the
        matching ``record_success`` / ``record_failure`` releases it.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now_s - self.opened_at_s < self.config.breaker_cooldown_s:
                return False
            self.probes_in_flight = 0
            self._move(now_s, HALF_OPEN)
        return self.probes_in_flight < self.config.breaker_half_open_probes

    def take_probe(self) -> None:
        """Claim a half-open probe slot: one attempt is now in flight.

        A no-op outside half-open (closed breakers don't meter attempts).
        Routing that merely *checked* ``allow`` must not call this --
        a claimed-but-never-attempted slot would lock the replica out
        of recovery forever.
        """
        if self.state == HALF_OPEN:
            self.probes_in_flight += 1

    def record_success(self, now_s: float) -> None:
        """One attempt on this replica finished cleanly."""
        if self.state == HALF_OPEN:
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self._move(now_s, CLOSED)
        self.consecutive_failures = 0

    def record_failure(self, now_s: float) -> None:
        """One attempt on this replica failed (fault or timeout)."""
        if self.state == HALF_OPEN:
            # The health probe failed: straight back to open, cooldown
            # restarts from the probe's failure time.
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self.opened_at_s = now_s
            self._move(now_s, OPEN)
            return
        self.consecutive_failures += 1
        if (
            self.state == CLOSED
            and self.consecutive_failures
            >= self.config.breaker_failure_threshold
        ):
            self.opened_at_s = now_s
            self._move(now_s, OPEN)


#: Counter keys, fixed up front so every stats() dict iterates in the
#: same order regardless of which faults actually fired.
_COUNTER_KEYS = (
    "crash_hits",
    "error_hits",
    "straggled_batches",
    "retries",
    "failovers",
    "hedges",
    "failed_queries",
    "partial_queries",
    "lost_entries",
    "breaker_opens",
    "breaker_half_opens",
    "breaker_closes",
    "cache_flushes",
    "flushed_entries",
)


class FaultContext:
    """One run's fault machinery: injector + resilience + bookkeeping.

    Sessions build one per run and attach it through the engine tree;
    routers read routing state from it (breakers, the current attempt
    time) and write recovery accounting into it (retry/hedge costs,
    counters, telemetry events).  All mutation is deterministic -- the
    context draws no randomness and iterates only insertion-ordered
    containers.
    """

    def __init__(
        self,
        faults,
        resilience: Optional[ResilienceConfig] = None,
        telemetry=None,
        process: str = "serve",
    ):
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        if not isinstance(faults, FaultInjector):
            raise TypeError(
                f"faults must be a FaultPlan or FaultInjector, got {type(faults)!r}"
            )
        self.injector = faults
        self.resilience = resilience
        self.telemetry = telemetry
        self.process = process
        #: Simulation time of the serve attempt currently in flight;
        #: routers set it before every engine call so the failure hooks
        #: can place the attempt inside (or outside) fault windows.
        self.attempt_time_s = 0.0
        self.breakers: Dict[Tuple[int, int], CircuitBreaker] = {}
        self.retries_used = 0
        self.counters: Dict[str, int] = {key: 0 for key in _COUNTER_KEYS}
        #: Sum over partial queries of (dark shards / total shards) --
        #: the expected recall lost to partial gathers.
        self.recall_loss = 0.0
        self._pending_retry = Cost()
        self._pending_hedge = Cost()
        windows = [
            event
            for event in self.injector.plan.events
            if event.duration_s > 0.0
        ]
        self._begin_queue = windows  # plan events are start-sorted
        self._end_queue = sorted(windows, key=lambda event: event.end_s)
        self._begin_cursor = 0
        self._end_cursor = 0
        self._event_counter = None  # lazy: zero-fault runs export nothing

    # -- routing state --------------------------------------------------

    def begin_round(self, now_s: float) -> None:
        """Anchor the next dispatch round at simulation time ``now_s``."""
        self.attempt_time_s = now_s

    def breaker(self, shard: int, replica: int) -> CircuitBreaker:
        """The (lazily created) breaker guarding one replica site."""
        site = (shard, replica)
        breaker = self.breakers.get(site)
        if breaker is None:
            config = self.resilience or ResilienceConfig()
            breaker = CircuitBreaker(
                config,
                on_transition=lambda now_s, old, new, _site=site: (
                    self._breaker_event(_site, now_s, old, new)
                ),
            )
            self.breakers[site] = breaker
        return breaker

    def retry_budget_left(self) -> bool:
        return (
            self.resilience is not None
            and self.retries_used < self.resilience.retry_budget
        )

    def detection_s(
        self,
        fault: FaultError,
        expected_query_s: Optional[float],
        num_queries: int,
        shard_deadline: bool = False,
    ) -> float:
        """Seconds the caller spends finding out that an attempt failed.

        A transient error did the work and returned garbage, so the
        caller pays the full serve latency to find out.  A crash or
        outage is silence, detected by the attempt timeout -- or, for a
        whole shard the gather waits on, the shard deadline.  Without
        resilience nobody waits.  Counts the hit in ``error_hits`` /
        ``crash_hits``.
        """
        if fault.kind == ERROR:
            self.counters["error_hits"] += 1
            return fault.cost.latency_s
        self.counters["crash_hits"] += 1
        resilience = self.resilience
        if resilience is None:
            return 0.0
        if shard_deadline:
            return resilience.shard_deadline_s(expected_query_s, num_queries)
        return resilience.attempt_timeout_s(expected_query_s, num_queries)

    # -- recovery-cost accumulators -------------------------------------

    def add_retry_cost(self, cost: Cost) -> None:
        self._pending_retry = self._pending_retry.then(cost)

    def add_hedge_cost(self, cost: Cost) -> None:
        self._pending_hedge = self._pending_hedge.then(cost)

    def take_retry_cost(self) -> Cost:
        cost = self._pending_retry
        self._pending_retry = Cost()
        return cost

    def take_hedge_cost(self) -> Cost:
        cost = self._pending_hedge
        self._pending_hedge = Cost()
        return cost

    # -- telemetry ------------------------------------------------------

    def record_event(self, name: str, time_s: float, **attrs: object) -> None:
        """Emit one fault-plane event (tracer instant + metrics counter).

        Families are created lazily on the first real event, so a run
        whose plan never fires exports byte-identical telemetry to a
        run with no fault plane at all.
        """
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            return
        telemetry.tracer.instant(
            name, time_s, category="fault", track="faults", **attrs
        )
        if self._event_counter is None:
            self._event_counter = telemetry.metrics.counter(
                "repro_fault_events_total",
                "Fault-plane events (faults, retries, hedges, breakers).",
            )
        self._event_counter.inc(process=self.process, event=name)

    def _breaker_event(
        self, site: Tuple[int, int], now_s: float, old: str, new: str
    ) -> None:
        key = {
            OPEN: "breaker_opens",
            HALF_OPEN: "breaker_half_opens",
            CLOSED: "breaker_closes",
        }[new]
        self.counters[key] += 1
        self.record_event(
            f"breaker-{new}",
            now_s,
            shard=site[0],
            replica=site[1],
            previous=old,
        )

    def observe_progress(self, now_s: float) -> None:
        """Emit begin/end instants for fault windows the clock passed.

        The scheduler calls this as its free-time clock advances, so the
        trace shows every scheduled window opening and closing at its
        own simulation timestamps even when no batch sampled it.
        """
        while (
            self._begin_cursor < len(self._begin_queue)
            and self._begin_queue[self._begin_cursor].start_s <= now_s
        ):
            event = self._begin_queue[self._begin_cursor]
            self._begin_cursor += 1
            self.record_event(
                "fault-begin",
                event.start_s,
                kind=event.kind,
                shard=event.shard,
                replica=event.replica,
                severity=event.severity,
            )
        while (
            self._end_cursor < len(self._end_queue)
            and self._end_queue[self._end_cursor].end_s <= now_s
        ):
            event = self._end_queue[self._end_cursor]
            self._end_cursor += 1
            self.record_event(
                "fault-end",
                event.end_s,
                kind=event.kind,
                shard=event.shard,
                replica=event.replica,
            )

    # -- reporting ------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Deterministic snapshot of the run's fault/recovery accounting."""
        return {
            "counters": dict(self.counters),
            "retries_used": self.retries_used,
            "recall_loss": self.recall_loss,
            "mttr_s": self.injector.mttr_s(),
            "breakers": {
                f"shard{site[0]}/replica{site[1]}": breaker.state
                for site, breaker in sorted(self.breakers.items())
            },
        }


def failed_query_result() -> QueryResult:
    """A fresh empty result standing in for a query the fleet dropped."""
    return QueryResult(
        items=[],
        candidate_count=0,
        cost=Cost(),
        ledger=Ledger(name="failed-query"),
        scores=[],
        failed=True,
    )


def failed_batch_result(num_queries: int, latency_s: float = 0.0) -> BatchResult:
    """A dropped batch: fresh failed results, occupancy ``latency_s``."""
    return BatchResult(
        results=[failed_query_result() for _ in range(num_queries)],
        cost=Cost(latency_ns=latency_s * 1e9),
    )


def _make_hook(ctx: FaultContext, shard: int, replica: int):
    """The failure hook planted on one leaf engine.

    Called by :meth:`~repro.core.pipeline._EngineBase.serve_batch` with
    the computed batch cost; raises :class:`FaultError` when the attempt
    lands in a crash/outage/error window, inflates latency inside a
    straggler window, and otherwise returns the cost object unchanged
    (the bit-identity fast path).
    """
    injector = ctx.injector

    def hook(cost: Cost, num_queries: int) -> Cost:
        now_s = ctx.attempt_time_s
        down = injector.down_at(shard, replica, now_s)
        if down is not None:
            raise FaultError(down.kind, (shard, replica), Cost(), down)
        error = injector.error_at(shard, replica, now_s)
        if error is not None:
            raise FaultError(ERROR, (shard, replica), cost, error)
        multiplier = injector.latency_multiplier(shard, replica, now_s)
        if multiplier != 1.0:
            return Cost(
                energy_pj=cost.energy_pj, latency_ns=cost.latency_ns * multiplier
            )
        return cost

    return hook


def attach_faults(fleet, ctx: Optional[FaultContext]) -> None:
    """Plant a fault context on every node of a fleet (None detaches).

    Routers get the context itself as ``_faults`` (a replica group also
    its shard index as ``_fault_site``); every engine gets the failure
    hook of its ``(shard, replica)`` site.  Sessions re-invoke this
    after every live scale event, because scaling builds a new fleet.
    """
    # Imported here: the router module imports this one.
    from repro.serving.shard import iter_engines

    for node, shard, replica in iter_engines(fleet):
        if replica is not None:
            node._fault_hook = None if ctx is None else _make_hook(ctx, shard, replica)
        else:
            node._faults = ctx
            if shard is not None:
                node._fault_site = shard
