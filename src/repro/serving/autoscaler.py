"""Closed-loop autoscaler: grow (shards, replicas) until the SLO holds.

The serving layer has two orthogonal scale-out axes with different
physics (and different energy bills):

* **shards** partition the corpus, cutting *per-query service latency*
  (each shard ranks a ~1/N slice with a ~1/N candidate budget);
* **replicas** duplicate a shard's engine, cutting *queueing* (each
  dispatch round splits across R copies, so occupancy per batch
  approaches 1/R).

Which axis a violated SLO needs depends on the traffic: an overloaded
deployment queues (add replicas), a lightly loaded one with a tight
latency contract is service-bound (add shards).  Rather than hard-coding
that diagnosis, the :class:`Autoscaler` closes the loop *empirically*:
from the current config it simulates both single-step scale-outs against
the same recorded traffic, keeps whichever one measures better, and
repeats until every tenant's p95 contract holds or the resource bounds
are hit.  Among every config it measured that meets the SLO, it reports
the one with the lowest energy per request -- the paper's currency --
so the loop answers "the cheapest deployment that honours the contract",
not merely "a big enough one".

Evaluations are memoized by config, and everything downstream of the
seeded traffic is deterministic, so a fixed-seed autoscaler run (its
step sequence and its chosen config) is exactly reproducible.

Online controllers
------------------
The closed loop above *replays* the traffic against each candidate
deployment -- fine for capacity planning, impossible in production,
where the stream happens once.  :class:`OnlineScaler` is the live
counterpart: attached to a :class:`~repro.serving.session.ServingSession`
it watches completed requests in windows, and when the windowed p95
overshoots the contract it scales out *mid-run* -- adding a replica when
queueing dominates the latency (requests wait for the engine), a shard
when service time does (the engine itself is too slow) -- paying the
state-migration bill through
:meth:`~repro.serving.session.ServingSession.scale_to` instead of
restarting.  Under sustained headroom it scales back in (replicas first:
dropping state is free, re-partitioning is not).
:class:`ScheduledScalePlan` drives the same mechanism from a fixed
timetable (pre-provisioning for a known flash crowd).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.serving.scheduler import Batch
from repro.serving.session import ServingResult
from repro.serving.slo import RequestRecord, SLOReport

__all__ = [
    "AutoscalerConfig",
    "ScaleStep",
    "AutoscaleResult",
    "Autoscaler",
    "OnlineScalerConfig",
    "OnlineScaler",
    "ScheduledScalePlan",
]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Contract and search bounds of one autoscaling run.

    ``p95_slo_ms`` is the global latency contract; ``tenant_slos_ms``
    optionally tightens it per tenant (checked against each tenant's own
    p95).  The loop may evaluate at most ``max_steps`` scale-out rounds
    of at most two candidate configs each.
    """

    p95_slo_ms: float
    tenant_slos_ms: Mapping[str, float] = field(default_factory=dict)
    min_shards: int = 1
    max_shards: int = 4
    min_replicas: int = 1
    max_replicas: int = 4
    max_steps: int = 6
    #: GPU spillover replicas per shard -- the heterogeneous third axis.
    #: ``max_spillover_replicas=0`` (the default) keeps the search on the
    #: homogeneous (shards, replicas) grid, ``evaluate`` is called with
    #: two arguments, and every ``config_key`` stays a 2-tuple, so
    #: existing homogeneous runs are byte-for-byte unchanged.
    min_spillover_replicas: int = 0
    max_spillover_replicas: int = 0

    def __post_init__(self) -> None:
        if not self.p95_slo_ms > 0.0:
            raise ValueError(f"p95 SLO must be positive, got {self.p95_slo_ms}")
        for tenant, slo_ms in self.tenant_slos_ms.items():
            if not slo_ms > 0.0:
                raise ValueError(
                    f"tenant {tenant!r} p95 SLO must be positive, got {slo_ms}"
                )
        if not 1 <= self.min_shards <= self.max_shards:
            raise ValueError(
                f"need 1 <= min_shards <= max_shards, got "
                f"[{self.min_shards}, {self.max_shards}]"
            )
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"[{self.min_replicas}, {self.max_replicas}]"
            )
        if not 0 <= self.min_spillover_replicas <= self.max_spillover_replicas:
            raise ValueError(
                f"need 0 <= min_spillover_replicas <= max_spillover_replicas, "
                f"got [{self.min_spillover_replicas}, "
                f"{self.max_spillover_replicas}]"
            )
        if self.max_steps < 1:
            raise ValueError(f"max steps must be >= 1, got {self.max_steps}")

    @property
    def heterogeneous(self) -> bool:
        """Whether the GPU spillover axis is part of the search space."""
        return self.max_spillover_replicas > 0


@dataclass(frozen=True)
class ScaleStep:
    """One evaluated deployment config and its measurements.

    ``spillover_replicas`` is the heterogeneous third axis (GPU spillover
    replicas per shard); it stays 0 on homogeneous searches, where
    ``config_key`` keeps its historical 2-tuple shape.
    """

    shards: int
    replicas: int
    report: SLOReport
    tenant_reports: Dict[str, SLOReport]
    meets_slo: bool
    violations: Tuple[str, ...]  # human-readable contract breaches
    spillover_replicas: int = 0

    @property
    def config_key(self) -> Tuple[int, ...]:
        """(shards, replicas) -- extended by spillover only when present.

        A homogeneous step keeps the 2-tuple key so pinned homogeneous
        trajectories (and their memo keys) are unchanged; a heterogeneous
        step carries the GPU axis.  Mixed tuples still compare cleanly:
        ``(s, r) < (s, r, k)`` for any ``k >= 1``, i.e. ties on the IMC
        axes prefer the fleet with no GPUs.
        """
        if self.spillover_replicas:
            return (self.shards, self.replicas, self.spillover_replicas)
        return (self.shards, self.replicas)


@dataclass
class AutoscaleResult:
    """The full trajectory of one closed-loop run."""

    steps: List[ScaleStep]
    best: ScaleStep
    converged: bool

    @property
    def chosen(self) -> Tuple[int, ...]:
        """The deployment the loop settled on.

        A 2-tuple ``(shards, replicas)`` for homogeneous fleets, a
        3-tuple ``(shards, replicas, spillover_replicas)`` when the
        chosen step fields GPU spillover replicas.
        """
        return self.best.config_key

    def format(self) -> str:
        lines = []
        for step in self.steps:
            marker = "ok " if step.meets_slo else "VIOL"
            spill = (
                f" spillover={step.spillover_replicas}"
                if step.spillover_replicas
                else ""
            )
            lines.append(
                f"  [{marker}] shards={step.shards} replicas={step.replicas}"
                f"{spill} p95={step.report.p95_ms:8.3f}ms "
                f"E/req={step.report.energy_per_request_uj:10.4f}uJ"
            )
        state = "converged" if self.converged else "exhausted bounds"
        chosen = f"shards={self.best.shards} replicas={self.best.replicas}"
        if self.best.spillover_replicas:
            chosen += f" spillover={self.best.spillover_replicas}"
        lines.append(f"  -> {state}: {chosen}")
        return "\n".join(lines)


class Autoscaler:
    """Greedy coordinate scale-out, closed over simulated measurements.

    ``evaluate(shards, replicas)`` must return the
    :class:`~repro.serving.session.ServingResult` of serving the *same*
    request stream on that deployment (the experiment builds the engine,
    session, cache and scheduler; the autoscaler only reads SLO reports).

    With ``config.max_spillover_replicas > 0`` the search runs over the
    heterogeneous ``(shards, replicas, spillover_replicas)`` grid and
    ``evaluate`` is called with three arguments instead; placement stays
    energy-aware -- among SLO-feasible deployments the minimum
    energy-per-request wins, so the loop only fields GPU spillover
    replicas (an order of magnitude hungrier per query than the IMC
    fabric) when the homogeneous axes cannot meet the contract.
    """

    def __init__(
        self,
        evaluate: Callable[..., ServingResult],
        config: AutoscalerConfig,
    ):
        self.evaluate = evaluate
        self.config = config
        self._memo: Dict[Tuple[int, int, int], ScaleStep] = {}

    def _measure(self, shards: int, replicas: int, spillover: int = 0) -> ScaleStep:
        key = (shards, replicas, spillover)
        if key in self._memo:
            return self._memo[key]
        if self.config.heterogeneous:
            result = self.evaluate(shards, replicas, spillover)
        else:
            result = self.evaluate(shards, replicas)
        report = result.report
        tenant_reports = result.tenant_reports
        violations: List[str] = []
        if report.p95_ms > self.config.p95_slo_ms:
            violations.append(
                f"global p95 {report.p95_ms:.3f}ms > {self.config.p95_slo_ms:.3f}ms"
            )
        for tenant, slo_ms in sorted(self.config.tenant_slos_ms.items()):
            tenant_report = tenant_reports.get(tenant)
            if tenant_report is None:
                violations.append(f"tenant {tenant!r} sent no traffic")
            elif tenant_report.p95_ms > slo_ms:
                violations.append(
                    f"tenant {tenant!r} p95 {tenant_report.p95_ms:.3f}ms "
                    f"> {slo_ms:.3f}ms"
                )
        step = ScaleStep(
            shards=shards,
            replicas=replicas,
            report=report,
            tenant_reports=tenant_reports,
            meets_slo=not violations,
            violations=tuple(violations),
            spillover_replicas=spillover,
        )
        self._memo[key] = step
        return step

    def _candidates(
        self, shards: int, replicas: int, spillover: int
    ) -> List[Tuple[int, int, int]]:
        """The single-step scale-outs from the current config, in bounds."""
        moves = []
        if shards < self.config.max_shards:
            moves.append((shards + 1, replicas, spillover))
        if replicas < self.config.max_replicas:
            moves.append((shards, replicas + 1, spillover))
        if spillover < self.config.max_spillover_replicas:
            moves.append((shards, replicas, spillover + 1))
        return moves

    def run(self) -> AutoscaleResult:
        """Close the loop: measure, scale out along the better axis, repeat."""
        current = self._measure(
            self.config.min_shards,
            self.config.min_replicas,
            self.config.min_spillover_replicas,
        )
        steps = [current]
        for _ in range(self.config.max_steps):
            if current.meets_slo:
                break
            moves = self._candidates(
                current.shards, current.replicas, current.spillover_replicas
            )
            if not moves:
                break  # bounds exhausted while still violating
            measured = [self._measure(*move) for move in moves]
            steps.extend(measured)
            feasible = [step for step in measured if step.meets_slo]
            if feasible:
                # Both axes may satisfy the contract: take the cheaper one.
                current = min(
                    feasible,
                    key=lambda step: (
                        step.report.energy_per_request_uj,
                        step.config_key,
                    ),
                )
            else:
                # Neither does yet: follow the axis that helped the tail more.
                current = min(
                    measured,
                    key=lambda step: (step.report.p95_ms, step.config_key),
                )
        feasible_steps = [step for step in steps if step.meets_slo]
        if feasible_steps:
            best = min(
                feasible_steps,
                key=lambda step: (
                    step.report.energy_per_request_uj,
                    step.config_key,
                ),
            )
        else:
            best = min(
                steps, key=lambda step: (step.report.p95_ms, step.config_key)
            )
        return AutoscaleResult(
            steps=steps, best=best, converged=bool(feasible_steps)
        )


@dataclass(frozen=True)
class OnlineScalerConfig:
    """Contract, bounds and control law of one live scaling controller.

    A control decision fires once every ``window`` completed (served)
    requests, then the controller holds for ``cooldown`` further
    completions so the previous event's effect is measured, not guessed.
    Overshoot of ``p95_target_s`` scales out along the axis the window's
    evidence blames (queueing -> replicas, service -> shards); a p95
    under ``relax_watermark * target`` scales back in, replicas first.
    """

    p95_target_s: float
    window: int = 24
    cooldown: int = 24
    min_shards: int = 1
    max_shards: int = 4
    min_replicas: int = 1
    max_replicas: int = 4
    relax_watermark: float = 0.3

    def __post_init__(self) -> None:
        if not self.p95_target_s > 0.0:
            raise ValueError(
                f"p95 target must be positive, got {self.p95_target_s}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if not 1 <= self.min_shards <= self.max_shards:
            raise ValueError(
                f"need 1 <= min_shards <= max_shards, got "
                f"[{self.min_shards}, {self.max_shards}]"
            )
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"[{self.min_replicas}, {self.max_replicas}]"
            )
        if not 0.0 < self.relax_watermark < 1.0:
            raise ValueError(
                f"relax watermark must be in (0, 1), got {self.relax_watermark}"
            )


class OnlineScaler:
    """Reactive mid-run scale controller for a :class:`ServingSession`.

    The session calls :meth:`observe` after every dispatched batch with
    the batch, its engine occupancy and the records it produced; the
    return value (None or a new (shards, replicas)) feeds
    :meth:`~repro.serving.session.ServingSession.scale_to`.  Everything
    is driven by observed completions, so a seeded session replays the
    same scale events at the same dispatch clocks.
    """

    def __init__(self, config: OnlineScalerConfig):
        self.config = config
        self._latencies: List[float] = []
        self._queue_s = 0.0
        self._service_s = 0.0
        self._hold = 0
        #: One entry per decision: (time_s, p95_s, old, new).
        self.decisions: List[Tuple[float, float, Tuple[int, int], Tuple[int, int]]] = []

    def _scale_out(
        self, current: Tuple[int, int], queue_bound: bool
    ) -> Optional[Tuple[int, int]]:
        shards, replicas = current
        prefer_replica = queue_bound and replicas < self.config.max_replicas
        if prefer_replica:
            return (shards, replicas + 1)
        if shards < self.config.max_shards:
            return (shards + 1, replicas)
        if replicas < self.config.max_replicas:
            return (shards, replicas + 1)
        return None  # at the ceiling: admission control's problem now

    def _scale_in(self, current: Tuple[int, int]) -> Optional[Tuple[int, int]]:
        shards, replicas = current
        if replicas > self.config.min_replicas:
            return (shards, replicas - 1)  # dropping replica state is free
        if shards > self.config.min_shards:
            return (shards - 1, replicas)
        return None

    def observe(
        self,
        batch: Batch,
        occupancy_s: float,
        records: Sequence[RequestRecord],
        current: Tuple[int, int],
    ) -> Optional[Tuple[int, int]]:
        """Fold one batch's evidence; maybe return a new deployment."""
        served = [record for record in records if not record.shed]
        self._latencies.extend(record.latency_s for record in served)
        self._queue_s += sum(
            batch.dispatch_s - record.request.arrival_s for record in served
        )
        self._service_s += occupancy_s * len(served)
        if self._hold > 0:
            self._hold = max(0, self._hold - len(served))
            if self._hold > 0:
                return None
            self._reset_window()
            return None
        if len(self._latencies) < self.config.window:
            return None
        p95_s = float(np.percentile(self._latencies, 95))
        queue_bound = self._queue_s > self._service_s
        decision: Optional[Tuple[int, int]] = None
        if p95_s > self.config.p95_target_s:
            decision = self._scale_out(current, queue_bound)
        elif p95_s < self.config.relax_watermark * self.config.p95_target_s:
            decision = self._scale_in(current)
        self._reset_window()
        if decision is not None:
            end_s = batch.dispatch_s + occupancy_s
            self.decisions.append((end_s, p95_s, tuple(current), decision))
            self._hold = self.config.cooldown
        return decision

    def _reset_window(self) -> None:
        self._latencies.clear()
        self._queue_s = 0.0
        self._service_s = 0.0


class ScheduledScalePlan:
    """A fixed timetable of deployments, fired by the dispatch clock.

    ``events`` is a sequence of ``(time_s, (shards, replicas))`` pairs;
    each fires at the first batch dispatched at or after its time (the
    pre-provisioning pattern: grow *before* the advertised flash crowd,
    shrink after it).  Implements the same ``observe`` protocol as
    :class:`OnlineScaler`.

    Edge cases are pinned down so forecast-built plans compose safely:
    an *empty* plan is legal and is a no-op (a session driven by it is
    bit-identical to one with no scaler at all -- the shape a forecaster
    that found nothing to do emits); out-of-order events are sorted by
    time with a *stable* sort, so duplicate timestamps keep their
    listing order deterministically, and when several events are due at
    one dispatch the last-listed deployment wins.
    """

    def __init__(self, events: Sequence[Tuple[float, Tuple[int, int]]]):
        self.events = sorted(
            ((float(time_s), (int(s), int(r))) for time_s, (s, r) in events),
            key=lambda event: event[0],
        )
        for time_s, (shards, replicas) in self.events:
            if not time_s >= 0.0:
                raise ValueError(f"event time must be non-negative, got {time_s}")
            if shards < 1 or replicas < 1:
                raise ValueError(
                    f"deployment axes must be >= 1, got ({shards}, {replicas})"
                )
        self._next = 0

    def observe(
        self,
        batch: Batch,
        occupancy_s: float,
        records: Sequence[RequestRecord],
        current: Tuple[int, int],
    ) -> Optional[Tuple[int, int]]:
        """Fire every due event; the latest due deployment wins."""
        decision: Optional[Tuple[int, int]] = None
        while (
            self._next < len(self.events)
            and self.events[self._next][0] <= batch.dispatch_s
        ):
            decision = self.events[self._next][1]
            self._next += 1
        return decision
