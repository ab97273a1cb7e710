"""Closed-loop autoscaler: grow (shards, replicas, spillover) until the SLO holds.

The serving layer has three scale-out axes with different physics (and
different energy bills):

* **shards** partition the corpus, cutting *per-query service latency*
  (each shard ranks a ~1/N slice with a ~1/N candidate budget);
* **replicas** duplicate a shard's engine, cutting *queueing* (each
  dispatch round splits across R copies, so occupancy per batch
  approaches 1/R);
* **spillover replicas** add GPU engines beside each shard's IMC
  primaries: fast on deep backlogs, but an order of magnitude hungrier
  per query (bounded to 0 unless the operator allows them).

Which axis a violated SLO needs depends on the traffic: an overloaded
deployment queues (add replicas), a lightly loaded one with a tight
latency contract is service-bound (add shards).  Rather than hard-coding
that diagnosis, the :class:`Autoscaler` closes the loop *empirically*:
from the current config it simulates every single-step scale-out against
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

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.serving.scheduler import Batch
from repro.serving.session import ServingResult
from repro.serving.slo import RequestRecord, SLOReport, format_or_dash

__all__ = [
    "AutoscalerConfig",
    "ScaleStep",
    "AutoscaleResult",
    "Autoscaler",
    "OnlineScalerConfig",
    "OnlineScaler",
    "ScheduledScalePlan",
]


def deployment_axes(deployment: Sequence[int]) -> Tuple[int, int]:
    """``(shards, replicas)`` as ints; raises unless both are whole and >= 1."""
    shards, replicas = deployment
    for axis in (shards, replicas):
        if not (float(axis).is_integer() and axis >= 1):
            raise ValueError(
                f"deployment axes must be whole numbers >= 1, got {tuple(deployment)}"
            )
    return int(shards), int(replicas)


@dataclass(frozen=True)
class AutoscalerConfig:
    """Contract and search bounds of one autoscaling run.

    ``p95_slo_ms`` is the global latency contract; ``tenant_slos_ms``
    optionally tightens it per tenant (checked against each tenant's own
    p95).  The search starts from one shard, one replica and no GPU
    spillover, and may evaluate at most ``max_steps`` scale-out rounds
    of at most three candidate configs each.
    """

    p95_slo_ms: float
    tenant_slos_ms: Mapping[str, float] = field(default_factory=dict)
    max_shards: int = 4
    max_replicas: int = 4
    max_steps: int = 6
    #: GPU spillover replicas per shard -- the heterogeneous third axis.
    #: The default 0 keeps every evaluated deployment IMC-only.
    max_spillover_replicas: int = 0

    def __post_init__(self) -> None:
        if not self.p95_slo_ms > 0.0:
            raise ValueError(f"p95 SLO must be positive, got {self.p95_slo_ms}")
        for tenant, slo_ms in self.tenant_slos_ms.items():
            if not slo_ms > 0.0:
                raise ValueError(
                    f"tenant {tenant!r} p95 SLO must be positive, got {slo_ms}"
                )
        if not self.max_shards >= 1:
            raise ValueError(f"max shards must be >= 1, got {self.max_shards}")
        if not self.max_replicas >= 1:
            raise ValueError(f"max replicas must be >= 1, got {self.max_replicas}")
        if not self.max_spillover_replicas >= 0:
            raise ValueError(
                f"max spillover replicas must be >= 0, got "
                f"{self.max_spillover_replicas}"
            )
        if not self.max_steps >= 1:
            raise ValueError(f"max steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class ScaleStep:
    """One evaluated deployment config and its measurements."""

    shards: int
    replicas: int
    spillover_replicas: int  # GPU spillover replicas per shard
    report: SLOReport
    tenant_reports: Dict[str, SLOReport]
    meets_slo: bool
    violations: Tuple[str, ...]  # human-readable contract breaches

    @property
    def config_key(self) -> Tuple[int, int, int]:
        """(shards, replicas, spillover_replicas).

        Ties on the IMC axes sort the fleet with fewer GPUs first.
        """
        return (self.shards, self.replicas, self.spillover_replicas)

    def describe(self) -> str:
        """``shards=S replicas=R``, plus ``spillover=K`` when it fields GPUs."""
        spill = f" spillover={self.spillover_replicas}" if self.spillover_replicas else ""
        return f"shards={self.shards} replicas={self.replicas}{spill}"


@dataclass
class AutoscaleResult:
    """The full trajectory of one closed-loop run."""

    steps: List[ScaleStep]
    best: ScaleStep
    converged: bool

    @property
    def chosen(self) -> Tuple[int, int, int]:
        """The deployment the loop settled on: (shards, replicas, spillover)."""
        return self.best.config_key

    def format(self) -> str:
        lines = []
        for step in self.steps:
            marker = "ok " if step.meets_slo else "VIOL"
            lines.append(
                f"  [{marker}] {step.describe()} "
                f"p95={format_or_dash(step.report.p95_ms, '8.3f')}ms "
                f"E/req={format_or_dash(step.report.energy_per_request_uj, '10.4f')}uJ"
            )
        state = "converged" if self.converged else "exhausted bounds"
        lines.append(f"  -> {state}: {self.best.describe()}")
        return "\n".join(lines)


def _pick(steps: Sequence[ScaleStep]) -> ScaleStep:
    """The min-energy SLO-feasible step, else the lowest-p95 one.

    Ties break on the smaller config.  A step that answered nothing
    (NaN p95) ranks below every step that answered something.
    """
    feasible = [step for step in steps if step.meets_slo]
    if feasible:
        return min(
            feasible,
            key=lambda step: (step.report.energy_per_request_uj, step.config_key),
        )
    return min(
        steps,
        key=lambda step: (
            math.inf if math.isnan(step.report.p95_ms) else step.report.p95_ms,
            step.config_key,
        ),
    )


class Autoscaler:
    """Greedy coordinate scale-out, closed over simulated measurements.

    ``evaluate(shards, replicas, spillover_replicas)`` must return the
    :class:`~repro.serving.session.ServingResult` of serving the *same*
    request stream on that deployment (the experiment builds the engine,
    session, cache and scheduler; the autoscaler only reads SLO reports).

    The search starts from ``(1, 1, 0)``.  Placement is energy-aware:
    among SLO-feasible deployments the minimum energy-per-request wins,
    so the loop only fields GPU spillover replicas (an order of
    magnitude hungrier per query than the IMC fabric) when the IMC axes
    cannot meet the contract.  A deployment that answered no request
    (all shed or failed) violates the contract.
    """

    def __init__(
        self,
        evaluate: Callable[[int, int, int], ServingResult],
        config: AutoscalerConfig,
    ):
        self.evaluate = evaluate
        self.config = config
        self._memo: Dict[Tuple[int, int, int], ScaleStep] = {}

    def _measure(self, shards: int, replicas: int, spillover: int) -> ScaleStep:
        key = (shards, replicas, spillover)
        if key in self._memo:
            return self._memo[key]
        result = self.evaluate(shards, replicas, spillover)
        checks = [("global", result.report, self.config.p95_slo_ms)] + [
            (f"tenant {tenant!r}", result.tenant_reports.get(tenant), slo_ms)
            for tenant, slo_ms in sorted(self.config.tenant_slos_ms.items())
        ]
        violations: List[str] = []
        for name, report, slo_ms in checks:
            if report is None:
                violations.append(f"{name} sent no traffic")
            elif math.isnan(report.p95_ms):
                violations.append(f"{name} answered no request")
            elif report.p95_ms > slo_ms:
                violations.append(
                    f"{name} p95 {report.p95_ms:.3f}ms > {slo_ms:.3f}ms"
                )
        step = ScaleStep(
            shards=shards,
            replicas=replicas,
            spillover_replicas=spillover,
            report=result.report,
            tenant_reports=result.tenant_reports,
            meets_slo=not violations,
            violations=tuple(violations),
        )
        self._memo[key] = step
        return step

    def _candidates(self, step: ScaleStep) -> List[Tuple[int, int, int]]:
        """The single-step scale-outs from ``step``'s config, in bounds."""
        shards, replicas, spillover = step.config_key
        moves = []
        if shards < self.config.max_shards:
            moves.append((shards + 1, replicas, spillover))
        if replicas < self.config.max_replicas:
            moves.append((shards, replicas + 1, spillover))
        if spillover < self.config.max_spillover_replicas:
            moves.append((shards, replicas, spillover + 1))
        return moves

    def run(self) -> AutoscaleResult:
        """Close the loop: measure, scale out along the better axis, repeat.

        Each round measures every single-step scale-out and moves to the
        cheapest one that meets the SLO, else to the one that helped the
        tail most.
        """
        current = self._measure(1, 1, 0)
        steps = [current]
        for _ in range(self.config.max_steps):
            if current.meets_slo:
                break
            moves = self._candidates(current)
            if not moves:
                break  # bounds exhausted while still violating
            measured = [self._measure(*move) for move in moves]
            steps.extend(measured)
            current = _pick(measured)
        best = _pick(steps)
        return AutoscaleResult(steps=steps, best=best, converged=best.meets_slo)


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
    max_shards: int = 4
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
        if not self.max_shards >= 1:
            raise ValueError(f"max shards must be >= 1, got {self.max_shards}")
        if not self.max_replicas >= 1:
            raise ValueError(f"max replicas must be >= 1, got {self.max_replicas}")
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
        if replicas > 1:
            return (shards, replicas - 1)  # dropping replica state is free
        if shards > 1:
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
            ((float(time_s), deployment_axes(deployment)) for time_s, deployment in events),
            key=lambda event: event[0],
        )
        for time_s, _ in self.events:
            if not time_s >= 0.0:
                raise ValueError(f"event time must be non-negative, got {time_s}")
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
