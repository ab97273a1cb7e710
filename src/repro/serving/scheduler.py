"""Event-driven micro-batching schedulers with admission control.

The serving engine is a serial resource (one fabric, or one scatter-gather
shard group): it processes one micro-batch at a time.  The scheduler turns
a timestamped request stream into dispatched batches under the classic
two-knob admission policy:

* ``max_batch_size`` -- a batch dispatches immediately once full;
* ``max_wait_s`` -- a partial batch dispatches when its admission window
  expires (timer semantics: the window opens when the engine is free and
  the first request is waiting, and the scheduler holds the batch for the
  full window hoping for stragglers).

``max_wait_s = 0`` degenerates to pure backlog batching: whatever is
queued when the engine frees is dispatched at once -- the latency-optimal
setting at low load, the throughput-pessimal one under burst.

:class:`MicroBatchScheduler` keeps both knobs fixed.
:class:`AdaptiveMicroBatchScheduler` is the SLO-aware policy: it watches
the p95 of recently completed requests and retunes the knobs between
batches -- tightening the wait window and raising the batch cap when the
tail overshoots the target (drain the queue, amortise harder), and
relaxing the window back when there is latency headroom to spend on
batching efficiency.  Both knobs always stay inside the configured
bounds, so the fixed-policy admission invariants (batch size cap,
bounded hold time) survive adaptation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.clock import SimClock
from repro.serving.traffic import Request

__all__ = [
    "MicroBatchConfig",
    "AdaptiveBatchConfig",
    "Batch",
    "MicroBatchScheduler",
    "AdaptiveMicroBatchScheduler",
]


@dataclass(frozen=True)
class MicroBatchConfig:
    """Admission-control knobs of the micro-batching policy."""

    max_batch_size: int = 8
    max_wait_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(
                f"max batch size must be >= 1, got {self.max_batch_size}"
            )
        if not self.max_wait_s >= 0.0:
            raise ValueError(f"max wait must be non-negative, got {self.max_wait_s}")


@dataclass(frozen=True)
class AdaptiveBatchConfig:
    """Bounds and control law of the SLO-aware adaptive policy.

    The controller runs once every ``window`` dispatched batches: it
    compares the p95 of the engine-completion latencies observed in the
    window against ``target_p95_s``.  Overshoot multiplies the wait
    window by ``shrink`` and doubles the batch cap (drain mode);
    undershoot below ``relax_watermark * target`` multiplies the wait by
    ``grow`` and halves the cap back towards ``min_batch_size``
    (efficiency mode).  Knobs never leave their configured bounds.
    """

    target_p95_s: float
    window: int = 8
    min_batch_size: int = 1
    max_batch_size: int = 64
    min_wait_s: float = 0.0
    max_wait_s: float = 0.01
    shrink: float = 0.5
    grow: float = 2.0
    relax_watermark: float = 0.5

    def __post_init__(self) -> None:
        if not self.target_p95_s > 0.0:
            raise ValueError(f"target p95 must be positive, got {self.target_p95_s}")
        if self.window < 1:
            raise ValueError(f"control window must be >= 1, got {self.window}")
        if not 1 <= self.min_batch_size <= self.max_batch_size:
            raise ValueError(
                f"need 1 <= min_batch_size <= max_batch_size, got "
                f"[{self.min_batch_size}, {self.max_batch_size}]"
            )
        if not 0.0 <= self.min_wait_s <= self.max_wait_s:
            raise ValueError(
                f"need 0 <= min_wait_s <= max_wait_s, got "
                f"[{self.min_wait_s}, {self.max_wait_s}]"
            )
        if not 0.0 < self.shrink < 1.0:
            raise ValueError(f"shrink factor must be in (0, 1), got {self.shrink}")
        if not self.grow > 1.0:
            raise ValueError(f"grow factor must be > 1, got {self.grow}")
        if not 0.0 < self.relax_watermark < 1.0:
            raise ValueError(
                f"relax watermark must be in (0, 1), got {self.relax_watermark}"
            )


@dataclass
class Batch:
    """One dispatched micro-batch."""

    requests: List[Request]
    open_s: float  # when the admission window opened
    dispatch_s: float  # when the batch entered the engine
    #: Requests already arrived but not yet served at dispatch (batch
    #: members included) -- the backlog the telemetry plane reports.
    queue_depth: int = 0

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def queue_delays_s(self) -> List[float]:
        """Per-request time spent between arrival and dispatch."""
        return [self.dispatch_s - request.arrival_s for request in self.requests]


class MicroBatchScheduler:
    """Forms and dispatches micro-batches over a serial engine."""

    def __init__(self, config: Optional[MicroBatchConfig] = None):
        # A fresh default per instance: sharing one config object across
        # schedulers couples them the moment any policy retunes its knobs.
        self.config = config if config is not None else MicroBatchConfig()
        #: Optional :class:`repro.obs.Telemetry` the owning session plants
        #: so adaptive policies can annotate their retune decisions.
        self.telemetry = None
        #: Optional :class:`repro.serving.resilience.FaultContext` the
        #: owning session plants so the fault plane can emit its
        #: window-begin/end telemetry as the free-time clock advances.
        self.faults = None

    def _admission_limits(self) -> Tuple[int, float]:
        """(batch cap, wait window) in effect for the next batch."""
        return self.config.max_batch_size, self.config.max_wait_s

    def _observe(self, batch: Batch, service_s: float) -> None:
        """Hook for adaptive policies: one batch finished serving."""

    def run(
        self,
        requests: Sequence[Request],
        service: Callable[[Batch], float],
    ) -> List[Batch]:
        """Simulate the serving timeline.

        ``service(batch) -> seconds`` performs the batch (cache lookups +
        engine work, done by the session) and returns how long the engine
        is occupied; the scheduler advances its free-time clock by that
        amount.  Returns every dispatched batch in dispatch order.
        """
        ordered = sorted(requests, key=lambda request: request.arrival_s)
        arrivals = [request.arrival_s for request in ordered]
        batches: List[Batch] = []
        # The engine-free clock: SimClock.advance is one float addition,
        # so the timeline is bitwise the one the former bare-float
        # arithmetic produced.
        clock = SimClock()
        index = 0
        while index < len(ordered):
            batch_cap, wait_s = self._admission_limits()
            batch_start = index
            open_s = clock.latest(ordered[index].arrival_s)
            deadline = open_s + wait_s
            members = [ordered[index]]
            index += 1
            while (
                len(members) < batch_cap
                and index < len(ordered)
                and ordered[index].arrival_s <= deadline
            ):
                members.append(ordered[index])
                index += 1
            if len(members) == batch_cap:
                # Filled early: dispatch the moment the last member arrived
                # (or immediately, if they were all queued already).
                dispatch_s = max(open_s, members[-1].arrival_s)
            else:
                # Partial batch: the timer runs out the full window.
                dispatch_s = deadline
            # Backlog at dispatch: everything arrived by then and not yet
            # served, including this batch's own members.
            queue_depth = bisect_right(arrivals, dispatch_s) - batch_start
            batch = Batch(
                requests=members,
                open_s=open_s,
                dispatch_s=dispatch_s,
                queue_depth=queue_depth,
            )
            service_s = service(batch)
            if not service_s >= 0.0:
                raise ValueError(f"service time must be non-negative, got {service_s}")
            clock.advance_to(dispatch_s)
            clock.advance(service_s)
            batches.append(batch)
            if self.faults is not None:
                self.faults.observe_progress(clock.now_s)
            self._observe(batch, service_s)
        return batches


class AdaptiveMicroBatchScheduler(MicroBatchScheduler):
    """SLO-aware micro-batching: retunes the two knobs from the p95 gap.

    The scheduler cannot see end-to-end completions (cache hits finish
    early; the session owns that accounting), so the control signal is the
    *engine-completion* latency ``dispatch + service - arrival`` of every
    request in a batch -- a conservative upper bound on what any request
    in the batch experienced.
    """

    def __init__(self, config: AdaptiveBatchConfig):
        self.adaptive = config
        self._wait_s = min(
            max(config.target_p95_s / 4.0, config.min_wait_s), config.max_wait_s
        )
        self._batch_cap = min(max(8, config.min_batch_size), config.max_batch_size)
        self._window_latencies: List[float] = []
        self._batches_seen = 0
        #: One entry per control decision: the knob values it selected.
        self.knob_history: List[Dict[str, float]] = []
        super().__init__(self._snapshot())

    def _snapshot(self) -> MicroBatchConfig:
        return MicroBatchConfig(
            max_batch_size=self._batch_cap, max_wait_s=self._wait_s
        )

    def _admission_limits(self) -> Tuple[int, float]:
        return self._batch_cap, self._wait_s

    def _observe(self, batch: Batch, service_s: float) -> None:
        completion_s = batch.dispatch_s + service_s
        self._window_latencies.extend(
            completion_s - request.arrival_s for request in batch.requests
        )
        self._batches_seen += 1
        if self._batches_seen % self.adaptive.window == 0:
            self._adapt(now_s=completion_s)

    def _adapt(self, now_s: float = 0.0) -> None:
        config = self.adaptive
        p95_s = float(np.percentile(self._window_latencies, 95))
        self._window_latencies.clear()
        if p95_s > config.target_p95_s:
            # Overshoot: stop holding requests for stragglers and let the
            # engine amortise/pipeline over bigger batches to drain.
            self._wait_s = max(config.min_wait_s, self._wait_s * config.shrink)
            self._batch_cap = min(config.max_batch_size, self._batch_cap * 2)
        elif p95_s < config.relax_watermark * config.target_p95_s:
            # Headroom: spend some of it on batching efficiency.  The grown
            # window needs a floor so a zero wait can recover.
            grown = max(self._wait_s, 0.1 * config.target_p95_s / config.grow)
            self._wait_s = min(config.max_wait_s, grown * config.grow)
            self._batch_cap = max(config.min_batch_size, self._batch_cap // 2)
        self.config = self._snapshot()
        self.knob_history.append(
            {
                "p95_s": p95_s,
                "max_wait_s": self._wait_s,
                "max_batch_size": float(self._batch_cap),
            }
        )
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.tracer.instant(
                "batch-retune",
                now_s,
                p95_s=p95_s,
                target_p95_s=config.target_p95_s,
                max_wait_s=self._wait_s,
                max_batch_size=self._batch_cap,
            )
