"""SLO-guarded admission control: shed or degrade before the queue does.

Scale-out has a ceiling: once the deployment is at its maximum (shards,
replicas) and the offered load still exceeds what honours the latency
contract, *every* request queueing politely means *every* request
missing its SLO.  The production answer is admission control at the
front door, decided per request at dispatch time from the latency budget
it has already burned:

* **accept** -- the projected completion (time already queued plus the
  engine's expected service time) fits the tenant's p95 budget;
* **degrade** -- the projection eats past ``degrade_watermark`` of the
  budget: the request is still served, but with a reduced top-k
  (``degraded_top_k``), trimming the answer rather than the user;
* **shed** -- the projection overruns ``shed_watermark`` of the budget:
  serving it would both miss its own contract and grow the queue for
  everyone behind it, so it is rejected immediately (the
  fail-fast / load-shedding discipline).

Decisions are free of hardware cost: the controller reads the dispatch
clock and the engine's occupancy EWMA
(:attr:`~repro.core.pipeline._EngineBase.expected_query_latency_s`),
both of which the serving session already tracks.  Before the engine has
served anything there is no evidence of overload, so everything is
accepted -- admission control reacts to measurements, never to priors.

Shed and degraded volumes are first-class outcomes: they flow into
:class:`~repro.serving.slo.SLOReport` (``shed_count`` /
``degraded_count`` and the matching rates), because a deployment that
"meets its p95" by rejecting a third of its traffic must say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.serving.traffic import Request

__all__ = [
    "ACCEPT",
    "DEGRADE",
    "SHED",
    "AdmissionConfig",
    "AdmissionController",
]

#: Admission outcomes (strings so records/reports stay plain data).
ACCEPT = "accept"
DEGRADE = "degrade"
SHED = "shed"


@dataclass(frozen=True)
class AdmissionConfig:
    """Contract and watermarks of one admission controller.

    ``slo_ms`` is the default per-request latency budget;
    ``tenant_slos_ms`` overrides it per tenant.  A request projected to
    finish inside ``degrade_watermark`` of its budget is accepted
    untouched; inside ``shed_watermark`` it is degraded to
    ``degraded_top_k`` results; beyond that it is shed.
    """

    slo_ms: float
    tenant_slos_ms: Mapping[str, float] = field(default_factory=dict)
    degrade_watermark: float = 0.6
    shed_watermark: float = 1.0
    degraded_top_k: int = 3

    def __post_init__(self) -> None:
        if not self.slo_ms > 0.0:
            raise ValueError(f"SLO must be positive, got {self.slo_ms}")
        for tenant, slo_ms in self.tenant_slos_ms.items():
            if not slo_ms > 0.0:
                raise ValueError(
                    f"tenant {tenant!r} SLO must be positive, got {slo_ms}"
                )
        if not 0.0 < self.degrade_watermark <= self.shed_watermark:
            raise ValueError(
                f"need 0 < degrade_watermark <= shed_watermark, got "
                f"({self.degrade_watermark}, {self.shed_watermark})"
            )
        if self.degraded_top_k < 1:
            raise ValueError(
                f"degraded top-k must be >= 1, got {self.degraded_top_k}"
            )

    def budget_ms(self, tenant: str) -> float:
        """The latency budget ``tenant``'s requests are held to."""
        return self.tenant_slos_ms.get(tenant, self.slo_ms)


class AdmissionController:
    """Per-request accept/degrade/shed decisions against SLO budgets."""

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self.accepted = 0
        self.degraded = 0
        self.shed = 0
        #: Per-tenant outcome counts, e.g. ``by_tenant["movielens"]["shed"]``.
        self.by_tenant: Dict[str, Dict[str, int]] = {}

    def _count(self, tenant: str, outcome: str) -> None:
        bucket = self.by_tenant.setdefault(
            tenant, {ACCEPT: 0, DEGRADE: 0, SHED: 0}
        )
        bucket[outcome] += 1
        if outcome == ACCEPT:
            self.accepted += 1
        elif outcome == DEGRADE:
            self.degraded += 1
        else:
            self.shed += 1

    def decide(
        self,
        request: Request,
        dispatch_s: float,
        expected_service_s: Optional[float],
    ) -> str:
        """One request's outcome at dispatch time.

        ``expected_service_s`` is the engine's occupancy estimate (None
        before any serve: accept -- there is no overload evidence yet).
        The projection is conservative for cache hits, which complete
        faster than the engine estimate; a hot query may be degraded
        when it would have made it.  That bias is the safe direction
        under overload.
        """
        if dispatch_s < request.arrival_s:
            raise ValueError("dispatch cannot precede arrival")
        if expected_service_s is None:
            self._count(request.tenant, ACCEPT)
            return ACCEPT
        budget_ms = self.config.budget_ms(request.tenant)
        projected_ms = (
            (dispatch_s - request.arrival_s) + expected_service_s
        ) * 1e3
        if projected_ms > self.config.shed_watermark * budget_ms:
            outcome = SHED
        elif projected_ms > self.config.degrade_watermark * budget_ms:
            outcome = DEGRADE
        else:
            outcome = ACCEPT
        self._count(request.tenant, outcome)
        return outcome

    def stats(self) -> Dict[str, object]:
        """Counters snapshot for reports."""
        total = self.accepted + self.degraded + self.shed
        return {
            "decisions": total,
            "accepted": self.accepted,
            "degraded": self.degraded,
            "shed": self.shed,
            "shed_rate": self.shed / total if total else 0.0,
            "by_tenant": {
                tenant: dict(bucket) for tenant, bucket in self.by_tenant.items()
            },
        }
