"""Serving SLO metrics: latency percentiles, throughput, energy/request.

The paper's metric is 1/latency at batch 1; a live service is judged on
its *tail*: the p95/p99 latency experienced under queueing, batching and
bursty arrivals, the sustained throughput over the run, and (for an
in-memory accelerator whose selling point is efficiency) the energy spent
per request -- including the cache and merge traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.energy.accounting import Cost, Ledger
from repro.serving.traffic import Request

__all__ = [
    "RequestRecord",
    "SLOReport",
    "summarize",
    "summarize_tenants",
    "slo_violation_windows",
]


@dataclass(frozen=True)
class RequestRecord:
    """One request's journey through the serving stack.

    ``shed`` marks a request the admission controller rejected at the
    front door (``completion_s`` is the rejection time; no items were
    served); ``degraded`` marks one served with a reduced top-k to
    protect the SLO (or, under fault injection, a partial scatter-gather
    merged from the surviving shards); ``failed`` marks one the fleet
    accepted but could not answer -- every serving attempt exhausted
    under fault injection (``completion_s`` is when the failure was
    final).
    """

    request: Request
    completion_s: float
    batch_size: int
    cache_hit: bool
    items: Tuple[int, ...]
    shed: bool = False
    degraded: bool = False
    failed: bool = False

    def __post_init__(self) -> None:
        if self.completion_s < self.request.arrival_s:
            raise ValueError("completion cannot precede arrival")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.shed and self.items:
            raise ValueError("a shed request cannot carry served items")
        if self.failed and self.items:
            raise ValueError("a failed request cannot carry served items")
        if self.failed and self.shed:
            raise ValueError("a request is either shed (front door) or "
                             "failed (serve path), not both")

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to completion (queueing included)."""
        return self.completion_s - self.request.arrival_s


def format_or_dash(value: float, spec: str) -> str:
    """``value`` in ``spec``, or a dash of the same width when NaN.

    A NaN column (nothing answered) renders as a dash, not as a literal
    "nan" pretending to be a measurement.
    """
    width = spec.split(".")[0]
    return f"{'-':>{width}s}" if np.isnan(value) else f"{value:{spec}}"


@dataclass(frozen=True)
class SLOReport:
    """Aggregate serving metrics of one simulated session.

    Latency percentiles and ``energy_per_request_uj`` are NaN when the
    session answered nothing (all shed / all failed): there is no tail
    to report, and 0.0 would read as a perfect one.  ``format_row``
    renders those NaNs as ``-``.
    """

    label: str
    num_requests: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    offered_qps: float
    sustained_qps: float
    energy_per_request_uj: float
    cache_hit_rate: float
    mean_batch_size: float
    shed_count: int = 0
    degraded_count: int = 0
    #: Requests the fleet accepted but could not answer (fault injection).
    failed_count: int = 0
    #: Mean time to recover of the run's fault plan (None = no downtime
    #: was scheduled -- the healthy-fleet dash in reports).
    mttr_s: Optional[float] = None
    #: Total dollars billed to the session's price ledger (None = the
    #: session ran without a price book -- energy-only accounting).
    dollars_total: Optional[float] = None

    @property
    def served_count(self) -> int:
        """Requests that entered the serve path (not shed at the door)."""
        return self.num_requests - self.shed_count

    @property
    def answered_count(self) -> int:
        """Requests that actually received recommendations."""
        return self.served_count - self.failed_count

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests rejected at the front door."""
        return self.shed_count / self.num_requests if self.num_requests else 0.0

    @property
    def degraded_rate(self) -> float:
        """Fraction of *served* requests answered with a reduced top-k."""
        return self.degraded_count / self.served_count if self.served_count else 0.0

    @property
    def availability(self) -> float:
        """Fraction of accepted requests that received an answer.

        Shed requests are an explicit admission policy, not a failure,
        so they count against neither numerator nor denominator; a
        zero-fault run reports 1.0.
        """
        if not self.served_count:
            return 1.0
        return 1.0 - self.failed_count / self.served_count

    @property
    def error_rate(self) -> float:
        """Fraction of accepted requests the fleet failed to answer."""
        if not self.served_count:
            return 0.0
        return self.failed_count / self.served_count

    @property
    def dollars_per_1k_requests(self) -> Optional[float]:
        """Dollar cost per thousand answered requests (None = unpriced,
        NaN = priced but nothing was answered)."""
        if self.dollars_total is None:
            return None
        if not self.answered_count:
            return float("nan")
        return 1e3 * self.dollars_total / self.answered_count

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_requests": self.num_requests,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "offered_qps": self.offered_qps,
            "sustained_qps": self.sustained_qps,
            "energy_per_request_uj": self.energy_per_request_uj,
            "cache_hit_rate": self.cache_hit_rate,
            "mean_batch_size": self.mean_batch_size,
            "shed_count": self.shed_count,
            "degraded_count": self.degraded_count,
            "failed_count": self.failed_count,
            "availability": self.availability,
            "error_rate": self.error_rate,
            "mttr_s": self.mttr_s,
            "dollars_total": self.dollars_total,
        }

    def format_row(self) -> str:
        mttr = f"{self.mttr_s * 1e3:.1f}ms" if self.mttr_s is not None else "-"
        row = (
            f"  {self.label:<28s} p50={format_or_dash(self.p50_ms, '8.3f')}ms "
            f"p95={format_or_dash(self.p95_ms, '8.3f')}ms "
            f"p99={format_or_dash(self.p99_ms, '8.3f')}ms qps={self.sustained_qps:9.1f} "
            f"E/req={format_or_dash(self.energy_per_request_uj, '10.4f')}uJ "
            f"hit={self.cache_hit_rate * 100.0:5.1f}% "
            f"batch={self.mean_batch_size:4.1f} "
            f"avail={self.availability * 100.0:6.2f}% "
            f"err={self.error_rate * 100.0:5.2f}% "
            f"mttr={mttr}"
        )
        if self.dollars_total is not None:
            row += f" $={self.dollars_total:9.6f}"
        if self.shed_count or self.degraded_count:
            row += (
                f" shed={self.shed_count}({self.shed_rate * 100.0:.1f}%)"
                f" deg={self.degraded_count}({self.degraded_rate * 100.0:.1f}%)"
            )
        return row


def summarize(
    records: Sequence[RequestRecord],
    ledger: Ledger,
    label: str = "session",
    mttr_s: Optional[float] = None,
    price_ledger=None,
) -> SLOReport:
    """Fold per-request records + the session ledger into an SLO report.

    Latency percentiles, cache hit rate, batch sizes and the energy
    denominator cover *answered* requests only: a shed request received
    no recommendations, and letting its (tiny) time-to-rejection into
    the tail would reward shedding with better percentiles; a failed
    request likewise received nothing, so its (timeout-bound) latency
    belongs in the availability column, not the tail.  Shed and failed
    volumes are reported separately (``shed_count`` / ``failed_count`` /
    ``availability``); sustained QPS is goodput (answered requests over
    the makespan).  ``mttr_s`` is the run's fault-plan mean time to
    recover (None for a healthy fleet).

    A session where everything was shed or failed has no latency tail
    and no energy denominator: the percentile and energy-per-request
    columns report NaN (rendered as ``-`` by
    :meth:`SLOReport.format_row`), never a fabricated 0.0.  Degenerate
    time bases are handled the same way: when every arrival shares one
    timestamp (``span_s == 0``) the offered rate reports 0.0 rather
    than infinity -- one instant of traffic does not define a rate.

    ``price_ledger`` (a :class:`~repro.serving.pricing.PriceLedger`)
    joins the dollar plane in: its total lands in ``dollars_total`` and
    the per-1k-requests derivation, next to the energy columns.
    """
    if not records:
        raise ValueError("cannot summarise an empty session")
    served = [record for record in records if not record.shed]
    answered = [record for record in served if not record.failed]
    latencies_ms = (
        np.array([record.latency_s * 1e3 for record in answered])
        if answered
        else None
    )
    arrivals = np.array([record.request.arrival_s for record in records])
    completions = np.array([record.completion_s for record in records])
    span_s = float(arrivals.max() - arrivals.min())
    makespan_s = float(completions.max() - arrivals.min())
    total_energy_uj = ledger.total().energy_uj
    hits = sum(1 for record in answered if record.cache_hit)
    nan = float("nan")
    return SLOReport(
        label=label,
        num_requests=len(records),
        p50_ms=float(np.percentile(latencies_ms, 50)) if answered else nan,
        p95_ms=float(np.percentile(latencies_ms, 95)) if answered else nan,
        p99_ms=float(np.percentile(latencies_ms, 99)) if answered else nan,
        mean_ms=float(latencies_ms.mean()) if answered else nan,
        max_ms=float(latencies_ms.max()) if answered else nan,
        offered_qps=(len(records) - 1) / span_s if span_s > 0.0 else 0.0,
        sustained_qps=(
            len(answered) / makespan_s if makespan_s > 0.0 else 0.0
        ),
        energy_per_request_uj=(
            total_energy_uj / len(answered) if answered else nan
        ),
        cache_hit_rate=hits / max(1, len(answered)),
        mean_batch_size=(
            float(np.mean([record.batch_size for record in answered]))
            if answered
            else 0.0
        ),
        shed_count=len(records) - len(served),
        degraded_count=sum(1 for record in served if record.degraded),
        failed_count=len(served) - len(answered),
        mttr_s=mttr_s,
        dollars_total=(
            price_ledger.total() if price_ledger is not None else None
        ),
    )


def slo_violation_windows(
    records: Sequence[RequestRecord],
    p95_target_s: float,
    window_s: float,
) -> Tuple[int, int]:
    """Count fixed-width time windows whose p95 breaks the contract.

    A whole-run p95 hides *when* the tail hurt: a reactive scaler that
    melts down for one ramp and is perfect elsewhere can post the same
    run-level p95 as a predictive one that was merely mediocre
    throughout.  Bucketing answered requests into ``window_s``-wide
    windows (by completion time, from the first arrival) and judging
    each window's own p95 against ``p95_target_s`` measures the duration
    of the pain instead -- the headline metric of the ``E-forecast``
    reactive-vs-predictive comparison.

    Returns ``(violated, occupied)`` where ``occupied`` counts windows
    with at least one answered completion (empty windows have no tail to
    judge).  Shed and failed requests are excluded for the same reason
    they are excluded from :func:`summarize`'s percentiles.

    >>> from repro.serving.traffic import Request
    >>> records = [
    ...     RequestRecord(
    ...         request=Request(request_id=i, arrival_s=float(i), user=0),
    ...         completion_s=float(i) + latency,
    ...         batch_size=1,
    ...         cache_hit=False,
    ...         items=(0,),
    ...     )
    ...     for i, latency in enumerate([0.01, 0.01, 0.5, 0.5])
    ... ]
    >>> slo_violation_windows(records, p95_target_s=0.1, window_s=2.0)
    (1, 2)
    """
    if not p95_target_s > 0.0:
        raise ValueError(f"p95 target must be positive, got {p95_target_s}")
    if not window_s > 0.0:
        raise ValueError(f"window must be positive, got {window_s}")
    answered = [
        record for record in records if not record.shed and not record.failed
    ]
    if not answered:
        return (0, 0)
    origin_s = min(record.request.arrival_s for record in answered)
    buckets: Dict[int, list] = {}
    for record in answered:
        index = int((record.completion_s - origin_s) // window_s)
        buckets.setdefault(index, []).append(record.latency_s)
    violated = sum(
        1
        for latencies in buckets.values()
        if float(np.percentile(latencies, 95)) > p95_target_s
    )
    return (violated, len(buckets))


def summarize_tenants(
    records: Sequence[RequestRecord],
    ledger: Ledger,
    label: str = "session",
) -> Dict[str, SLOReport]:
    """Per-tenant SLO reports of one mixed-tenant session.

    Latency percentiles and throughput come from each tenant's own
    records; the session ledger is global (the engine serves all tenants
    on shared hardware), so energy is attributed pro rata by *served*
    request count -- the fair-share charging model of a shared
    deployment, consistent with :func:`summarize`'s served-only energy
    denominator.  A shed request consumed (almost) no engine energy, so
    a heavily-shed tenant must not be billed for its rejected volume.
    When every request was shed the attribution degenerates to offered
    counts (there is no served work to split by).
    """
    if not records:
        raise ValueError("cannot summarise an empty session")
    by_tenant: Dict[str, list] = {}
    for record in records:
        by_tenant.setdefault(record.request.tenant, []).append(record)
    total = ledger.total()
    total_served = sum(1 for record in records if not record.shed)
    reports: Dict[str, SLOReport] = {}
    for tenant, tenant_records in sorted(by_tenant.items()):
        if total_served:
            share = (
                sum(1 for record in tenant_records if not record.shed)
                / total_served
            )
        else:
            share = len(tenant_records) / len(records)
        tenant_ledger = Ledger(name=f"{label}/{tenant}")
        tenant_ledger.charge(
            "Fair share",
            Cost(
                energy_pj=total.energy_pj * share,
                latency_ns=total.latency_ns * share,
            ),
        )
        reports[tenant] = summarize(
            tenant_records, tenant_ledger, label=f"{label} [{tenant}]"
        )
    return reports
