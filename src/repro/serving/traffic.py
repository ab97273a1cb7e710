"""Seeded request generators: who asks for recommendations, and when.

Four arrival processes cover the serving regimes a recommendation system
actually sees:

* :class:`PoissonTraffic` -- memoryless steady load (the M/.../1 baseline);
* :class:`BurstyTraffic` -- a two-state Markov-modulated Poisson process
  (calm <-> burst), the standard model for flash-crowd traffic;
* :class:`DiurnalTraffic` -- an inhomogeneous Poisson process with a
  sinusoidal day/night rate profile, sampled by thinning;
* :class:`TraceReplayTraffic` -- Poisson arrivals whose *requesters* replay
  an empirical user trace (e.g. MovieLens watch histories), preserving
  real popularity skew for cache studies.

:class:`MultiTenantTraffic` composes any of the above into one front
door: each :class:`TenantSpec` contributes its own arrival process, user
population (offset into a disjoint id range) and p95 SLO, and the mixer
interleaves the streams by arrival time -- the multi-tenant workloads
(e.g. a MovieLens trace-replay tenant next to a bursty Criteo-class
tenant) the autoscaler is sized against.

Every generator is deterministic given (seed, stream): ``generate`` draws
from a fresh :func:`repro.experiments.common.seeded_rng` each call, so the
same generator object can be reused across sessions without coupling their
randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.clock import SimClock

__all__ = [
    "Request",
    "PoissonTraffic",
    "BurstyTraffic",
    "DiurnalTraffic",
    "TraceReplayTraffic",
    "TenantSpec",
    "MultiTenantTraffic",
    "zipf_user_weights",
]


def _seeded_rng(seed: int, stream: int) -> np.random.Generator:
    # Lazy import: ``repro.experiments.__init__`` imports the serving
    # study, which imports this package -- a module-level import of the
    # shared helper here would close that cycle at import time.
    from repro.experiments.common import seeded_rng

    return seeded_rng(seed, stream)


@dataclass(frozen=True)
class Request:
    """One inference request hitting the front door at ``arrival_s``."""

    request_id: int
    arrival_s: float
    user: int
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not 0.0 <= self.arrival_s < math.inf:  # NaN fails every comparison
            raise ValueError(f"arrival time must be finite and non-negative, got {self.arrival_s}")
        if self.user < 0:
            raise ValueError(f"user id must be non-negative, got {self.user}")
        if not self.tenant:
            raise ValueError("tenant name must be non-empty")


def zipf_user_weights(num_users: int, exponent: float = 1.1) -> np.ndarray:
    """Zipfian request-popularity weights over users (sums to 1).

    Real request streams are heavily skewed -- a small head of users (and
    hence cacheable queries) produces most of the traffic.  ``exponent``
    controls the skew; 0 degenerates to uniform.
    """
    if num_users < 1:
        raise ValueError("need at least one user")
    if not exponent >= 0.0:
        raise ValueError("Zipf exponent must be non-negative")
    ranks = np.arange(1, num_users + 1, dtype=np.float64)
    weights = ranks ** -exponent
    return weights / weights.sum()


class _TrafficBase:
    """Shared user-sampling plumbing for the arrival processes."""

    name = "traffic"

    def __init__(
        self,
        num_users: int,
        seed: int = 0,
        stream: int = 0,
        user_skew: float = 1.1,
    ):
        if num_users < 1:
            raise ValueError("need at least one user")
        self.num_users = num_users
        self.seed = seed
        self.stream = stream
        self._weights = zipf_user_weights(num_users, user_skew)

    def _rng(self) -> np.random.Generator:
        return _seeded_rng(self.seed, self.stream)

    def _users(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # Shuffle the rank->user assignment once (seeded) so "popular"
        # users are not always the low ids.
        permutation = _seeded_rng(self.seed, self.stream + 1).permutation(self.num_users)
        drawn = rng.choice(self.num_users, size=count, p=self._weights)
        return permutation[drawn]

    def _package(self, arrivals: Sequence[float], users: np.ndarray) -> List[Request]:
        return [
            Request(request_id=index, arrival_s=float(arrival), user=int(user))
            for index, (arrival, user) in enumerate(zip(arrivals, users))
        ]

    def generate(self, num_requests: int) -> List[Request]:
        raise NotImplementedError


class PoissonTraffic(_TrafficBase):
    """Homogeneous Poisson arrivals at ``rate_qps``."""

    name = "poisson"

    def __init__(
        self,
        rate_qps: float,
        num_users: int,
        seed: int = 0,
        stream: int = 0,
        user_skew: float = 1.1,
    ):
        super().__init__(num_users, seed=seed, stream=stream, user_skew=user_skew)
        if not rate_qps > 0.0:
            raise ValueError("arrival rate must be positive")
        self.rate_qps = rate_qps

    def generate(self, num_requests: int) -> List[Request]:
        if num_requests < 1:
            raise ValueError("need at least one request")
        rng = self._rng()
        gaps = rng.exponential(1.0 / self.rate_qps, size=num_requests)
        arrivals = np.cumsum(gaps)
        return self._package(arrivals, self._users(rng, num_requests))


class BurstyTraffic(_TrafficBase):
    """Two-state MMPP: exponential sojourns in a calm and a burst state."""

    name = "bursty"

    def __init__(
        self,
        calm_qps: float,
        burst_qps: float,
        num_users: int,
        mean_calm_s: float = 0.5,
        mean_burst_s: float = 0.1,
        seed: int = 0,
        stream: int = 0,
        user_skew: float = 1.1,
    ):
        super().__init__(num_users, seed=seed, stream=stream, user_skew=user_skew)
        if not (calm_qps > 0.0 and burst_qps > 0.0):
            raise ValueError("arrival rates must be positive")
        if burst_qps < calm_qps:
            raise ValueError("burst rate must be >= calm rate")
        if not (mean_calm_s > 0.0 and mean_burst_s > 0.0):
            raise ValueError("mean state sojourns must be positive")
        self.calm_qps = calm_qps
        self.burst_qps = burst_qps
        self.mean_calm_s = mean_calm_s
        self.mean_burst_s = mean_burst_s

    def generate(self, num_requests: int) -> List[Request]:
        if num_requests < 1:
            raise ValueError("need at least one request")
        rng = self._rng()
        arrivals: List[float] = []
        clock = SimClock()
        bursting = False
        state_end = clock.now_s + rng.exponential(self.mean_calm_s)
        while len(arrivals) < num_requests:
            rate = self.burst_qps if bursting else self.calm_qps
            gap = rng.exponential(1.0 / rate)
            if clock.now_s + gap <= state_end:
                arrivals.append(clock.advance(gap))
            else:
                # The memoryless arrival clock restarts at the state switch.
                clock.advance_to(state_end)
                bursting = not bursting
                mean = self.mean_burst_s if bursting else self.mean_calm_s
                state_end = clock.now_s + rng.exponential(mean)
        return self._package(arrivals, self._users(rng, num_requests))


class DiurnalTraffic(_TrafficBase):
    """Inhomogeneous Poisson with a sinusoidal (day/night) rate profile.

    ``rate(t) = base_qps * (1 + amplitude * sin(2 pi t / period_s))``,
    sampled by Lewis-Shedler thinning against the peak rate.
    """

    name = "diurnal"

    def __init__(
        self,
        base_qps: float,
        num_users: int,
        amplitude: float = 0.8,
        period_s: float = 1.0,
        seed: int = 0,
        stream: int = 0,
        user_skew: float = 1.1,
    ):
        super().__init__(num_users, seed=seed, stream=stream, user_skew=user_skew)
        if not base_qps > 0.0:
            raise ValueError("base rate must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if not period_s > 0.0:
            raise ValueError("period must be positive")
        self.base_qps = base_qps
        self.amplitude = amplitude
        self.period_s = period_s

    def rate_at(self, time_s: float) -> float:
        """Instantaneous arrival rate at ``time_s``."""
        phase = 2.0 * np.pi * time_s / self.period_s
        return self.base_qps * (1.0 + self.amplitude * np.sin(phase))

    def forecast_model(self):
        """The generator's own rate curve as a
        :class:`~repro.serving.forecast.ForecastModel` -- the *oracle*
        forecast: what a fitted model converges to with infinite
        evidence (zero residual by construction)."""
        from repro.serving.forecast import ForecastModel

        return ForecastModel(
            base_qps=self.base_qps,
            amplitude=self.amplitude,
            period_s=self.period_s,
        )

    def generate(self, num_requests: int) -> List[Request]:
        if num_requests < 1:
            raise ValueError("need at least one request")
        rng = self._rng()
        peak = self.base_qps * (1.0 + self.amplitude)
        arrivals: List[float] = []
        clock = SimClock()
        while len(arrivals) < num_requests:
            now = clock.advance(rng.exponential(1.0 / peak))
            if rng.random() * peak <= self.rate_at(now):
                arrivals.append(now)
        return self._package(arrivals, self._users(rng, num_requests))


class TraceReplayTraffic(_TrafficBase):
    """Poisson arrivals whose requesters replay an empirical user trace."""

    name = "trace-replay"

    def __init__(
        self,
        trace: Sequence[int],
        rate_qps: float,
        num_users: Optional[int] = None,
        seed: int = 0,
        stream: int = 0,
    ):
        users = np.asarray(list(trace), dtype=np.int64)
        if users.size == 0:
            raise ValueError("trace must be non-empty")
        if users.min() < 0:
            raise ValueError("trace user ids must be non-negative")
        resolved_users = int(users.max()) + 1 if num_users is None else num_users
        super().__init__(resolved_users, seed=seed, stream=stream, user_skew=0.0)
        if users.max() >= self.num_users:
            raise ValueError("trace contains user ids beyond num_users")
        if not rate_qps > 0.0:
            raise ValueError("arrival rate must be positive")
        self.rate_qps = rate_qps
        self.trace = users

    @classmethod
    def from_movielens(
        cls, dataset, rate_qps: float, seed: int = 0, stream: int = 0
    ) -> "TraceReplayTraffic":
        """Replay a MovieLens dataset: each user requests once per watch.

        Users with longer histories request more often, so the replayed
        stream carries the dataset's empirical popularity skew.
        """
        trace = [
            user
            for user, history in enumerate(dataset.histories)
            for _ in range(max(1, len(history)))
        ]
        return cls(
            trace,
            rate_qps,
            num_users=dataset.num_users,
            seed=seed,
            stream=stream,
        )

    def generate(self, num_requests: int) -> List[Request]:
        if num_requests < 1:
            raise ValueError("need at least one request")
        rng = self._rng()
        trace = self.trace[rng.permutation(self.trace.size)]
        repeats = int(np.ceil(num_requests / trace.size))
        users = np.tile(trace, repeats)[:num_requests]
        gaps = rng.exponential(1.0 / self.rate_qps, size=num_requests)
        return self._package(np.cumsum(gaps), users)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a shared serving deployment.

    ``share`` is the tenant's fraction of the mixed request volume
    (normalised across tenants); ``p95_slo_ms`` is the latency contract
    the autoscaler holds the deployment to for this tenant's requests.
    """

    name: str
    traffic: object  # any generator above: .generate(n) and .num_users
    share: float = 1.0
    p95_slo_ms: float = float("inf")

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.share > 0.0:
            raise ValueError(f"tenant share must be positive, got {self.share}")
        if not self.p95_slo_ms > 0.0:
            raise ValueError(f"p95 SLO must be positive, got {self.p95_slo_ms}")


class MultiTenantTraffic:
    """Interleave several tenants' arrival processes into one stream.

    Each tenant keeps its own generator (and hence its own seeded
    randomness), its requests are tagged with the tenant name, and its
    user ids are offset into a disjoint range -- tenant 0 owns
    ``[0, n_0)``, tenant 1 owns ``[n_0, n_0 + n_1)``, and so on -- so a
    session workload built per tenant stays addressable by plain modulo
    indexing and tenants never alias each other's cache keys.
    """

    name = "multi-tenant"

    def __init__(self, tenants: Sequence[TenantSpec]):
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        self.tenants = list(tenants)
        self._offsets: Dict[str, int] = {}
        offset = 0
        for tenant in self.tenants:
            self._offsets[tenant.name] = offset
            offset += tenant.traffic.num_users
        self.num_users = offset

    def user_offset(self, tenant_name: str) -> int:
        """Start of ``tenant_name``'s user-id range in the mixed stream."""
        return self._offsets[tenant_name]

    def slo_for(self, tenant_name: str) -> float:
        """The p95 latency contract of ``tenant_name`` (ms)."""
        for tenant in self.tenants:
            if tenant.name == tenant_name:
                return tenant.p95_slo_ms
        raise KeyError(f"unknown tenant {tenant_name!r}")

    def _request_counts(self, num_requests: int) -> List[int]:
        """Split the volume by share: largest-remainder rounding, with a
        floor of one request per tenant (every SLO needs evidence)."""
        total_share = sum(tenant.share for tenant in self.tenants)
        exact = [
            num_requests * tenant.share / total_share for tenant in self.tenants
        ]
        counts = [int(value) for value in exact]
        remainders = sorted(
            range(len(exact)),
            key=lambda index: (counts[index] - exact[index], index),
        )
        for index in remainders[: num_requests - sum(counts)]:
            counts[index] += 1
        for index in range(len(counts)):
            if counts[index] == 0:
                donor = max(range(len(counts)), key=counts.__getitem__)
                if counts[donor] > 1:
                    counts[donor] -= 1
                    counts[index] = 1
        return counts

    def generate(self, num_requests: int) -> List[Request]:
        if num_requests < len(self.tenants):
            raise ValueError(
                f"need at least one request per tenant "
                f"({len(self.tenants)}), got {num_requests}"
            )
        mixed: List[Request] = []
        for tenant, count in zip(self.tenants, self._request_counts(num_requests)):
            offset = self._offsets[tenant.name]
            for request in tenant.traffic.generate(count):
                mixed.append(
                    replace(
                        request,
                        user=request.user + offset,
                        tenant=tenant.name,
                    )
                )
        mixed.sort(key=lambda request: (request.arrival_s, request.tenant))
        return [
            replace(request, request_id=index)
            for index, request in enumerate(mixed)
        ]
