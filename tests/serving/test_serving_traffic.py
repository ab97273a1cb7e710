"""Tests for the seeded traffic generators."""

import numpy as np
import pytest

from repro.data.movielens import MovieLensDataset
from repro.serving.traffic import (
    BurstyTraffic,
    DiurnalTraffic,
    MultiTenantTraffic,
    PoissonTraffic,
    Request,
    TenantSpec,
    TraceReplayTraffic,
    zipf_user_weights,
)

ALL_PATTERNS = [
    lambda: PoissonTraffic(1000.0, num_users=50, seed=3),
    lambda: BurstyTraffic(500.0, 5000.0, num_users=50, seed=3),
    lambda: DiurnalTraffic(1000.0, num_users=50, seed=3),
    lambda: TraceReplayTraffic(list(range(50)) * 3, 1000.0, seed=3),
]


@pytest.mark.parametrize("factory", ALL_PATTERNS)
def test_deterministic_and_well_formed(factory):
    first = factory().generate(200)
    second = factory().generate(200)
    assert first == second  # same (seed, stream) -> same stream
    arrivals = [request.arrival_s for request in first]
    assert all(later >= earlier for earlier, later in zip(arrivals, arrivals[1:]))
    assert all(request.arrival_s >= 0.0 for request in first)
    assert all(0 <= request.user < 50 for request in first)
    assert [request.request_id for request in first] == list(range(200))


def test_different_streams_differ():
    base = PoissonTraffic(1000.0, num_users=50, seed=3, stream=0).generate(50)
    other = PoissonTraffic(1000.0, num_users=50, seed=3, stream=5).generate(50)
    assert base != other


def test_poisson_mean_rate():
    requests = PoissonTraffic(2000.0, num_users=100, seed=0).generate(4000)
    span = requests[-1].arrival_s - requests[0].arrival_s
    measured = (len(requests) - 1) / span
    assert measured == pytest.approx(2000.0, rel=0.1)


def test_bursty_rate_between_calm_and_burst():
    traffic = BurstyTraffic(
        200.0, 20000.0, num_users=50, mean_calm_s=0.05, mean_burst_s=0.05, seed=1
    )
    requests = traffic.generate(4000)
    span = requests[-1].arrival_s - requests[0].arrival_s
    measured = (len(requests) - 1) / span
    assert 200.0 < measured < 20000.0


def test_diurnal_rate_modulates():
    traffic = DiurnalTraffic(
        1000.0, num_users=50, amplitude=0.9, period_s=1.0, seed=2
    )
    assert traffic.rate_at(0.25) > traffic.rate_at(0.75)  # peak vs trough
    requests = traffic.generate(2000)
    # Arrivals concentrate in the high-rate half-period.
    phases = np.array([request.arrival_s % 1.0 for request in requests])
    assert (phases < 0.5).mean() > 0.6


def test_zipf_weights_skew_and_normalise():
    weights = zipf_user_weights(100, exponent=1.2)
    assert weights.sum() == pytest.approx(1.0)
    assert weights[0] > weights[-1]
    uniform = zipf_user_weights(100, exponent=0.0)
    assert np.allclose(uniform, 0.01)


def test_trace_replay_preserves_user_multiset():
    trace = [0, 0, 0, 1, 2]
    traffic = TraceReplayTraffic(trace, 100.0, seed=0)
    requests = traffic.generate(10)  # two full cycles
    users = sorted(request.user for request in requests)
    assert users == sorted(trace * 2)


def test_trace_replay_from_movielens():
    dataset = MovieLensDataset(scale=0.03, seed=0)
    traffic = TraceReplayTraffic.from_movielens(dataset, 1000.0, seed=0)
    requests = traffic.generate(100)
    assert all(0 <= request.user < dataset.num_users for request in requests)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        PoissonTraffic(0.0, num_users=10)
    with pytest.raises(ValueError):
        BurstyTraffic(1000.0, 500.0, num_users=10)  # burst < calm
    with pytest.raises(ValueError):
        DiurnalTraffic(100.0, num_users=10, amplitude=1.5)
    with pytest.raises(ValueError):
        TraceReplayTraffic([], 100.0)
    with pytest.raises(ValueError):
        Request(request_id=0, arrival_s=-1.0, user=0)
    with pytest.raises(ValueError):
        PoissonTraffic(100.0, num_users=10).generate(0)


class TestMultiTenantTraffic:
    def _mixer(self):
        return MultiTenantTraffic(
            [
                TenantSpec(
                    name="alpha",
                    traffic=PoissonTraffic(1000.0, num_users=20, seed=3, stream=1),
                    share=0.75,
                    p95_slo_ms=1.0,
                ),
                TenantSpec(
                    name="beta",
                    traffic=BurstyTraffic(
                        500.0, 5000.0, num_users=30, seed=3, stream=2
                    ),
                    share=0.25,
                    p95_slo_ms=5.0,
                ),
            ]
        )

    def test_interleaves_sorted_with_sequential_ids(self):
        mixed = self._mixer().generate(100)
        assert [request.request_id for request in mixed] == list(range(100))
        arrivals = [request.arrival_s for request in mixed]
        assert arrivals == sorted(arrivals)
        assert {request.tenant for request in mixed} == {"alpha", "beta"}

    def test_user_id_ranges_are_disjoint(self):
        mixer = self._mixer()
        assert mixer.num_users == 50
        assert mixer.user_offset("alpha") == 0
        assert mixer.user_offset("beta") == 20
        for request in mixer.generate(100):
            if request.tenant == "alpha":
                assert 0 <= request.user < 20
            else:
                assert 20 <= request.user < 50

    def test_share_split_uses_largest_remainder(self):
        mixed = self._mixer().generate(100)
        by_tenant = {
            tenant: sum(1 for request in mixed if request.tenant == tenant)
            for tenant in ("alpha", "beta")
        }
        assert by_tenant == {"alpha": 75, "beta": 25}

    def test_every_tenant_gets_at_least_one_request(self):
        mixer = MultiTenantTraffic(
            [
                TenantSpec(
                    name="whale",
                    traffic=PoissonTraffic(1000.0, num_users=5, seed=0, stream=1),
                    share=0.99,
                ),
                TenantSpec(
                    name="minnow",
                    traffic=PoissonTraffic(1000.0, num_users=5, seed=0, stream=2),
                    share=0.01,
                ),
            ]
        )
        mixed = mixer.generate(10)
        assert any(request.tenant == "minnow" for request in mixed)

    def test_deterministic(self):
        assert self._mixer().generate(60) == self._mixer().generate(60)

    def test_slo_lookup(self):
        mixer = self._mixer()
        assert mixer.slo_for("alpha") == 1.0
        assert mixer.slo_for("beta") == 5.0
        with pytest.raises(KeyError):
            mixer.slo_for("gamma")

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiTenantTraffic([])
        spec = TenantSpec(
            name="dup", traffic=PoissonTraffic(1.0, num_users=2, seed=0)
        )
        with pytest.raises(ValueError):
            MultiTenantTraffic([spec, spec])
        with pytest.raises(ValueError):
            self._mixer().generate(1)  # fewer requests than tenants
        with pytest.raises(ValueError):
            TenantSpec(name="", traffic=None)
        with pytest.raises(ValueError):
            TenantSpec(name="t", traffic=None, share=0.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", traffic=None, p95_slo_ms=0.0)
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_s=0.0, user=0, tenant="")


_NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: PoissonTraffic(_NAN, num_users=10),
        lambda: PoissonTraffic(100.0, num_users=10, user_skew=_NAN),
        # 1 / 1e-310 overflows: every gap (and arrival) would be inf.
        lambda: PoissonTraffic(1e-310, num_users=10).generate(5),
        lambda: BurstyTraffic(_NAN, 1000.0, num_users=10),
        lambda: BurstyTraffic(100.0, _NAN, num_users=10),
        lambda: BurstyTraffic(100.0, 1000.0, num_users=10, mean_calm_s=_NAN),
        lambda: BurstyTraffic(100.0, 1000.0, num_users=10, mean_burst_s=_NAN),
        lambda: DiurnalTraffic(_NAN, num_users=10),
        lambda: DiurnalTraffic(100.0, num_users=10, period_s=_NAN),
        lambda: TraceReplayTraffic([0, 1, 2], _NAN),
        lambda: Request(request_id=0, arrival_s=_NAN, user=0),
        lambda: Request(request_id=0, arrival_s=float("inf"), user=0),
        lambda: TenantSpec(name="t", traffic=None, share=_NAN),
        lambda: TenantSpec(name="t", traffic=None, p95_slo_ms=_NAN),
    ],
    ids=[
        "poisson-nan-rate",
        "poisson-nan-skew",
        "poisson-subnormal-rate",
        "bursty-nan-calm",
        "bursty-nan-burst",
        "bursty-nan-calm-sojourn",
        "bursty-nan-burst-sojourn",
        "diurnal-nan-base",
        "diurnal-nan-period",
        "trace-replay-nan-rate",
        "request-nan-arrival",
        "request-inf-arrival",
        "tenant-nan-share",
        "tenant-nan-slo",
    ],
)
def test_nan_and_degenerate_parameters_rejected(make):
    """NaN fails every positivity check, and no generator emits a
    non-finite arrival: each case raises ValueError at the boundary."""
    with pytest.raises(ValueError):
        make()
