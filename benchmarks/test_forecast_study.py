"""Bench E-FORECAST -- reactive vs predictive vs oracle scaling."""

import time

import pytest

from repro.experiments import run_forecast_study
from repro.serving.forecast import (
    DeploymentCapacity,
    DeploymentCapacityModel,
    PredictiveScaler,
    TrafficForecaster,
)
from repro.serving.scheduler import Batch
from repro.serving.traffic import Request


def test_forecast_study(benchmark, save_report):
    report = benchmark.pedantic(run_forecast_study, rounds=1, iterations=1)
    save_report("forecast_study", report.format())
    # Every forecast invariant (predictive strictly beats reactive on
    # violation windows, migration dollars within 25% of the oracle,
    # observation-only bit-identity, lead time >= migration latency,
    # bursty honesty, heterogeneous search placement) must hold exactly.
    assert report.all_within(0.0), report.format()

    # The arms are ordered the way the story claims: learning once then
    # scheduling beats reacting, and nothing beats the ground truth.
    violations = report.extras["violations"]
    assert (
        violations["oracle"]
        <= violations["predictive"]
        < violations["reactive"]
        <= violations["static"]
    )

    # Predictive paid for real migrations, and the plan actually fired.
    assert report.extras["migration_dollars"]["predictive"] > 0.0
    assert report.extras["arms"]["predictive"].scale_events


def _observe_s(num_arrivals):
    """Host seconds of ``PredictiveScaler.observe`` over ``num_arrivals``
    arrivals 1 ms apart, in batches of 8, with a one-day period: the span
    never reaches the fit threshold, so every batch asks ``ready``."""
    scaler = PredictiveScaler(
        TrafficForecaster(period_s=86_400.0),
        DeploymentCapacityModel([DeploymentCapacity((1, 1), 100.0)]),
        lead_time_s=0.0,
        horizon_s=60.0,
        step_s=1.0,
    )
    batches = []
    for first in range(0, num_arrivals, 8):
        requests = [Request(index, index * 1e-3, 0) for index in range(first, first + 8)]
        batches.append(Batch(requests, requests[0].arrival_s, requests[-1].arrival_s))
    start = time.perf_counter()
    for batch in batches:
        scaler.observe(batch, 0.0, [], (1, 1))
    elapsed = time.perf_counter() - start
    assert scaler.model is None
    return elapsed


@pytest.mark.perf
def test_predictive_observe_is_linear_before_the_fit():
    """4x the arrivals must cost well under 8x the host time: a ``ready``
    that rescans every arrival made it quadratic (about 14x here)."""
    small = min(_observe_s(4_000) for _ in range(3))
    large = min(_observe_s(16_000) for _ in range(3))
    assert large / small < 8.0, (
        f"16,000 arrivals took {large * 1e3:.1f} ms, 4,000 took "
        f"{small * 1e3:.1f} ms ({large / small:.1f}x)"
    )
