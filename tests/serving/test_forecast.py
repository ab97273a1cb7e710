"""Unit + integration tests for forecast-driven predictive autoscaling.

The fit is a deterministic closed-form solve, so every assertion here is
exact-repeatable: synthetic arrival series are generated from the same
seeded thinning process ``DiurnalTraffic`` uses, and fit quality is
judged where it matters for control -- the predicted *peak* rate that
picks deployments -- not on per-parameter point estimates.
"""

import numpy as np
import pytest

from repro.obs import Telemetry
from repro.serving.autoscaler import ScheduledScalePlan
from repro.serving.forecast import (
    DeploymentCapacity,
    DeploymentCapacityModel,
    ForecastModel,
    PredictiveScaler,
    TrafficForecaster,
    build_scale_plan,
)
from repro.serving.scheduler import Batch, MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.shard import make_sharded_engine
from repro.serving.slo import slo_violation_windows
from repro.serving.traffic import DiurnalTraffic


def _sample_arrivals(model, end_s, seed=0):
    """Lewis-Shedler thinning against the model -- DiurnalTraffic's sampler."""
    rng = np.random.default_rng(seed)
    peak = model.peak_rate(0.0, model.period_s)
    arrivals, t = [], 0.0
    while t < end_s:
        t += rng.exponential(1.0 / peak)
        if rng.random() * peak <= float(model.rate_at(t)):
            arrivals.append(t)
    return arrivals


class TestForecastModel:
    def test_matches_diurnal_generator_curve(self):
        traffic = DiurnalTraffic(
            base_qps=80.0, num_users=32, amplitude=0.6, period_s=3.0
        )
        model = traffic.forecast_model()
        for t in (0.0, 0.4, 1.1, 2.9):
            assert float(model.rate_at(t)) == pytest.approx(traffic.rate_at(t))
        assert model.residual_rms_qps == 0.0

    def test_rate_clamps_at_zero(self):
        model = ForecastModel(
            base_qps=10.0, amplitude=0.0, period_s=1.0, trend_qps_per_s=-5.0
        )
        assert float(model.rate_at(100.0)) == 0.0

    def test_peak_rate_finds_the_crest(self):
        model = ForecastModel(base_qps=100.0, amplitude=0.5, period_s=4.0)
        assert model.peak_rate(0.0, 4.0) == pytest.approx(150.0, rel=1e-3)
        # A window past the crest peaks at its opening edge (rate is
        # falling there), well under the true crest.
        assert model.peak_rate(2.0, 3.0) <= 100.0 < model.peak_rate(0.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ForecastModel(base_qps=1.0, amplitude=1.0, period_s=1.0)
        with pytest.raises(ValueError):
            ForecastModel(base_qps=1.0, amplitude=0.5, period_s=0.0)
        with pytest.raises(ValueError):
            ForecastModel(
                base_qps=1.0, amplitude=0.5, period_s=1.0
            ).peak_rate(1.0, 0.0)


class TestTrafficForecaster:
    def test_recovers_peak_rate_from_thinned_arrivals(self):
        true = ForecastModel(base_qps=60.0, amplitude=0.6, period_s=8.0)
        forecaster = TrafficForecaster(period_s=8.0)
        forecaster.observe_many(_sample_arrivals(true, 8.0, seed=1))
        assert forecaster.ready
        fitted = forecaster.fit()
        assert fitted.period_s == 8.0
        true_peak = true.peak_rate(0.0, 8.0)
        assert fitted.peak_rate(0.0, 8.0) == pytest.approx(true_peak, rel=0.15)
        assert fitted.residual_rms_qps > 0.0  # honest about sampling noise

    def test_partial_window_still_predicts_the_unseen_peak(self):
        # The E-forecast situation: fit during the valley/early ramp,
        # predict the crest that has not happened yet.
        true = ForecastModel(base_qps=60.0, amplitude=0.6, period_s=8.0)
        forecaster = TrafficForecaster(period_s=8.0)
        forecaster.observe_many(_sample_arrivals(true, 3.0, seed=2))
        fitted = forecaster.fit()
        assert fitted.peak_rate(0.0, 8.0) == pytest.approx(
            true.peak_rate(0.0, 8.0), rel=0.3
        )

    def test_flat_traffic_fits_near_zero_amplitude(self):
        rng = np.random.default_rng(4)
        forecaster = TrafficForecaster(period_s=4.0)
        forecaster.observe_many(np.cumsum(rng.exponential(1 / 50.0, size=400)))
        fitted = forecaster.fit()
        assert fitted.amplitude < 0.15
        assert fitted.base_qps == pytest.approx(50.0, rel=0.2)

    def test_ready_gates_on_count_and_span(self):
        forecaster = TrafficForecaster(period_s=10.0, min_arrivals=16)
        assert not forecaster.ready
        forecaster.observe_many(np.linspace(0.0, 0.1, 16))  # tiny span
        assert not forecaster.ready
        with pytest.raises(ValueError):
            forecaster.fit()
        forecaster.observe_many(np.linspace(0.0, 5.0, 16))
        assert forecaster.ready

    @pytest.mark.parametrize(
        "late",
        [8.6, 1.4],
        ids=["later-arrival-stretches-span", "earlier-arrival-stretches-span"],
    )
    def test_ready_over_unsorted_and_one_arrival_batches(self, late):
        # Eight arrivals within one second, out of order and in batches
        # of one to three (one empty): the count is met but the span
        # (0.9 s) is short of 35% of the 10 s period.  Then one arrival
        # moves an end of the span -- the max (8.6 - 5.0 = 3.6 s) or the
        # min (5.9 - 1.4 = 4.5 s) -- past 3.5 s.
        forecaster = TrafficForecaster(period_s=10.0, min_arrivals=8)
        batches = [[5.9, 5.1], [5.5], [5.3, 5.7, 5.0], [5.2], [], [5.8], [late]]
        answers = []
        for batch in batches:
            forecaster.observe_many(batch)
            answers.append(forecaster.ready)
        assert answers == [False, False, False, False, False, False, True]

    def test_fit_is_deterministic(self):
        arrivals = _sample_arrivals(
            ForecastModel(base_qps=40.0, amplitude=0.5, period_s=6.0), 6.0
        )
        fits = []
        for _ in range(2):
            forecaster = TrafficForecaster(period_s=6.0)
            forecaster.observe_many(arrivals)
            fits.append(forecaster.fit())
        assert fits[0] == fits[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficForecaster(period_s=-1.0)
        with pytest.raises(ValueError):
            TrafficForecaster(period_s=1.0, min_arrivals=4)
        with pytest.raises(ValueError):
            TrafficForecaster(period_s=1.0, min_span_fraction=0.0)


def _capacity_model(utilization=0.7):
    return DeploymentCapacityModel(
        [
            DeploymentCapacity((1, 1), 100.0, energy_per_request_uj=10.0),
            DeploymentCapacity((1, 2), 200.0, energy_per_request_uj=10.5),
            DeploymentCapacity((2, 2), 400.0, energy_per_request_uj=12.0),
        ],
        utilization=utilization,
    )


def _crossed_capacity_model():
    """(2, 1) sorts above (1, 2) as a tuple but carries less traffic."""
    return DeploymentCapacityModel(
        [
            DeploymentCapacity((1, 1), 100.0, energy_per_request_uj=1.0),
            DeploymentCapacity((2, 1), 150.0, energy_per_request_uj=2.0),
            DeploymentCapacity((1, 2), 200.0, energy_per_request_uj=3.0),
        ],
        utilization=1.0,
    )


class TestDeploymentCapacityModel:
    def test_picks_cheapest_adequate_deployment(self):
        capacity = _capacity_model()
        assert capacity.required_deployment(30.0) == (1, 1)
        assert capacity.required_deployment(100.0) == (1, 2)
        assert capacity.required_deployment(250.0) == (2, 2)

    def test_energy_order_beats_size_order(self):
        # A big-but-cheap deployment outranks a small-but-hungry one.
        capacity = DeploymentCapacityModel(
            [
                DeploymentCapacity((1, 1), 100.0, energy_per_request_uj=20.0),
                DeploymentCapacity((2, 2), 400.0, energy_per_request_uj=5.0),
            ],
            utilization=0.5,
        )
        assert capacity.required_deployment(10.0) == (2, 2)

    def test_overload_falls_back_to_largest_capacity(self):
        assert _capacity_model().required_deployment(10_000.0) == (2, 2)

    def test_capacity_of_a_deployment(self):
        capacity = _crossed_capacity_model()
        assert capacity.capacity_qps((2, 1)) == 150.0
        assert capacity.capacity_qps((3, 3)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeploymentCapacityModel([])
        with pytest.raises(ValueError):
            _capacity_model(utilization=0.0)
        with pytest.raises(ValueError):
            DeploymentCapacityModel(
                [
                    DeploymentCapacity((1, 1), 10.0),
                    DeploymentCapacity((1, 1), 20.0),
                ]
            )
        with pytest.raises(ValueError):
            DeploymentCapacity((0, 1), 10.0)
        with pytest.raises(ValueError):
            DeploymentCapacity((1, 1), 0.0)
        with pytest.raises(ValueError):
            _capacity_model().required_deployment(-1.0)


class TestPlanScaleEvents:
    def test_ramp_fires_lead_time_early(self):
        model = ForecastModel(base_qps=60.0, amplitude=0.6, period_s=8.0)
        capacity = _capacity_model()
        events = build_scale_plan(
            model, capacity, start_s=0.0, horizon_s=8.0, step_s=0.25,
            lead_time_s=0.5, initial_deployment=(1, 1),
        ).events
        assert events, "the crest needs (1, 2): expected a scale-out"
        fire_s, deployment = events[0]
        assert deployment == (1, 2)
        # The rate crosses 0.7 * 100 qps at sin = 1/6; the event fires
        # half a second before that window opens.
        crossing_s = 8.0 / (2 * np.pi) * np.arcsin((70.0 / 60.0 - 1.0) / 0.6)
        assert fire_s == pytest.approx(crossing_s - 0.5, abs=0.3)

    def test_scale_in_after_the_crest_with_headroom(self):
        model = ForecastModel(base_qps=60.0, amplitude=0.6, period_s=8.0)
        events = build_scale_plan(
            model, _capacity_model(), start_s=0.0, horizon_s=8.0, step_s=0.25,
            lead_time_s=0.5, initial_deployment=(1, 1),
        ).events
        deployments = [deployment for _, deployment in events]
        assert deployments == [(1, 2), (1, 1)]
        # Scale-in is conservative: it happens after the symmetric
        # crossing, never before the crest.
        assert events[1][0] > 8.0 / 4

    def test_flat_forecast_plans_nothing(self):
        model = ForecastModel(base_qps=30.0, amplitude=0.0, period_s=8.0)
        plan = build_scale_plan(
            model, _capacity_model(), start_s=0.0, horizon_s=8.0, step_s=0.5,
            lead_time_s=0.5,
        )
        assert isinstance(plan, ScheduledScalePlan)
        assert plan.events == []

    @pytest.mark.parametrize(
        "rate_qps, initial, expected",
        [
            (149.0, (1, 2), []),
            (120.0, (1, 2), [(0.0, (2, 1))]),
            (99.0, (2, 1), []),
            (99.0, (3, 3), [(0.0, (1, 1))]),
        ],
        ids=["no-headroom", "headroom", "smaller-tuple", "unmeasured-start"],
    )
    def test_scale_in_is_decided_by_capacity(self, rate_qps, initial, expected):
        """(2, 1) sorts above (1, 2) but carries less, so moving there is a
        scale-in and needs the 1.15x headroom: 149 * 1.15 > 150, while
        120 * 1.15 <= 150.  A start the model never measured has
        capacity 0, so leaving it always grows."""
        events = build_scale_plan(
            ForecastModel(base_qps=rate_qps, amplitude=0.0, period_s=8.0),
            _crossed_capacity_model(), start_s=0.0, horizon_s=4.0, step_s=0.5,
            lead_time_s=0.5, initial_deployment=initial,
        ).events
        assert events == expected

    def test_lead_time_clamps_at_start(self):
        model = ForecastModel(base_qps=120.0, amplitude=0.0, period_s=8.0)
        events = build_scale_plan(
            model, _capacity_model(), start_s=2.0, horizon_s=4.0, step_s=0.5,
            lead_time_s=10.0, initial_deployment=(1, 1),
        ).events
        assert events[0] == (2.0, (1, 2))

    def test_validation(self):
        model = ForecastModel(base_qps=10.0, amplitude=0.0, period_s=1.0)
        capacity = _capacity_model()
        with pytest.raises(ValueError):
            build_scale_plan(
                model, capacity, start_s=0.0, horizon_s=0.0, step_s=0.1,
                lead_time_s=0.0, initial_deployment=(1, 1),
            )
        with pytest.raises(ValueError):
            build_scale_plan(
                model, capacity, start_s=0.0, horizon_s=1.0, step_s=0.0,
                lead_time_s=0.0, initial_deployment=(1, 1),
            )
        with pytest.raises(ValueError):
            build_scale_plan(
                model, capacity, start_s=0.0, horizon_s=1.0, step_s=0.1,
                lead_time_s=-1.0, initial_deployment=(1, 1),
            )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(start_s=1000.0, horizon_s=1.0, step_s=1e-14), "plan windows"),
            (dict(start_s=0.0, horizon_s=1.0, step_s=1e-5), "plan windows"),
            # Twenty windows, but 1e18 + 50 rounds back to 1e18.
            (dict(start_s=1e18, horizon_s=1000.0, step_s=50.0), "does not advance"),
        ],
        ids=["step-below-spacing", "too-many-windows", "stuck-window"],
    )
    def test_window_walk_is_bounded(self, overrides, message):
        """A step that cannot move the window start in floating point
        used to loop forever, and nothing bounded horizon / step."""
        with pytest.raises(ValueError, match=message):
            _plan(**overrides)


def _predictive(act=True, **overrides):
    kwargs = dict(lead_time_s=0.2, horizon_s=8.0, step_s=0.25, act=act)
    kwargs.update(overrides)
    return PredictiveScaler(
        TrafficForecaster(period_s=8.0, min_arrivals=64),
        _capacity_model(),
        **kwargs,
    )


class _FakeRequest:
    def __init__(self, arrival_s):
        self.arrival_s = arrival_s


def _feed(scaler, arrivals, batch_size=16, current=(1, 1)):
    """Drive observe() with fake batches; returns the non-None decisions."""
    decisions = []
    for start in range(0, len(arrivals), batch_size):
        chunk = arrivals[start:start + batch_size]
        batch = Batch(
            requests=[_FakeRequest(a) for a in chunk],
            open_s=chunk[0],
            dispatch_s=chunk[-1],
        )
        decision = scaler.observe(batch, 0.01, [], current)
        if decision is not None:
            decisions.append(decision)
            current = decision
    return decisions


class TestPredictiveScaler:
    def test_fits_once_then_fires_the_plan(self):
        true = ForecastModel(base_qps=60.0, amplitude=0.6, period_s=8.0)
        arrivals = _sample_arrivals(true, 8.0, seed=5)
        scaler = _predictive()
        decisions = _feed(scaler, arrivals)
        assert scaler.model is not None
        assert scaler.planned_events
        assert decisions, "the crest must trigger a scale-out"
        assert decisions[0] == (1, 2)

    def test_act_false_observes_and_plans_but_never_decides(self):
        true = ForecastModel(base_qps=60.0, amplitude=0.6, period_s=8.0)
        arrivals = _sample_arrivals(true, 8.0, seed=5)
        scaler = _predictive(act=False)
        assert _feed(scaler, arrivals) == []
        # The whole machinery still ran -- observation-only means no
        # *decisions*, not no forecasts.
        assert scaler.model is not None

    def test_no_op_decisions_are_suppressed(self):
        # A plan event targeting the deployment the session already runs
        # must not surface (scale_to would treat it as a no-op anyway,
        # but the scaler should not even propose paying the call).
        scaler = _predictive()
        scaler.model = ForecastModel(base_qps=1.0, amplitude=0.0, period_s=8.0)
        scaler._plan = ScheduledScalePlan([(0.5, (1, 2))])
        batch = Batch(requests=[], open_s=1.0, dispatch_s=1.0)
        assert scaler.observe(batch, 0.01, [], (1, 2)) is None
        # Consumed: it does not re-fire for a different current either.
        assert scaler.observe(batch, 0.01, [], (1, 1)) is None

    def test_telemetry_emits_forecast_instants_and_metrics(self):
        telemetry = Telemetry(enabled=True)
        true = ForecastModel(base_qps=60.0, amplitude=0.6, period_s=8.0)
        scaler = _predictive()
        scaler.attach_telemetry(telemetry)
        _feed(scaler, _sample_arrivals(true, 8.0, seed=6))
        names = [instant.name for instant in telemetry.tracer.instants]
        assert "forecast-fit" in names
        fits = telemetry.metrics.get("repro_forecast_fits_total")
        planned = telemetry.metrics.get("repro_forecast_planned_events_total")
        assert fits is not None and fits.total() == 1.0
        assert planned is not None
        assert planned.total() == len(scaler.planned_events)

    def test_validation(self):
        forecaster = TrafficForecaster(period_s=8.0)
        capacity = _capacity_model()
        with pytest.raises(ValueError):
            PredictiveScaler(
                forecaster, capacity, lead_time_s=-1.0, horizon_s=1.0,
                step_s=0.1,
            )
        with pytest.raises(ValueError):
            PredictiveScaler(
                forecaster, capacity, lead_time_s=0.0, horizon_s=0.0,
                step_s=0.1,
            )
        with pytest.raises(ValueError):
            PredictiveScaler(
                forecaster, capacity, lead_time_s=0.0, horizon_s=1.0,
                step_s=0.0,
            )

    def test_too_many_plan_windows_rejected_at_construction(self):
        """The window bound holds before the first fit, not mid-session."""
        with pytest.raises(ValueError, match="plan windows"):
            _predictive(horizon_s=8.0, step_s=1e-6)


class TestSloViolationWindows:
    def test_counts_windows_not_requests(self, serving_setup):
        # Reuse real records from a tiny session so the record contract
        # (shed/failed exclusion) is honoured end to end.
        dataset, filtering, ranking, mapping, workload = serving_setup
        engine = make_sharded_engine(
            "imars", filtering, ranking, 1, mapping=mapping,
            num_candidates=12, top_k=4, seed=0,
        )
        requests = DiurnalTraffic(
            40.0, num_users=dataset.num_users, amplitude=0.7, period_s=2.0,
            seed=0, stream=7,
        ).generate(80)
        session = ServingSession(
            engine, workload,
            scheduler=MicroBatchScheduler(
                MicroBatchConfig(max_batch_size=8, max_wait_s=0.0)
            ),
        )
        records = session.run(requests).records
        # A generous target violates nowhere; an impossible one violates
        # every occupied window; occupied counts are equal.
        none_violated, occupied = slo_violation_windows(records, 1e3, 0.25)
        all_violated, occupied_too = slo_violation_windows(records, 1e-9, 0.25)
        assert none_violated == 0
        assert all_violated == occupied == occupied_too > 1

    def test_empty_and_validation(self):
        assert slo_violation_windows([], 1.0, 1.0) == (0, 0)
        with pytest.raises(ValueError):
            slo_violation_windows([], 0.0, 1.0)
        with pytest.raises(ValueError):
            slo_violation_windows([], 1.0, 0.0)


_NAN = float("nan")


def _plan(**overrides):
    kwargs = dict(
        start_s=0.0, horizon_s=1.0, step_s=0.1, lead_time_s=0.0,
        initial_deployment=(1, 1),
    )
    kwargs.update(overrides)
    return build_scale_plan(
        ForecastModel(base_qps=10.0, amplitude=0.0, period_s=1.0),
        _capacity_model(),
        **kwargs,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: ForecastModel(base_qps=1.0, amplitude=0.5, period_s=_NAN),
        lambda: TrafficForecaster(period_s=_NAN),
        lambda: DeploymentCapacity((1, 1), _NAN),
        lambda: _plan(horizon_s=_NAN),
        lambda: _plan(step_s=_NAN),
        lambda: _plan(lead_time_s=_NAN),
        lambda: _predictive(horizon_s=_NAN),
        lambda: _predictive(step_s=_NAN),
        lambda: _predictive(lead_time_s=_NAN),
        lambda: slo_violation_windows([], _NAN, 1.0),
        lambda: slo_violation_windows([], 1.0, _NAN),
    ],
    ids=[
        "model-period",
        "forecaster-period",
        "capacity",
        "plan-horizon",
        "plan-step",
        "plan-lead",
        "scaler-horizon",
        "scaler-step",
        "scaler-lead",
        "slo-target",
        "slo-window",
    ],
)
def test_nan_parameters_rejected(make):
    """NaN fails every boundary check (``x <= 0`` alone is False for
    NaN, so the checks are written to fail on it); the match rules out a
    ValueError raised deeper in, such as ``int(nan)``."""
    with pytest.raises(ValueError, match="must be"):
        make()


_INF = float("inf")


@pytest.mark.parametrize(
    "make",
    [
        lambda: _plan(horizon_s=_INF),
        lambda: _plan(start_s=_INF),
        lambda: _plan(start_s=_NAN),
        lambda: _predictive(horizon_s=_INF),
    ],
    ids=["plan-horizon", "plan-start-inf", "plan-start-nan", "scaler-horizon"],
)
def test_unbounded_planning_window_rejected(make):
    """An infinite horizon used to walk forecast windows forever (and a
    predictive scaler built with one hung its session at the first fit);
    a non-finite start silently planned nothing."""
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: ScheduledScalePlan([(0.0, (1.7, 1))]),
        lambda: _capacity_model().required_deployment(_NAN),
        lambda: DeploymentCapacity((1, 1), 10.0, energy_per_request_uj=_NAN),
        lambda: DeploymentCapacity((1.5, 1), 10.0),
        lambda: ForecastModel(
            base_qps=1.0, amplitude=0.5, period_s=1.0, trend_qps_per_s=_NAN
        ),
        lambda: ForecastModel(base_qps=_INF, amplitude=0.5, period_s=1.0),
        lambda: TrafficForecaster(period_s=_INF),
    ],
    ids=[
        "plan-fractional-axis",
        "capacity-nan-rate",
        "capacity-nan-energy",
        "capacity-fractional-axis",
        "model-nan-trend",
        "model-inf-base",
        "forecaster-inf-period",
    ],
)
def test_scaling_plane_boundaries_reject_nan_inf_and_fractions(make):
    """Each of these used to be accepted: a fractional deployment axis
    was truncated, a NaN rate picked the largest deployment, and a NaN
    or infinite model parameter made every predicted rate NaN or inf."""
    with pytest.raises(ValueError, match="must be"):
        make()


class TestPredictiveSessionIntegration:
    def test_predictive_scaler_scales_a_real_session(self, serving_setup):
        dataset, filtering, ranking, mapping, workload = serving_setup

        def factory(shards, replicas):
            return make_sharded_engine(
                "imars", filtering, ranking, shards, mapping=mapping,
                num_candidates=12, top_k=4, seed=0,
                replicas_per_shard=replicas,
            )

        probe = factory(1, 1)
        batch_one_s = probe.recommend_query(workload[0]).cost.latency_s
        capacity_one = 8.0 / probe.serve_batch(workload[:8]).cost.latency_s
        period_s = 200.0 * batch_one_s
        traffic = DiurnalTraffic(
            0.8 * capacity_one, num_users=dataset.num_users, amplitude=0.7,
            period_s=period_s, seed=0, stream=11,
        )
        requests = traffic.generate(160)
        capacity = DeploymentCapacityModel(
            [
                DeploymentCapacity((1, 1), capacity_one, 10.0),
                DeploymentCapacity((1, 2), 2.0 * capacity_one, 10.5),
            ],
            utilization=0.7,
        )
        scaler = PredictiveScaler(
            TrafficForecaster(period_s=period_s, min_arrivals=32),
            capacity,
            lead_time_s=4.0 * batch_one_s,
            horizon_s=period_s,
            step_s=period_s / 32.0,
        )
        session = ServingSession(
            factory(1, 1), workload,
            scheduler=MicroBatchScheduler(
                MicroBatchConfig(max_batch_size=8, max_wait_s=0.0)
            ),
            engine_factory=factory,
            deployment=(1, 1),
            scaler=scaler,
        )
        result = session.run(requests)
        assert scaler.model is not None
        assert result.scale_events, "the predicted crest must trigger scale_to"
        assert result.scale_events[0].new_deployment == (1, 2)
        assert "Migration" in result.ledger.by_category()
