"""Forecast-driven predictive autoscaling: fit the diurnal curve, scale early.

The reactive :class:`~repro.serving.autoscaler.OnlineScaler` pays for
every ramp twice: the windowed p95 must first overshoot the contract
(the violation), and the scale-out then stalls the engine for the
migration (billed under "Migration") exactly when the queue is deepest.
But diurnal traffic is *predictable*: the next hour's load is largely a
function of the clock, the same hourly-elasticity observation
:mod:`~repro.serving.workload_analyzer` extracts as a feature.  This
module closes that gap:

* :class:`ForecastModel` -- a seasonal-plus-trend rate model
  ``rate(t) = (base + trend*t) * (1 + amplitude*sin(2*pi*t/period + phase))``,
  the same family :class:`~repro.serving.traffic.DiurnalTraffic`
  generates from (so the *oracle* arm of ``E-forecast`` is simply the
  generator's own parameters).
* :class:`TrafficForecaster` -- fits a :class:`ForecastModel` with the
  operator's period to the *observed* arrival series mid-run: arrivals
  are binned into a rate curve and a deterministic linear least-squares
  solve (no RNG anywhere) recovers level, trend and the seasonal term.
* :class:`DeploymentCapacityModel` -- measured capacity and energy per
  candidate deployment; ``required_deployment`` picks the *cheapest*
  deployment with enough headroom for a predicted rate (energy-aware
  placement: GPU spillover only when the IMC grid cannot carry the peak).
* :func:`build_scale_plan` -- walks the forecast over a horizon and
  emits a :class:`~repro.serving.autoscaler.ScheduledScalePlan` whose
  events fire *lead_time_s before* each predicted ramp (lead time >=
  the measured migration latency, so the stall is paid in the valley).
* :class:`PredictiveScaler` -- the live controller: observes arrivals
  through the session's ``observe`` protocol, fits once the forecaster
  is ready, builds the plan with :func:`build_scale_plan`, and from
  then on fires it.  With ``act=False`` it still observes and fits but
  never returns a decision -- the observation-only arm ``E-forecast``
  pins bit-identical.

Everything downstream of the seeded traffic is deterministic: the fit is
a closed-form solve over the observed arrivals, so a fixed-seed session
replays the same forecast, the same plan, and the same scale events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.autoscaler import ScheduledScalePlan, deployment_axes
from repro.serving.scheduler import Batch
from repro.serving.slo import RequestRecord

__all__ = [
    "ForecastModel",
    "TrafficForecaster",
    "DeploymentCapacity",
    "DeploymentCapacityModel",
    "build_scale_plan",
    "PredictiveScaler",
]

#: Rate samples the forecaster bins the observed arrivals into.
_FIT_BINS = 24
#: Share of the period the observed span must reach before the trend
#: column joins the fit (see :class:`TrafficForecaster`).
_TREND_SPAN_FRACTION = 0.75
#: A scale-in must also leave this much headroom over the window peak.
_SCALE_IN_HEADROOM = 1.15
#: Rate samples :meth:`ForecastModel.peak_rate` takes over its window.
_PEAK_SAMPLES = 64
#: Most windows one plan may walk (``horizon_s / step_s``).  Callers plan
#: tens (E-forecast: 24 per period); this bounds a mistyped step's cost.
_MAX_PLAN_WINDOWS = 10_000


def _check_plan_windows(horizon_s: float, step_s: float) -> None:
    """Reject a horizon/step pair that would walk unbounded windows."""
    if not 0.0 < horizon_s < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon_s}")
    if not step_s > 0.0:
        raise ValueError(f"step must be positive, got {step_s}")
    if horizon_s / step_s > _MAX_PLAN_WINDOWS:
        raise ValueError(
            f"horizon {horizon_s} s at step {step_s} s is more than "
            f"{_MAX_PLAN_WINDOWS} plan windows"
        )


@dataclass(frozen=True)
class ForecastModel:
    """Seasonal-plus-trend arrival-rate model.

    ``rate_at`` clamps at zero: a fitted negative level is "no traffic",
    not a sink.

    >>> model = ForecastModel(base_qps=100.0, amplitude=0.5, period_s=4.0)
    >>> float(model.rate_at(1.0))  # peak of sin at t = period/4
    150.0
    >>> float(model.rate_at(3.0))  # trough at t = 3*period/4
    50.0
    """

    base_qps: float
    amplitude: float
    period_s: float
    phase_rad: float = 0.0
    trend_qps_per_s: float = 0.0
    #: RMS of the fit residual in QPS (0.0 for an exact/oracle model) --
    #: an honesty signal: a bursty trace fits poorly and says so here.
    residual_rms_qps: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.period_s < math.inf:
            raise ValueError(f"period must be positive and finite, got {self.period_s}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")
        for name in ("base_qps", "phase_rad", "trend_qps_per_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def rate_at(self, time_s):
        """Predicted instantaneous rate (QPS) at ``time_s`` (scalar or array)."""
        t = np.asarray(time_s, dtype=np.float64)
        level = np.maximum(0.0, self.base_qps + self.trend_qps_per_s * t)
        season = 1.0 + self.amplitude * np.sin(
            2.0 * np.pi * t / self.period_s + self.phase_rad
        )
        return level * np.maximum(0.0, season)

    def peak_rate(self, start_s: float, end_s: float) -> float:
        """The maximum predicted rate over ``[start_s, end_s]``."""
        if end_s < start_s:
            raise ValueError("window end precedes start")
        grid = np.linspace(start_s, end_s, _PEAK_SAMPLES)
        return float(np.max(self.rate_at(grid)))


class TrafficForecaster:
    """Fits a :class:`ForecastModel` to observed arrival timestamps.

    The fit is deterministic and closed-form: arrivals are histogrammed
    into 24 equal-width rate samples over the observed span, and
    ``rate ~ a + b*t + c*sin(w*t) + d*cos(w*t)`` is solved by linear
    least squares (``c*sin + d*cos`` folds back into amplitude + phase).
    The seasonal period is the operator's ``period_s``: a service knows
    its day length.

    ``ready`` gates the fit on evidence: at least ``min_arrivals``
    observations spanning ``min_span_fraction`` of the period, so the
    solve never runs on a sliver of the curve.

    The trend column joins the design matrix only once the observed span
    reaches three quarters of the period: over a fraction of a cycle a
    linear trend is nearly collinear with the rising edge of the
    sinusoid, and the degenerate solve extrapolates garbage -- exactly
    the mid-ramp moment a predictive scaler fits at.  Until then the
    model is pure level + season (trend 0), which extrapolates safely.
    """

    def __init__(
        self,
        period_s: float,
        *,
        min_arrivals: int = 64,
        min_span_fraction: float = 0.35,
    ):
        if not 0.0 < period_s < math.inf:
            raise ValueError(f"period must be positive and finite, got {period_s}")
        if not min_arrivals >= 8:
            raise ValueError(f"min_arrivals must be >= 8, got {min_arrivals}")
        if not 0.0 < min_span_fraction <= 1.0:
            raise ValueError(
                f"min_span_fraction must be in (0, 1], got {min_span_fraction}"
            )
        self.period_s = period_s
        self.min_arrivals = min_arrivals
        self.min_span_fraction = min_span_fraction
        self._arrivals: List[float] = []
        # Running extremes of the arrivals, so ``ready`` is O(1).
        self._first_s = math.inf
        self._last_s = -math.inf

    def observe_many(self, arrivals_s: Iterable[float]) -> None:
        """Fold observed arrival timestamps (in any order)."""
        batch = [float(arrival) for arrival in arrivals_s]
        if batch:
            self._arrivals.extend(batch)
            self._first_s = min(self._first_s, min(batch))
            self._last_s = max(self._last_s, max(batch))

    @property
    def ready(self) -> bool:
        """Enough evidence to fit: count and span thresholds both met."""
        if len(self._arrivals) < self.min_arrivals:
            return False
        span = self._last_s - self._first_s
        return span >= self.min_span_fraction * self.period_s

    def fit(self) -> ForecastModel:
        """Solve for the :class:`ForecastModel`; raises unless :attr:`ready`."""
        if not self.ready:
            raise ValueError(
                f"not enough evidence to fit: {len(self._arrivals)} arrivals "
                f"observed, need >= {self.min_arrivals} spanning "
                f">= {self.min_span_fraction:.0%} of the period"
            )
        arrivals = np.sort(np.asarray(self._arrivals, dtype=np.float64))
        bins = min(_FIT_BINS, max(4, arrivals.size // 4))
        edges = np.linspace(float(arrivals[0]), float(arrivals[-1]), bins + 1)
        counts, _ = np.histogram(arrivals, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        rates = counts / np.diff(edges)
        span = float(centers[-1] - centers[0]) if centers.size > 1 else 0.0
        with_trend = span >= _TREND_SPAN_FRACTION * self.period_s
        omega = 2.0 * np.pi / self.period_s
        columns = [np.ones_like(centers)]
        if with_trend:
            columns.append(centers)
        columns.extend([np.sin(omega * centers), np.cos(omega * centers)])
        design = np.column_stack(columns)
        coeffs, *_ = np.linalg.lstsq(design, rates, rcond=None)
        residual = rates - design @ coeffs
        if not with_trend:
            coeffs = np.insert(coeffs, 1, 0.0)
        level, trend, sin_coef, cos_coef = (float(c) for c in coeffs)
        seasonal_abs = float(np.hypot(sin_coef, cos_coef))
        mean_level = float(np.mean(level + trend * centers))
        if mean_level > 0.0:
            amplitude = min(0.95, seasonal_abs / mean_level)
            phase = float(np.arctan2(cos_coef, sin_coef)) if amplitude else 0.0
        else:
            amplitude, phase = 0.0, 0.0
        return ForecastModel(
            base_qps=max(0.0, level),
            amplitude=amplitude,
            period_s=float(self.period_s),
            phase_rad=phase,
            trend_qps_per_s=trend,
            residual_rms_qps=float(np.sqrt(np.mean(residual**2))),
        )


@dataclass(frozen=True)
class DeploymentCapacity:
    """One candidate deployment's measured capacity and unit energy."""

    deployment: Tuple[int, int]
    capacity_qps: float
    energy_per_request_uj: float = 0.0

    def __post_init__(self) -> None:
        deployment_axes(self.deployment)
        if not self.capacity_qps > 0.0:
            raise ValueError(f"capacity must be positive, got {self.capacity_qps}")
        if not self.energy_per_request_uj >= 0.0:
            raise ValueError(
                f"energy per request must be non-negative, got "
                f"{self.energy_per_request_uj}"
            )


class DeploymentCapacityModel:
    """Energy-aware mapping from predicted rate to required deployment.

    ``utilization`` is the headroom knob: a deployment is adequate for a
    rate only while ``rate <= utilization * capacity`` (running a queueing
    system at measured capacity *is* the SLO violation).  Among adequate
    deployments the minimum ``energy_per_request_uj`` wins (ties broken
    by the smaller deployment tuple), which is what makes the placement
    energy-aware: an expensive GPU-backed entry is chosen only when every
    cheaper entry lacks the headroom.
    """

    def __init__(
        self,
        capacities: Sequence[DeploymentCapacity],
        *,
        utilization: float = 0.7,
    ):
        if not capacities:
            raise ValueError("need at least one measured deployment")
        if not 0.0 < utilization <= 1.0:
            raise ValueError(f"utilization must be in (0, 1], got {utilization}")
        seen = set()
        for entry in capacities:
            if entry.deployment in seen:
                raise ValueError(f"duplicate deployment {entry.deployment}")
            seen.add(entry.deployment)
        self.utilization = utilization
        self._capacity_qps = {entry.deployment: entry.capacity_qps for entry in capacities}
        self._by_energy = sorted(
            capacities,
            key=lambda entry: (entry.energy_per_request_uj, entry.deployment),
        )
        self._max_capacity = max(
            self._by_energy, key=lambda entry: (entry.capacity_qps, entry.deployment)
        )

    def required_deployment(self, rate_qps: float) -> Tuple[int, int]:
        """The cheapest deployment with headroom for ``rate_qps``.

        Falls back to the highest-capacity candidate when even that one
        lacks headroom (scale as far as the grid goes; admission control
        owns the rest).
        """
        if not rate_qps >= 0.0:
            raise ValueError(f"rate must be non-negative, got {rate_qps}")
        for entry in self._by_energy:
            if rate_qps <= self.utilization * entry.capacity_qps:
                return entry.deployment
        return self._max_capacity.deployment

    def capacity_qps(self, deployment: Tuple[int, int]) -> float:
        """Measured capacity of ``deployment``; 0.0 if it was never measured."""
        return self._capacity_qps.get(tuple(deployment), 0.0)


def build_scale_plan(
    model: ForecastModel,
    capacity: DeploymentCapacityModel,
    *,
    start_s: float,
    horizon_s: float,
    step_s: float,
    lead_time_s: float,
    initial_deployment: Tuple[int, int] = (1, 1),
) -> ScheduledScalePlan:
    """Walk the forecast and time a :class:`ScheduledScalePlan` ahead of it.

    Each ``step_s`` window's *peak* predicted rate picks a required
    deployment; a change is emitted ``lead_time_s`` before the window
    opens (clamped to ``start_s``), so the migration stall lands before
    the ramp, not on it.  A move to a deployment of higher measured
    capacity fires at once.  Any other move is a scale-in and is
    conservative: the new deployment must also carry 1.15 times the
    window peak, which keeps a noisy fit from flapping around a
    threshold.  A starting deployment the capacity model never measured
    counts as capacity 0, so every move from it grows.  An empty plan (the
    forecast never crosses a capacity threshold) is legal and
    bit-identical to running with no scaler at all.

    A horizon of more than 10,000 steps raises ``ValueError``, and so
    does a step too small to move the window start in floating point
    (1e-14 s at 1,000 s), which would otherwise walk forever.
    """
    if not 0.0 <= start_s < math.inf:
        raise ValueError(f"start must be non-negative and finite, got {start_s}")
    _check_plan_windows(horizon_s, step_s)
    if not lead_time_s >= 0.0:
        raise ValueError(f"lead time must be non-negative, got {lead_time_s}")
    events: List[Tuple[float, Tuple[int, int]]] = []
    current = tuple(initial_deployment)
    window_start = start_s
    end_s = start_s + horizon_s
    while window_start < end_s:
        window_end = min(window_start + step_s, end_s)
        if window_end == window_start:
            raise ValueError(
                f"step {step_s} s does not advance the window start "
                f"{window_start} s in floating point"
            )
        peak = model.peak_rate(window_start, window_end)
        needed = capacity.required_deployment(peak)
        if needed != current:
            growing = capacity.capacity_qps(needed) > capacity.capacity_qps(current)
            if growing or (
                capacity.required_deployment(peak * _SCALE_IN_HEADROOM) != current
            ):
                fire_s = max(start_s, window_start - lead_time_s)
                events.append((fire_s, needed))
                current = needed
        window_start = window_end
    return ScheduledScalePlan(events)


class PredictiveScaler:
    """Live forecast-driven controller for a :class:`ServingSession`.

    Implements the same ``observe`` protocol as
    :class:`~repro.serving.autoscaler.OnlineScaler`: the session calls it
    after every batch, and a non-None return value feeds ``scale_to``.
    Phase one is pure observation -- every batch's arrivals feed the
    :class:`TrafficForecaster`.  Once the forecaster is
    :attr:`~TrafficForecaster.ready`, the model is fitted *once*,
    :func:`build_scale_plan` times a plan over ``horizon_s``, and from
    then on the plan's timetable drives the session.  ``act=False``
    keeps everything -- observation, fit, plan -- but never returns a
    decision: the observation-only arm whose bit-identity with "no
    scaler" the ``E-forecast`` experiment pins.

    When a session wires a telemetry plane through, the fit emits a
    ``forecast-fit`` instant plus ``repro_forecast_*`` metrics; telemetry
    is observation-only, as everywhere else.
    """

    def __init__(
        self,
        forecaster: TrafficForecaster,
        capacity: DeploymentCapacityModel,
        *,
        lead_time_s: float,
        horizon_s: float,
        step_s: float,
        act: bool = True,
    ):
        if not lead_time_s >= 0.0:
            raise ValueError(f"lead time must be non-negative, got {lead_time_s}")
        _check_plan_windows(horizon_s, step_s)
        self.forecaster = forecaster
        self.capacity = capacity
        self.lead_time_s = lead_time_s
        self.horizon_s = horizon_s
        self.step_s = step_s
        self.act = act
        self.model: Optional[ForecastModel] = None
        self._plan: Optional[ScheduledScalePlan] = None
        self._telemetry = None

    @property
    def planned_events(self) -> List[Tuple[float, Tuple[int, int]]]:
        """The fitted plan's ``(time_s, deployment)`` events; empty before the fit."""
        return self._plan.events if self._plan is not None else []

    def attach_telemetry(self, telemetry) -> None:
        """Called by the session so forecast instants join its trace."""
        self._telemetry = telemetry

    def _emit_fit(self, now_s: float, model: ForecastModel) -> None:
        telemetry = self._telemetry
        if telemetry is None or not telemetry.enabled:
            return
        telemetry.tracer.instant(
            "forecast-fit",
            now_s,
            category="control",
            base_qps=round(model.base_qps, 3),
            amplitude=round(model.amplitude, 4),
            period_s=round(model.period_s, 6),
            residual_rms_qps=round(model.residual_rms_qps, 3),
            planned_events=len(self.planned_events),
        )
        telemetry.metrics.counter(
            "repro_forecast_fits_total",
            "Forecast model fits performed by the predictive scaler.",
        ).inc()
        telemetry.metrics.counter(
            "repro_forecast_planned_events_total",
            "Scale events emitted by forecast-built scale plans.",
        ).inc(len(self.planned_events))
        telemetry.metrics.gauge(
            "repro_forecast_residual_rms_qps",
            "RMS residual of the latest traffic forecast fit (QPS).",
        ).set(model.residual_rms_qps)

    def observe(
        self,
        batch: Batch,
        occupancy_s: float,
        records: Sequence[RequestRecord],
        current: Tuple[int, int],
    ) -> Optional[Tuple[int, int]]:
        """Fold arrivals; fit + plan once ready; then fire the timetable."""
        self.forecaster.observe_many(request.arrival_s for request in batch.requests)
        if self.model is None and self.forecaster.ready:
            self.model = self.forecaster.fit()
            self._plan = build_scale_plan(
                self.model,
                self.capacity,
                start_s=batch.dispatch_s,
                horizon_s=self.horizon_s,
                step_s=self.step_s,
                lead_time_s=self.lead_time_s,
                initial_deployment=tuple(current),
            )
            self._emit_fit(batch.dispatch_s, self.model)
        if not self.act or self._plan is None:
            return None
        decision = self._plan.observe(batch, occupancy_s, records, current)
        if decision is not None and tuple(decision) == tuple(current):
            return None  # already there: never pay a no-op migration
        return decision
