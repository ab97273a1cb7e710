"""E-COST -- dollar-cost execution models vs the workload analyzer.

The paper's evaluation (and PRs 2-8) accounts the fleet in joules; the
operator's invoice is in dollars: engine hours, cache get/put fees,
provisioned storage -- with off-peak compute discounted.  Once the bill
is denominated in dollars, *when* a recommendation is computed becomes
an optimisation knob: this experiment prices the three execution models
of :mod:`repro.serving.execution` against each other on two traffic
shapes --

* a **diurnal** trace (sinusoidal day/night rate, one full period over
  the run): predictable valley, heavy Zipf repetition -- precompute
  country;
* a **bursty** MMPP trace (calm <-> flash-crowd): the same repetition
  but spikes nobody can schedule around.

Per trace, the same engines and the same seeded requests are driven
through **lazy** (compute on demand), **eager** (precompute the traffic
head off-peak, ``Warm-up`` rows billed at the off-peak discount) and
**hybrid** (precompute only users with proven recurrence; a
:class:`~repro.serving.cache.RepetitionAwareCache` refuses to cache
one-off results on the demand path).  The workload analyzer
(:mod:`repro.serving.workload_analyzer`) sees only the trace and must
pick the model blind; the report shows the full $/energy/latency
frontier next to its recommendation.

Pinned invariants:

* hybrid never costs more dollars than the worse of eager/lazy, on
  both traces (the safe-default property of thresholded precompute);
* dollar totals are bit-stable: re-running an arm on the same seed
  reproduces the bill to the last float (dollar rows are priced from
  the PR 6 cost-row templates, which are bit-stable);
* the priced SLO report's dollar column equals the price ledger total
  (one source of truth);
* the analyzer discriminates: eager on the diurnal trace, hybrid on
  the bursty one;
* eager's cache hit rate beats lazy's on the diurnal trace (that is
  what the precompute bought).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ExperimentReport, ServingCorpus
from repro.obs import Telemetry
from repro.serving.cache import RepetitionAwareCache, ServingCache
from repro.serving.execution import (
    EagerExecutionModel,
    ExecutionOutcome,
    HybridExecutionModel,
    LazyExecutionModel,
)
from repro.serving.pricing import PriceBook
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.traffic import BurstyTraffic, DiurnalTraffic
from repro.serving.workload_analyzer import (
    analyze_trace,
    recommend_execution_model,
)

__all__ = ["run_cost_study", "COST_STUDY_DEFAULTS"]

#: Study-scale defaults (small corpus: execution-model economics depend
#: on traffic shape and cost ratios, not corpus size).
COST_STUDY_DEFAULTS = {
    "scale": 0.03,
    "num_candidates": 24,
    "top_k": 5,
    "num_requests": 200,
    "probe_batch_size": 16,
    "load_factor": 0.6,
    "num_shards": 2,
    "max_batch_size": 8,
    "max_wait_batch_ones": 2.0,  # scheduler max wait, x batch-1 latency
    "cache_fraction": 3,  # cache capacity = num_users // cache_fraction
    # Diurnal shape: one full day over the run, deep valley.
    "diurnal_amplitude": 0.8,
    # Bursty shape: calm/burst rates relative to the mean operating
    # point; sojourn lengths in *requests* (converted to seconds at the
    # calibrated rate) so the MMPP actually flips state several times
    # per run at any simulation scale.
    "burst_calm_factor": 0.4,
    "burst_spike_factor": 6.0,
    "calm_sojourn_requests": 24.0,
    "burst_sojourn_requests": 12.0,
    # Execution-model knobs.
    "eager_traffic_fraction": 0.75,
    "recurrence_threshold": 0.5,
    "min_repeats": 2,
}


def run_cost_study(
    seed: int = 0,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    price_book: Optional[PriceBook] = None,
    **overrides,
) -> ExperimentReport:
    """Run the dollar-cost study and fold it into a report.

    ``price_book`` overrides the default rates (the pinned invariants
    are relative, so they hold for any sane book); ``trace_out`` /
    ``metrics_out`` export the telemetry plane -- the dollar totals
    land in the Prometheus textfile as ``repro_dollars_*`` series next
    to the energy ones.
    """
    params = dict(COST_STUDY_DEFAULTS)
    params.update(overrides)
    book = price_book or PriceBook()
    telemetry = Telemetry() if (trace_out or metrics_out) else None
    report = ExperimentReport(
        "E-COST",
        "Dollar-cost execution models (eager/lazy/hybrid) + workload analyzer",
    )
    top_k = params["top_k"]
    corpus = ServingCorpus(seed, params["scale"], params["num_candidates"], top_k)
    dataset, workload = corpus.dataset, corpus.workload
    num_shards = params["num_shards"]

    # -- calibrate the operating point against one IMC engine ------------
    batch_one_s, capacity_qps = corpus.calibrate(params["probe_batch_size"])
    rate_qps = params["load_factor"] * capacity_qps
    expected_duration_s = params["num_requests"] / rate_qps
    cache_capacity = max(4, dataset.num_users // params["cache_fraction"])
    scheduler_config = MicroBatchConfig(
        max_batch_size=params["max_batch_size"],
        max_wait_s=params["max_wait_batch_ones"] * batch_one_s,
    )

    traces = {
        "diurnal": DiurnalTraffic(
            base_qps=rate_qps,
            num_users=dataset.num_users,
            amplitude=params["diurnal_amplitude"],
            period_s=expected_duration_s,
            seed=seed,
            stream=160,
        ).generate(params["num_requests"]),
        "bursty": BurstyTraffic(
            calm_qps=params["burst_calm_factor"] * rate_qps,
            burst_qps=params["burst_spike_factor"] * rate_qps,
            num_users=dataset.num_users,
            mean_calm_s=params["calm_sojourn_requests"] / rate_qps,
            mean_burst_s=params["burst_sojourn_requests"] / rate_qps,
            seed=seed,
            stream=173,
        ).generate(params["num_requests"]),
    }

    def session_factory(label: str, repetition_aware: bool):
        def build() -> ServingSession:
            if repetition_aware:
                cache = RepetitionAwareCache(
                    capacity=cache_capacity,
                    rows_per_entry=top_k,
                    min_repeats=params["min_repeats"],
                )
            else:
                cache = ServingCache(
                    capacity=cache_capacity, rows_per_entry=top_k
                )
            return ServingSession(
                corpus.fleet("imars", num_shards),
                workload,
                scheduler=MicroBatchScheduler(scheduler_config),
                cache=cache,
                label=label,
                telemetry=telemetry,
                price_book=book,
            )

        return build

    models = {
        "lazy": LazyExecutionModel(),
        "eager": EagerExecutionModel(
            traffic_fraction=params["eager_traffic_fraction"]
        ),
        "hybrid": HybridExecutionModel(
            recurrence_threshold=params["recurrence_threshold"]
        ),
    }

    outcomes: Dict[str, Dict[str, ExecutionOutcome]] = {}
    recommendations: Dict[str, str] = {}
    for trace_name, requests in traces.items():
        features = analyze_trace(requests)
        recommendations[trace_name] = recommend_execution_model(features)
        report.note(f"{trace_name}:{features.format_row().rstrip()}")
        report.note(
            f"{trace_name}: analyzer recommends "
            f"'{recommendations[trace_name]}'"
        )
        outcomes[trace_name] = {}
        for model_name, model in models.items():
            outcome = model.execute(
                session_factory(
                    f"cost {trace_name} {model_name}",
                    repetition_aware=(model_name == "hybrid"),
                ),
                requests,
            )
            outcomes[trace_name][model_name] = outcome
            report.note(f"{trace_name}:{outcome.format_row().rstrip()}")

    # -- pinned invariants ------------------------------------------------
    for trace_name, arms in outcomes.items():
        worst = max(arms["eager"].dollars, arms["lazy"].dollars)
        report.add(
            f"{trace_name}: hybrid $ <= max(eager $, lazy $)",
            1,
            int(arms["hybrid"].dollars <= worst),
        )
    rerun = models["lazy"].execute(
        session_factory("cost diurnal lazy rerun", repetition_aware=False),
        traces["diurnal"],
    )
    report.add(
        "dollar totals bit-stable across repeated seeded runs",
        1,
        int(rerun.dollars == outcomes["diurnal"]["lazy"].dollars),
    )
    report.add(
        "SLO report dollar column == price ledger total",
        1,
        int(
            all(
                outcome.report.dollars_total
                == outcome.result.price_ledger.total()
                for arms in outcomes.values()
                for outcome in arms.values()
            )
        ),
    )
    report.add(
        "analyzer: eager on diurnal, hybrid on bursty",
        1,
        int(
            recommendations["diurnal"] == "eager"
            and recommendations["bursty"] == "hybrid"
        ),
    )
    report.add(
        "diurnal: eager hit rate >= lazy hit rate",
        1,
        int(
            outcomes["diurnal"]["eager"].report.cache_hit_rate
            >= outcomes["diurnal"]["lazy"].report.cache_hit_rate
        ),
    )
    report.add(
        "eager precompute billed off-peak (discounted Warm-up rows)",
        1,
        int(
            all(
                arms["eager"].result.price_ledger.by_category().get("Warm-up", 0.0)
                > 0.0
                for arms in outcomes.values()
            )
        ),
    )
    report.add(
        "hybrid repetition-aware cache bypasses one-off fills",
        1,
        int(
            all(
                arms["hybrid"].result.cache_stats.get("bypassed", 0) > 0
                for arms in outcomes.values()
            )
        ),
    )

    for trace_name, arms in outcomes.items():
        breakdown = arms["hybrid"].result.price_ledger.by_category()
        cache_fees = sum(
            dollars
            for category, dollars in breakdown.items()
            if category.startswith("Cache-")
        )
        report.note(
            f"{trace_name}: hybrid bill "
            f"${arms['hybrid'].dollars:.6f} "
            f"(cache service fees ${cache_fees:.8f}); "
            f"warmed {len(arms['hybrid'].precomputed_users)} users vs "
            f"eager's {len(arms['eager'].precomputed_users)}"
        )
    report.note(
        f"offered load {rate_qps:,.0f} q/s over {num_shards} shards; "
        f"rates: IMC ${book.imc_per_hour:.2f}/h, cache "
        f"${book.cache_put_per_million:.2f}/M puts, off-peak x"
        f"{book.off_peak_discount:.2f}."
    )
    report.extras["outcomes"] = outcomes
    report.extras["recommendations"] = recommendations
    report.extras["price_book"] = book
    report.extras["rate_qps"] = rate_qps
    if telemetry is not None:
        telemetry.export(trace_out, metrics_out)
    return report
