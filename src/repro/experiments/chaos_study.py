"""E-CHAOS -- fault injection vs the self-healing serving fleet.

The paper's evaluation assumes immortal hardware: every query the
protocol offers is answered.  A production recommender is not granted
that -- replicas crash, shards go dark, nodes straggle, caches get
wiped.  This experiment runs the same calibrated serving stack through
a seeded :class:`~repro.serving.faults.FaultPlan` ladder
(:func:`~repro.serving.faults.escalating_scenarios`) twice per rung:

* **resilience off** -- faults are injected but nobody recovers: a
  crashed replica's queries are dropped, a response missing a corpus
  slice is rejected.  Availability collapses in proportion to the
  scheduled downtime;
* **resilience on** -- the :mod:`~repro.serving.resilience` layer
  (timeouts + retries with failover, tail hedging, circuit breakers,
  partial scatter-gather) keeps answering: crashes are detected and
  failed over, stragglers are hedged, a dark shard costs *recall*
  (partial answers from the survivors) instead of availability.

Both arms face bit-identical traffic, engines and fault schedules, so
every delta is attributable to the recovery policy.  The headline
numbers per rung: availability, SLO violations, p95 inflation over a
healthy (zero-fault) fleet, recall overlap against the healthy fleet's
recommendations, retry/hedge energy amplification, and the plan's MTTR.

The pinned acceptance rung is ``moderate`` (seeded replica crashes +
one shard outage + stragglers): the resilient fleet must hold
availability >= 99% with p95 <= 2x the healthy fleet's while the
resilience-off fleet visibly drops requests.  A zero-fault control run
(empty plan, resilience attached) must stay *bit-identical* to the
unwrapped healthy fleet -- recommendations, ledger totals and all.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ExperimentReport, ServingCorpus
from repro.obs import Telemetry
from repro.serving.cache import ServingCache
from repro.serving.faults import FaultPlan, escalating_scenarios
from repro.serving.resilience import ResilienceConfig
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingResult, ServingSession
from repro.serving.traffic import PoissonTraffic

__all__ = ["run_chaos_study", "CHAOS_STUDY_DEFAULTS"]

#: Study-scale defaults.  The fleet is the smallest topology where every
#: resilience behaviour has room to act (failover needs a peer replica,
#: partial gather needs a surviving shard).  Time-like resilience knobs
#: are expressed as multiples of the measured batch-1 latency so the
#: study is scale-free; the absolute seconds are derived at run time.
CHAOS_STUDY_DEFAULTS = {
    "scale": 0.03,
    "num_candidates": 24,
    "top_k": 5,
    "num_requests": 240,
    "probe_batch_size": 16,
    "load_factor": 0.6,
    "num_shards": 2,
    "replicas_per_shard": 2,
    "max_batch_size": 8,
    "slo_factor": 6.0,
    "max_wait_fraction": 0.25,  # of the p95 contract
    "cache_fraction": 4,
    # Resilience knobs (see ResilienceConfig): a failure-threshold of 1,
    # a tight timeout, one failover retry (a lane that fails twice goes
    # partial rather than burning more detection time) and early hedges
    # keep the detection tax low enough that the recovered tail stays
    # inside the 2x acceptance envelope.  The moderate load factor
    # leaves headroom to drain the backlog a detection stall builds up.
    "timeout_factor": 1.2,
    "max_retries": 1,
    "breaker_failure_threshold": 1,
    "cooldown_batch_ones": 10.0,  # breaker cooldown, x batch-1 latency
    "backoff_batch_ones": 0.25,  # retry backoff base, x batch-1 latency
    "hedge_factor": 1.5,
    "hedge_delay_factor": 1.05,
    # Acceptance envelope of the pinned ("moderate") rung.
    "min_availability": 0.99,
    "max_p95_inflation": 2.0,
}


def _bit_identical(left: ServingResult, right: ServingResult) -> bool:
    """Same recommendations AND same ledger totals, record for record."""
    if len(left.records) != len(right.records):
        return False
    if not all(
        a.request.request_id == b.request.request_id
        and a.items == b.items
        and a.latency_s == b.latency_s
        for a, b in zip(left.records, right.records)
    ):
        return False
    return left.ledger.by_category() == right.ledger.by_category()


def _recall_vs_healthy(result: ServingResult, healthy: ServingResult) -> float:
    """Mean per-request overlap with the healthy fleet's served items.

    A failed request scores zero (nothing was recommended), a partial
    one scores whatever fraction of the healthy top-k it still covers --
    the user-visible cost of serving degraded answers.
    """
    reference = {
        record.request.request_id: record.items for record in healthy.records
    }
    overlaps = []
    for record in result.records:
        want = reference.get(record.request.request_id)
        if not want:
            continue
        got = set(record.items)
        overlaps.append(sum(1 for item in want if item in got) / len(want))
    return sum(overlaps) / len(overlaps) if overlaps else 0.0


def run_chaos_study(
    seed: int = 0,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    **overrides,
) -> ExperimentReport:
    """Run the chaos study and fold it into a report.

    ``trace_out`` / ``metrics_out`` enable the telemetry plane and
    export the combined trace / Prometheus textfile across every arm --
    fault windows, retries, hedges and breaker transitions land on a
    dedicated ``faults`` track next to the serve spans they perturb.
    """
    params = dict(CHAOS_STUDY_DEFAULTS)
    params.update(overrides)
    telemetry = Telemetry() if (trace_out or metrics_out) else None
    report = ExperimentReport(
        "E-CHAOS",
        "Fault injection: self-healing fleet vs resilience-off",
    )
    top_k = params["top_k"]
    corpus = ServingCorpus(seed, params["scale"], params["num_candidates"], top_k)
    dataset, workload = corpus.dataset, corpus.workload
    num_shards = params["num_shards"]
    replicas = params["replicas_per_shard"]

    # -- calibrate the operating point against one IMC engine ------------
    batch_one_s, capacity_qps = corpus.calibrate(params["probe_batch_size"])
    rate_qps = params["load_factor"] * capacity_qps
    slo_s = params["slo_factor"] * batch_one_s
    cache_capacity = max(4, dataset.num_users // params["cache_fraction"])
    scheduler_config = MicroBatchConfig(
        max_batch_size=params["max_batch_size"],
        max_wait_s=params["max_wait_fraction"] * slo_s,
    )
    resilience = ResilienceConfig(
        timeout_factor=params["timeout_factor"],
        default_timeout_s=batch_one_s,
        max_retries=params["max_retries"],
        backoff_base_s=params["backoff_batch_ones"] * batch_one_s,
        breaker_failure_threshold=params["breaker_failure_threshold"],
        breaker_cooldown_s=params["cooldown_batch_ones"] * batch_one_s,
        hedge_factor=params["hedge_factor"],
        hedge_delay_factor=params["hedge_delay_factor"],
    )

    traffic = PoissonTraffic(
        rate_qps, num_users=dataset.num_users, seed=seed, stream=150
    )
    requests = traffic.generate(params["num_requests"])
    duration_s = max(request.arrival_s for request in requests)

    def run_arm(label: str, faults=None, shields=None) -> ServingResult:
        session = ServingSession(
            corpus.fleet("imars", num_shards, replicas),
            workload,
            scheduler=MicroBatchScheduler(scheduler_config),
            cache=ServingCache(capacity=cache_capacity, rows_per_entry=top_k),
            label=label,
            telemetry=telemetry,
            faults=faults,
            resilience=shields,
        )
        return session.run(requests)

    # -- control arms: healthy fleet, and the wrapped-but-idle fleet -----
    healthy = run_arm("chaos healthy")
    wrapped = run_arm(
        "chaos wrapped-idle", faults=FaultPlan(()), shields=resilience
    )
    report.note(healthy.report.format_row().strip())
    report.add(
        "empty plan: wrapped fleet bit-identical to unwrapped (records+ledger)",
        1,
        int(_bit_identical(healthy, wrapped)),
    )
    healthy_p95_ms = healthy.report.p95_ms
    healthy_energy_uj = healthy.ledger.total().energy_uj

    # -- the escalation ladder: off vs on per rung ------------------------
    scenarios = escalating_scenarios(duration_s, num_shards, replicas, seed=seed)
    arms: Dict[str, Dict[str, ServingResult]] = {}
    for name, plan in scenarios.items():
        off = run_arm(f"chaos {name} off", faults=plan)
        on = run_arm(f"chaos {name} on", faults=plan, shields=resilience)
        arms[name] = {"off": off, "on": on}
        for arm_name, result in (("off", off), ("on", on)):
            stats = result.fault_stats or {}
            counters = stats.get("counters", {})
            recall = _recall_vs_healthy(result, healthy)
            amplification = (
                result.ledger.total().energy_uj / healthy_energy_uj
            )
            report.note(
                f"{name:<8s} {arm_name:<3s} "
                f"avail={100.0 * result.report.availability:6.2f}% "
                f"p95={result.report.p95_ms:7.3f}ms "
                f"(x{result.report.p95_ms / healthy_p95_ms:4.2f} healthy) "
                f"recall={recall:5.3f} energy=x{amplification:4.2f} "
                f"retries={stats.get('retries_used', 0)} "
                f"hedges={counters.get('hedges', 0)} "
                f"partial={counters.get('partial_queries', 0)}"
            )

    # -- acceptance invariants on the pinned rung -------------------------
    pinned_on = arms["moderate"]["on"]
    pinned_off = arms["moderate"]["off"]
    report.add(
        "pinned rung: resilient availability >= 99%",
        1,
        int(pinned_on.report.availability >= params["min_availability"]),
    )
    report.add(
        "pinned rung: resilient p95 <= 2x healthy p95",
        1,
        int(
            pinned_on.report.p95_ms
            <= params["max_p95_inflation"] * healthy_p95_ms
        ),
    )
    report.add(
        "pinned rung: resilience-off drops requests",
        1,
        int(pinned_off.report.failed_count > 0),
    )
    report.add(
        "every rung: resilience-on availability >= off",
        1,
        int(
            all(
                rung["on"].report.availability
                >= rung["off"].report.availability
                for rung in arms.values()
            )
        ),
    )
    report.add(
        "dark shards cost recall, not availability (partials answered)",
        1,
        int(
            pinned_on.fault_stats["counters"]["partial_queries"] > 0
            and pinned_on.fault_stats["recall_loss"] > 0.0
        ),
    )

    mttr_s = pinned_on.fault_stats["mttr_s"]
    report.note(
        f"offered load {rate_qps:,.0f} q/s over {num_shards} shards x "
        f"{replicas} replicas; healthy p95 {healthy_p95_ms:.3f} ms; "
        f"pinned-rung MTTR {mttr_s * 1e3:.2f} ms "
        f"(breaker cooldown {resilience.breaker_cooldown_s * 1e3:.2f} ms)."
    )
    report.extras["healthy_report"] = healthy.report
    report.extras["scenario_reports"] = {
        name: {arm: result.report for arm, result in rung.items()}
        for name, rung in arms.items()
    }
    report.extras["fault_stats"] = {
        name: {arm: result.fault_stats for arm, result in rung.items()}
        for name, rung in arms.items()
    }
    report.extras["recall_vs_healthy"] = {
        name: {
            arm: _recall_vs_healthy(result, healthy)
            for arm, result in rung.items()
        }
        for name, rung in arms.items()
    }
    report.extras["resilience"] = resilience
    report.extras["rate_qps"] = rate_qps
    report.extras["duration_s"] = duration_s
    if telemetry is not None:
        telemetry.export(trace_out, metrics_out)
    return report
