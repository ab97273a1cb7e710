"""E-HETERO -- heterogeneous serving: IMC+GPU spillover, live scaling,
admission control.

The paper's core claim is an energy comparison between the in-memory
engine and a GPU at batch 1.  The production question behind it is
sharper: *when is it worth spilling overflow traffic to the GPU, and
what does that cost in energy?*  This experiment answers it in three
acts, all against the same seeded corpus and calibrated cost models:

1. **Fleet frontier.**  The iMARS fabric is fixed custom hardware; the
   marginal engine an operator can actually add is a commodity GPU.  So
   three fleets face identical traffic that overloads a lone IMC
   engine: IMC-only (the single fabric, queueing), GPU-only (the
   paper's baseline serving everything), and a *spillover* fleet (the
   same fabric plus one :class:`~repro.core.pipeline.GPUSpilloverEngine`
   behind a cost-aware router that overflows to the GPU only when the
   primary's queued work threatens the p95 target).  The frontier is
   energy-per-request vs p95: IMC-only is cheapest but queues, GPU-only
   pays two orders of magnitude more energy, spillover sits between --
   near-IMC energy with a contained tail.  Because the spillover GPU
   serves the *deployed* model (same int8 tables, same LSH index), its
   recommendations are bit-identical to the IMC fleet's -- checked
   record-for-record.

2. **Live scale-out.**  A bursty stream hits a minimal (1, 1)
   deployment driven by an :class:`~repro.serving.autoscaler.OnlineScaler`:
   when the windowed p95 overshoots, the session re-shards *mid-run*,
   paying the state migration (re-partitioned item rows, replica-slice
   copies, cache invalidation) to the energy ledger instead of
   restarting the simulation.

3. **Overload shedding.**  A two-tenant mix offered far beyond what the
   *maximum* deployment can serve runs once without admission control
   (every request misses) and once with the SLO-guarded
   :class:`~repro.serving.admission.AdmissionController`: requests
   projected past their tenant's budget are shed at the front door,
   borderline ones are degraded to a reduced top-k, and the survivors'
   tail comes back under control -- with shed/degrade counts reported
   per tenant, because goodput bought by rejection must say so.

Everything is seeded (traffic, engines, caches), so the reported
frontier, scale events and shed counts are deterministic artefacts
guarded by the benchmark regression test.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ExperimentReport, ServingCorpus
from repro.obs import Telemetry
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.autoscaler import OnlineScaler, OnlineScalerConfig
from repro.serving.cache import ServingCache, TinyLFUAdmission
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingResult, ServingSession
from repro.serving.traffic import (
    BurstyTraffic,
    MultiTenantTraffic,
    PoissonTraffic,
    TenantSpec,
    TraceReplayTraffic,
)

__all__ = ["run_hetero_study", "HETERO_STUDY_DEFAULTS"]

#: Study-scale defaults.  ``load_factor`` multiplies one IMC engine's
#: *batched* capacity so a lone engine queues and the fleet composition
#: matters; ``slo_factor`` sets the p95 contract as a multiple of the
#: IMC batch-1 latency; ``overload_factor`` is the admission scenario's
#: offered load (beyond any deployment in bounds).
HETERO_STUDY_DEFAULTS = {
    "scale": 0.03,
    "num_candidates": 24,
    "top_k": 5,
    "num_requests": 140,
    "frontier_requests": 300,
    "probe_batch_size": 16,
    "load_factor": 5.0,
    "slo_factor": 6.0,
    "overload_factor": 12.0,
    "tenant_slo_factors": (8.0, 16.0),  # (movielens, bursty-b)
    "max_batch_size": 16,
    # The GPU's batch amortisation only beats the fabric's pipelining on
    # deep backlogs, so the frontier act drains with large rounds.
    "frontier_batch_size": 64,
    "max_wait_fraction": 0.25,  # of the p95 contract
    "cache_fraction": 4,
    "spill_headroom": 0.8,
    "degraded_top_k": 2,
    "scaler_window": 16,
    "scaler_bounds": (2, 2),  # (max_shards, max_replicas) for act 2
}


def _records_identical(left: ServingResult, right: ServingResult) -> bool:
    """Same served items for every request id (the spillover invariant)."""
    if len(left.records) != len(right.records):
        return False
    return all(
        a.request.request_id == b.request.request_id and a.items == b.items
        for a, b in zip(left.records, right.records)
    )


def run_hetero_study(
    seed: int = 0,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    **overrides,
) -> ExperimentReport:
    """Run the heterogeneous-fleet study and fold it into a report.

    ``trace_out`` / ``metrics_out`` enable the telemetry plane and write
    the combined trace (Chrome trace-event JSON, or JSONL for a
    ``.jsonl`` path) and Prometheus textfile covering every session in
    the study.  Tracing is observation-only: the reported frontier,
    scale events and shed counts are bit-identical with it on or off.
    """
    params = dict(HETERO_STUDY_DEFAULTS)
    params.update(overrides)
    telemetry = Telemetry() if (trace_out or metrics_out) else None
    report = ExperimentReport(
        "E-HETERO",
        "Heterogeneous fleet: IMC+GPU spillover, live scaling, admission",
    )
    top_k = params["top_k"]
    corpus = ServingCorpus(seed, params["scale"], params["num_candidates"], top_k)
    dataset, workload = corpus.dataset, corpus.workload

    # -- calibrate the operating point against one IMC engine ------------
    batch_one_s, capacity_qps = corpus.calibrate(params["probe_batch_size"])
    rate_qps = params["load_factor"] * capacity_qps
    slo_s = params["slo_factor"] * batch_one_s
    slo_ms = slo_s * 1e3
    cache_capacity = max(4, dataset.num_users // params["cache_fraction"])
    scheduler_config = MicroBatchConfig(
        max_batch_size=params["max_batch_size"],
        max_wait_s=params["max_wait_fraction"] * slo_s,
    )

    frontier_scheduler_config = MicroBatchConfig(
        max_batch_size=params["frontier_batch_size"],
        max_wait_s=params["max_wait_fraction"] * slo_s,
    )

    def run_fleet(name: str, engine) -> ServingResult:
        session = ServingSession(
            engine,
            workload,
            scheduler=MicroBatchScheduler(frontier_scheduler_config),
            cache=ServingCache(
                capacity=cache_capacity,
                rows_per_entry=top_k,
                admission=TinyLFUAdmission(seed=seed),
            ),
            label=f"hetero {name}",
            telemetry=telemetry,
        )
        return session.run(requests)

    # -- act 1: the fleet frontier ----------------------------------------
    traffic = PoissonTraffic(
        rate_qps, num_users=dataset.num_users, seed=seed, stream=110
    )
    requests = traffic.generate(params["frontier_requests"])
    fleets = {
        "imc-only": corpus.fleet("imars"),
        "gpu-only": corpus.fleet("gpu"),
        "spillover": corpus.fleet(
            "imars",
            spillover_replicas_per_shard=1,
            spillover_slo_s=slo_s,
            spill_headroom=params["spill_headroom"],
        ),
    }
    frontier: Dict[str, ServingResult] = {}
    for name, engine in fleets.items():
        frontier[name] = run_fleet(name, engine)
        report.note(frontier[name].report.format_row().strip())
    spill_stats = frontier["spillover"].spill_stats or {}
    report.note(
        f"spillover routed {spill_stats.get('spilled', 0)} of "
        f"{spill_stats.get('assigned', 0)} engine queries to the GPU "
        f"({100.0 * spill_stats.get('spill_rate', 0.0):.1f}%)."
    )

    report.add(
        "spillover recommendations identical to IMC-only (records)",
        1,
        int(_records_identical(frontier["imc-only"], frontier["spillover"])),
    )
    energy = {
        name: result.report.energy_per_request_uj
        for name, result in frontier.items()
    }
    p95 = {name: result.report.p95_ms for name, result in frontier.items()}
    report.add(
        "energy frontier ordered: IMC <= spillover <= GPU",
        1,
        int(energy["imc-only"] <= energy["spillover"] <= energy["gpu-only"]),
    )
    report.add(
        "spillover cuts the IMC-only p95 tail",
        1,
        int(p95["spillover"] < p95["imc-only"]),
    )
    report.add(
        "spillover actually spilled (router engaged)",
        1,
        int(spill_stats.get("spilled", 0) > 0),
    )

    # -- act 2: live scale-out under burst --------------------------------
    bursty = BurstyTraffic(
        calm_qps=0.8 * rate_qps,
        burst_qps=3.0 * rate_qps,
        num_users=dataset.num_users,
        mean_calm_s=20.0 / rate_qps,
        mean_burst_s=20.0 / rate_qps,
        seed=seed,
        stream=120,
    )
    burst_requests = bursty.generate(params["num_requests"])
    max_shards, max_replicas = params["scaler_bounds"]

    def engine_factory(shards: int, replicas: int):
        return corpus.fleet("imars", shards, replicas)

    def run_burst(label: str, scaler) -> ServingResult:
        session = ServingSession(
            engine_factory(1, 1),
            workload,
            scheduler=MicroBatchScheduler(scheduler_config),
            cache=ServingCache(capacity=cache_capacity, rows_per_entry=top_k),
            label=label,
            engine_factory=engine_factory,
            deployment=(1, 1),
            scaler=scaler,
            telemetry=telemetry,
        )
        return session.run(burst_requests)

    frozen = run_burst("hetero frozen (1,1)", None)
    scaled = run_burst(
        "hetero online-scaled",
        OnlineScaler(
            OnlineScalerConfig(
                p95_target_s=slo_s,
                window=params["scaler_window"],
                cooldown=params["scaler_window"],
                max_shards=max_shards,
                max_replicas=max_replicas,
            )
        ),
    )
    report.note(frozen.report.format_row().strip())
    report.note(scaled.report.format_row().strip())
    for event in scaled.scale_events:
        report.note(
            f"scale event @{event.time_s * 1e3:8.3f}ms "
            f"{event.old_deployment} -> {event.new_deployment} "
            f"({event.moved_rows} rows, {event.invalidated_entries} cache "
            f"entries, {event.cost.energy_uj:.4f} uJ)"
        )
    migration = scaled.ledger.by_category().get("Migration")
    report.add(
        "online scaler rescaled mid-run (events recorded)",
        1,
        int(len(scaled.scale_events) > 0),
    )
    report.add(
        "migration energy charged to the ledger",
        1,
        int(migration is not None and migration.energy_pj > 0.0),
    )
    report.add(
        "online scaling beats the frozen (1,1) p95",
        1,
        int(scaled.report.p95_ms < frozen.report.p95_ms),
    )

    # -- act 3: admission control past the scaling ceiling ----------------
    overload_qps = params["overload_factor"] * capacity_qps
    movielens_factor, bursty_factor = params["tenant_slo_factors"]
    tenant_slos_ms = {
        "movielens": movielens_factor * batch_one_s * 1e3,
        "bursty-b": bursty_factor * batch_one_s * 1e3,
    }
    mix = MultiTenantTraffic(
        [
            TenantSpec(
                name="movielens",
                traffic=TraceReplayTraffic.from_movielens(
                    dataset, 0.6 * overload_qps, seed=seed, stream=130
                ),
                share=0.6,
                p95_slo_ms=tenant_slos_ms["movielens"],
            ),
            TenantSpec(
                name="bursty-b",
                traffic=BurstyTraffic(
                    calm_qps=0.3 * overload_qps,
                    burst_qps=1.5 * overload_qps,
                    num_users=dataset.num_users,
                    mean_calm_s=20.0 / overload_qps,
                    mean_burst_s=20.0 / overload_qps,
                    seed=seed,
                    stream=140,
                ),
                share=0.4,
                p95_slo_ms=tenant_slos_ms["bursty-b"],
            ),
        ]
    )
    mix_requests = mix.generate(params["num_requests"])
    mix_workload = workload + workload  # tenant B replays the same corpus

    def run_mix(label: str, admission) -> ServingResult:
        # No result cache here: the overload act models the worst case
        # (cold, distinct traffic) where the scaling ceiling truly binds.
        session = ServingSession(
            corpus.fleet("imars", max_shards, max_replicas),
            mix_workload,
            scheduler=MicroBatchScheduler(scheduler_config),
            cache=None,
            label=label,
            admission=admission,
            telemetry=telemetry,
        )
        return session.run(mix_requests)

    unguarded = run_mix("hetero overload unguarded", None)
    controller = AdmissionController(
        AdmissionConfig(
            slo_ms=slo_ms,
            tenant_slos_ms=tenant_slos_ms,
            degraded_top_k=params["degraded_top_k"],
        )
    )
    guarded = run_mix("hetero overload guarded", controller)
    report.note(unguarded.report.format_row().strip())
    report.note(guarded.report.format_row().strip())
    for tenant, tenant_report in sorted(guarded.tenant_reports.items()):
        report.note(
            f"tenant {tenant}: shed={tenant_report.shed_count} "
            f"degraded={tenant_report.degraded_count} "
            f"p95={tenant_report.p95_ms:.3f}ms "
            f"(budget {tenant_slos_ms[tenant]:.3f}ms)"
        )
    report.add(
        "unguarded overload misses every tenant budget",
        1,
        int(
            all(
                unguarded.tenant_reports[tenant].p95_ms > slo
                for tenant, slo in tenant_slos_ms.items()
            )
        ),
    )
    report.add(
        "admission control sheds and degrades under overload",
        1,
        int(
            guarded.report.shed_count > 0 and guarded.report.degraded_count > 0
        ),
    )
    report.add(
        "shedding reins in the served tail (guarded p95 < unguarded)",
        1,
        int(guarded.report.p95_ms < unguarded.report.p95_ms),
    )

    report.note(
        f"offered load {rate_qps:,.0f} q/s "
        f"({params['load_factor']:.1f}x one IMC engine's "
        f"batch-{params['probe_batch_size']} capacity); p95 contract "
        f"{slo_ms:.3f} ms ({params['slo_factor']:.0f}x batch-1 latency); "
        f"overload act at {overload_qps:,.0f} q/s."
    )
    report.extras["frontier"] = {
        name: result.report for name, result in frontier.items()
    }
    report.extras["spill_stats"] = spill_stats
    report.extras["scale_events"] = scaled.scale_events
    report.extras["frozen_report"] = frozen.report
    report.extras["scaled_report"] = scaled.report
    report.extras["admission_stats"] = guarded.admission_stats
    report.extras["guarded_report"] = guarded.report
    report.extras["unguarded_report"] = unguarded.report
    report.extras["rate_qps"] = rate_qps
    report.extras["slo_ms"] = slo_ms
    if telemetry is not None:
        telemetry.export(trace_out, metrics_out)
    return report
