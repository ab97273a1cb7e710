"""E-AUTOSCALE -- closed-loop right-sizing of the serving deployment.

The serving study (E-SERVE) measures fixed deployments; this experiment
asks the operational question: *how many shards and replicas does the
iMARS fabric need to honour a p95 latency contract, and what is the
cheapest such deployment?*  For each traffic pattern -- steady Poisson,
flash-crowd bursty, and a multi-tenant mix of a MovieLens trace-replay
tenant with a bursty Criteo-class tenant under per-tenant SLOs -- the
:class:`~repro.serving.autoscaler.Autoscaler` starts from a single
engine, simulates both single-step scale-outs (add a shard vs add a
replica) against the same recorded request stream, follows the axis that
measures better, and stops at the first configuration whose global and
per-tenant p95s all meet their contracts, reporting the minimum-energy
feasible config it saw.

The offered load is calibrated to overload one engine (a fixed multiple
of its *batched* capacity), so the single-engine start always violates
the SLO and the loop must genuinely scale out.  Every stage is seeded --
traffic, engines, cache admission -- so the converged (shards, replicas)
is a deterministic artefact guarded by a regression test.

The deployments under test use the full PR-4 serving stack: replica
groups, the SLO-aware adaptive micro-batch scheduler, and a TinyLFU-
admission cache warmed with the trace's most popular users.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import ServeQuery
from repro.experiments.common import ExperimentReport, ServingCorpus
from repro.obs import Telemetry
from repro.serving.autoscaler import AutoscaleResult, Autoscaler, AutoscalerConfig
from repro.serving.cache import ServingCache, TinyLFUAdmission
from repro.serving.scheduler import AdaptiveBatchConfig, AdaptiveMicroBatchScheduler
from repro.serving.session import ServingResult, ServingSession
from repro.serving.traffic import (
    BurstyTraffic,
    MultiTenantTraffic,
    PoissonTraffic,
    Request,
    TenantSpec,
    TraceReplayTraffic,
)

__all__ = ["run_autoscale_study", "AUTOSCALE_STUDY_DEFAULTS"]

#: Study-scale defaults.  ``load_factor`` multiplies the single engine's
#: *batched* capacity, so the (1, 1) start is genuinely overloaded;
#: ``slo_factor`` sets the p95 contract as a multiple of the engine's
#: batch-1 latency (tight enough to need scale-out, loose enough to be
#: reachable inside the search bounds).
AUTOSCALE_STUDY_DEFAULTS = {
    "scale": 0.03,
    "num_candidates": 24,
    "top_k": 5,
    "num_requests": 120,
    "probe_batch_size": 16,
    "load_factor": 2.5,
    "slo_factor": 6.0,
    "tenant_slo_factors": (6.0, 12.0),  # (movielens, criteo-class)
    "max_shards": 3,
    "max_replicas": 3,
    "max_steps": 4,
    "cache_fraction": 4,  # capacity = num_users // cache_fraction
    "warm_fraction": 8,  # warmed users = num_users // warm_fraction
}


def _popular_users(requests: Sequence[Request], count: int) -> List[int]:
    """The ``count`` most-requested user ids (warm-up targets)."""
    frequency = Counter(request.user for request in requests)
    return [user for user, _ in frequency.most_common(count)]


def run_autoscale_study(
    seed: int = 0,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    **overrides,
) -> ExperimentReport:
    """Run the closed-loop autoscaler across traffic patterns.

    ``trace_out`` / ``metrics_out`` enable the telemetry plane and write
    the combined trace (Chrome trace-event JSON, or JSONL for a
    ``.jsonl`` path) and Prometheus textfile covering every evaluated
    deployment.  Tracing is observation-only: the converged deployments
    are bit-identical with it on or off.
    """
    params = dict(AUTOSCALE_STUDY_DEFAULTS)
    params.update(overrides)
    telemetry = Telemetry() if (trace_out or metrics_out) else None
    report = ExperimentReport(
        "E-AUTOSCALE", "Closed-loop autoscaler: shards x replicas vs p95 SLO"
    )
    corpus = ServingCorpus(
        seed, params["scale"], params["num_candidates"], params["top_k"]
    )
    dataset, workload = corpus.dataset, corpus.workload

    # -- calibrate the operating point against one engine ----------------
    batch_one_s, batched_capacity_qps = corpus.calibrate(params["probe_batch_size"])
    rate_qps = params["load_factor"] * batched_capacity_qps
    slo_ms = params["slo_factor"] * batch_one_s * 1e3

    # -- the traffic patterns the deployment is sized against ------------
    tenant_b = ServingCorpus(
        seed + 1, params["scale"], params["num_candidates"], params["top_k"]
    )
    movielens_factor, criteo_factor = params["tenant_slo_factors"]
    tenant_slos_ms = {
        "movielens": movielens_factor * batch_one_s * 1e3,
        "criteo": criteo_factor * batch_one_s * 1e3,
    }
    mixed_traffic = MultiTenantTraffic(
        [
            TenantSpec(
                name="movielens",
                traffic=TraceReplayTraffic.from_movielens(
                    dataset, 0.6 * rate_qps, seed=seed, stream=50
                ),
                share=0.6,
                p95_slo_ms=tenant_slos_ms["movielens"],
            ),
            TenantSpec(
                name="criteo",
                traffic=BurstyTraffic(
                    calm_qps=0.25 * rate_qps,
                    burst_qps=1.2 * rate_qps,
                    num_users=tenant_b.dataset.num_users,
                    mean_calm_s=0.05,
                    mean_burst_s=0.02,
                    seed=seed,
                    stream=60,
                ),
                share=0.4,
                p95_slo_ms=tenant_slos_ms["criteo"],
            ),
        ]
    )
    patterns: List[Tuple[str, object, Sequence[ServeQuery], Dict[str, float]]] = [
        (
            "poisson",
            PoissonTraffic(rate_qps, num_users=dataset.num_users, seed=seed, stream=70),
            workload,
            {},
        ),
        (
            "bursty",
            # Sojourn means are scaled to the inter-arrival time so the
            # trace actually alternates calm <-> burst several times over
            # its ~num_requests/rate span.
            BurstyTraffic(
                calm_qps=0.8 * rate_qps,
                burst_qps=3.0 * rate_qps,
                num_users=dataset.num_users,
                mean_calm_s=15.0 / rate_qps,
                mean_burst_s=15.0 / rate_qps,
                seed=seed,
                stream=80,
            ),
            workload,
            {},
        ),
        ("multi-tenant", mixed_traffic, workload + tenant_b.workload, tenant_slos_ms),
    ]

    # -- one closed loop per pattern -------------------------------------
    outcomes: Dict[str, AutoscaleResult] = {}
    for name, traffic, pattern_workload, tenant_slos in patterns:
        requests = traffic.generate(params["num_requests"])
        warm_users = _popular_users(
            requests, max(1, traffic.num_users // params["warm_fraction"])
        )
        cache_capacity = max(4, traffic.num_users // params["cache_fraction"])

        def evaluate(
            shards: int,
            replicas: int,
            spillover: int,  # always 0: this study keeps the fleet IMC-only
            requests=requests,
            pattern_workload=pattern_workload,
            warm_users=warm_users,
            cache_capacity=cache_capacity,
            name=name,
        ) -> ServingResult:
            engine = corpus.fleet("imars", shards, replicas)
            scheduler = AdaptiveMicroBatchScheduler(
                AdaptiveBatchConfig(
                    target_p95_s=slo_ms / 1e3,
                    max_batch_size=params["probe_batch_size"],
                    max_wait_s=0.25 * slo_ms / 1e3,
                )
            )
            cache = ServingCache(
                capacity=cache_capacity,
                rows_per_entry=params["top_k"],
                admission=TinyLFUAdmission(seed=seed),
            )
            session = ServingSession(
                engine,
                pattern_workload,
                scheduler=scheduler,
                cache=cache,
                label=f"autoscale {name} s={shards} r={replicas}",
                telemetry=telemetry,
            )
            session.warm(warm_users)
            return session.run(requests)

        loop = Autoscaler(
            evaluate,
            AutoscalerConfig(
                p95_slo_ms=slo_ms,
                tenant_slos_ms=tenant_slos,
                max_shards=params["max_shards"],
                max_replicas=params["max_replicas"],
                max_steps=params["max_steps"],
            ),
        )
        outcome = loop.run()
        outcomes[name] = outcome
        report.note(f"{name}:")
        for line in outcome.format().splitlines():
            report.note(line.strip())

    # -- invariants the study asserts ------------------------------------
    report.add(
        "autoscaler converges on every pattern",
        1,
        int(all(outcome.converged for outcome in outcomes.values())),
    )
    report.add(
        "single engine violates the SLO on every pattern (scale-out earned)",
        1,
        int(not any(outcome.steps[0].meets_slo for outcome in outcomes.values())),
    )
    report.add(
        "chosen config is min-energy among feasible evaluated",
        1,
        int(
            all(
                outcome.best.report.energy_per_request_uj
                <= min(
                    step.report.energy_per_request_uj
                    for step in outcome.steps
                    if step.meets_slo
                )
                for outcome in outcomes.values()
                if outcome.converged
            )
        ),
    )
    mix = outcomes["multi-tenant"]
    report.add(
        "per-tenant p95 contracts hold at the chosen mix deployment",
        1,
        int(
            mix.converged
            and all(
                mix.best.tenant_reports[tenant].p95_ms <= slo
                for tenant, slo in tenant_slos_ms.items()
            )
        ),
    )
    report.note(
        f"offered load {rate_qps:,.0f} q/s "
        f"({params['load_factor']:.1f}x one engine's batch-{params['probe_batch_size']} "
        f"capacity); p95 contract {slo_ms:.3f} ms "
        f"({params['slo_factor']:.0f}x batch-1 latency)."
    )
    report.extras["outcomes"] = outcomes
    report.extras["chosen"] = {
        name: (outcome.best.shards, outcome.best.replicas)
        for name, outcome in outcomes.items()
    }
    report.extras["rate_qps"] = rate_qps
    report.extras["slo_ms"] = slo_ms
    if telemetry is not None:
        telemetry.export(trace_out, metrics_out)
    return report
