"""Golden digests of everything the serving session loop emits.

Each telemetry-capable study (``cli.SERVING_EXPERIMENTS``) runs once at
seed 0 with its trace and metrics exported, and one small 2x2 session
runs with every plane of the benchmark's ``fleet-all-planes`` workload
under a sampling tracer.  The sha256 of the report text, the Chrome
trace and the Prometheus text must equal ``tests/golden/serving_studies.json``.

A change that is meant to alter these bytes updates the JSON (the
failure message prints the recomputed digests) and says why.  If a
numpy release shifts the digests, pin them to the CI numpy and say so
in docs/determinism.md; do not loosen them to tolerances.
"""

import hashlib
import json
import pathlib

import pytest

from repro.cli import EXPERIMENTS, SERVING_EXPERIMENTS
from repro.core.mapping import WorkloadMapping
from repro.core.pipeline import ServeQuery
from repro.data.movielens import MovieLensDataset, movielens_table_specs
from repro.models.youtube_dnn import (
    YouTubeDNNConfig,
    YouTubeDNNFiltering,
    YouTubeDNNRanking,
)
from repro.obs import Telemetry, chrome_trace_events
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.autoscaler import ScheduledScalePlan
from repro.serving.cache import ServingCache
from repro.serving.faults import chaos_scenario
from repro.serving.pricing import PriceBook
from repro.serving.resilience import ResilienceConfig
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.shard import make_sharded_engine
from repro.serving.traffic import PoissonTraffic

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "serving_studies.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check(name: str, digests: dict) -> None:
    expected = json.loads(GOLDEN.read_text())[name]
    assert digests == expected, (
        f"{name}: output bytes changed; if intended, put these digests in "
        f"{GOLDEN.name} and say why:\n"
        + json.dumps({name: digests}, indent=2, sort_keys=True)
    )


@pytest.mark.parametrize("experiment_id", sorted(SERVING_EXPERIMENTS))
def test_study_exports_match_golden(experiment_id, tmp_path):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.prom"
    _, runner = EXPERIMENTS[experiment_id]
    report = runner(seed=0, trace_out=str(trace), metrics_out=str(metrics))
    _check(
        experiment_id,
        {
            "report": _sha256(report.format().encode()),
            "chrome_trace": _sha256(trace.read_bytes()),
            "prometheus": _sha256(metrics.read_bytes()),
        },
    )


def test_all_planes_session_exports_match_golden():
    """A 2x2 fleet with cache, admission, chaos faults plus resilience, a
    scheduled 2x2 -> 4x2 -> 2x2 rescale and pricing, traced every third
    batch."""
    dataset = MovieLensDataset(scale=0.04, seed=0)
    config = YouTubeDNNConfig(
        num_items=dataset.num_items,
        demographic_cardinalities=(dataset.num_users, 3, 7, 21, 450),
        seed=0,
    )
    filtering = YouTubeDNNFiltering(config)
    ranking = YouTubeDNNRanking(config)
    mapping = WorkloadMapping(movielens_table_specs())
    workload = [
        ServeQuery.make(
            dataset.histories[user],
            dataset.demographics[user],
            dataset.ranking_context[user],
        )
        for user in range(dataset.num_users)
    ]

    def fleet(kind, shards, replicas=1):
        return make_sharded_engine(
            kind,
            filtering,
            ranking,
            shards,
            mapping=mapping if kind == "imars" else None,
            num_candidates=24,
            top_k=5,
            seed=0,
            replicas_per_shard=replicas,
        )

    batch_one_s = fleet("imars", 1).recommend_query(workload[0]).cost.latency_s
    gpu_one_s = fleet("gpu", 1).recommend_query(workload[0]).cost.latency_s
    requests = PoissonTraffic(
        0.75 / gpu_one_s, num_users=dataset.num_users, seed=0, stream=10
    ).generate(200)
    duration_s = requests[-1].arrival_s
    telemetry = Telemetry(sample_every=3)
    result = ServingSession(
        fleet("imars", 2, 2),
        workload,
        scheduler=MicroBatchScheduler(MicroBatchConfig(8, 0.0005)),
        cache=ServingCache(dataset.num_users // 3, rows_per_entry=5),
        label="all-planes",
        admission=AdmissionController(AdmissionConfig(slo_ms=1.0)),
        engine_factory=lambda shards, replicas: fleet("imars", shards, replicas),
        deployment=(2, 2),
        scaler=ScheduledScalePlan(
            [(duration_s / 3.0, (4, 2)), (2.0 * duration_s / 3.0, (2, 2))]
        ),
        telemetry=telemetry,
        faults=chaos_scenario(duration_s, 2, 2, 0),
        resilience=ResilienceConfig(default_timeout_s=batch_one_s),
        price_book=PriceBook(),
    ).run(requests)
    # Every plane this case exists to pin actually acted.
    assert len(result.scale_events) == 2
    assert result.fault_stats["retries_used"] > 0
    assert result.report.shed_count > 0
    assert result.price_ledger is not None
    assert 0 < telemetry.tracer.sampled_batches < telemetry.tracer.seen_batches
    events = json.dumps(chrome_trace_events(telemetry.tracer), sort_keys=True)
    _check(
        "all-planes session",
        {
            "chrome_trace_events": _sha256(events.encode()),
            "prometheus": _sha256(telemetry.metrics.render_prometheus().encode()),
        },
    )
