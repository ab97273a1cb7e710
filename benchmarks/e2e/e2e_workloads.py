"""The benchmark's five workloads: seeded set-up, timed run, output digest.

Every workload is split into two host-timed phases.  ``setup(seed, smoke)``
builds everything from the seed -- dataset, untrained seeded YouTubeDNN
models, engines, the request stream -- and returns a :class:`Prepared`
whose ``run()`` is the timed part: ``session.run(requests)`` plus
``result.report``.  Nothing built by one rep is reused by the next:
replica busy clocks, engine EWMAs and cost-template caches persist on an
engine, so a reused engine would change the simulated results rep to rep.

Only public entry points of :mod:`repro` are called; the benchmark never
edits the simulator.  ``digest(result)`` hashes the outputs that must not
change (report, ledger, per-request items), so two reps -- or a traced and
an untraced rep -- can be compared exactly.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.mapping import WorkloadMapping
from repro.core.pipeline import ServeQuery
from repro.data.movielens import MovieLensDataset, movielens_table_specs
from repro.experiments import serving_study
from repro.models.youtube_dnn import (
    YouTubeDNNConfig,
    YouTubeDNNFiltering,
    YouTubeDNNRanking,
)
from repro.obs import Telemetry
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.autoscaler import ScheduledScalePlan
from repro.serving.cache import ServingCache
from repro.serving.faults import chaos_scenario
from repro.serving.pricing import PriceBook
from repro.serving.resilience import ResilienceConfig
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.shard import make_sharded_engine
from repro.serving.traffic import BurstyTraffic, PoissonTraffic

__all__ = ["WORKLOADS", "Prepared", "OUT_DIR"]

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Synthetic MovieLens at full scale: 6,040 users x 3,000 items, the ML-1M
#: shape the paper evaluates.  Candidate budget and top-k are the E-serve
#: defaults.
SCALE = 1.0
_STUDY = serving_study.SERVING_STUDY_DEFAULTS
NUM_CANDIDATES = _STUDY["num_candidates"]
TOP_K = _STUDY["top_k"]
#: Offered load of the Poisson workloads, as a fraction of the GPU's
#: batch-1 capacity (the E-serve operating point).
LOAD_FRACTION = _STUDY["load_fraction"]
#: ``--smoke`` size: small enough for a tier-1 test.
SMOKE_SCALE = 0.04
SMOKE_REQUESTS = 200


@dataclass
class Prepared:
    """One rep after set-up: ``run()`` is the host-timed part."""

    run: Callable[[], object]
    digest: Callable[[object], str]
    #: (simulated p95 in ms, simulated energy per answered request in uJ).
    sim: Callable[[object], Tuple[float, float]]
    num_requests: int


def _sha256(payload: object) -> str:
    # json renders floats with repr(): every digit counts.
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _session_digest(result) -> str:
    return _sha256(
        {
            "report": result.report.as_dict(),
            "ledger": [
                [category, cost.energy_pj, cost.latency_ns]
                for category, cost in result.ledger.by_category().items()
            ],
            "records": [
                [record.request.request_id, list(record.items)]
                for record in result.records
            ],
        }
    )


def _session_sim(result) -> Tuple[float, float]:
    return result.report.p95_ms, result.report.energy_per_request_uj


@dataclass
class _Corpus:
    """Dataset, untrained seeded models and the per-user query table."""

    dataset: MovieLensDataset
    filtering: YouTubeDNNFiltering
    ranking: YouTubeDNNRanking
    mapping: WorkloadMapping
    queries: List[ServeQuery]
    seed: int

    @classmethod
    def build(cls, seed: int, scale: float) -> "_Corpus":
        dataset = MovieLensDataset(scale=scale, seed=seed)
        config = YouTubeDNNConfig(
            num_items=dataset.num_items,
            demographic_cardinalities=(dataset.num_users, 3, 7, 21, 450),
            seed=seed,
        )
        queries = [
            ServeQuery.make(
                dataset.histories[user],
                dataset.demographics[user],
                dataset.ranking_context[user],
            )
            for user in range(dataset.num_users)
        ]
        return cls(
            dataset,
            YouTubeDNNFiltering(config),
            YouTubeDNNRanking(config),
            WorkloadMapping(movielens_table_specs()),
            queries,
            seed,
        )

    @property
    def num_users(self) -> int:
        return self.dataset.num_users

    def fleet(self, kind: str, shards: int, replicas: int = 1):
        return make_sharded_engine(
            kind,
            self.filtering,
            self.ranking,
            shards,
            mapping=self.mapping if kind == "imars" else None,
            num_candidates=NUM_CANDIDATES,
            top_k=TOP_K,
            seed=self.seed,
            replicas_per_shard=replicas,
        )

    def batch_one_s(self, kind: str) -> float:
        """Simulated batch-1 latency of an unsharded engine of ``kind``,
        probed on a throwaway engine so the serving fleet stays cold."""
        return self.fleet(kind, 1).recommend_query(self.queries[0]).cost.latency_s


def _size(smoke: bool, requests: int) -> Tuple[float, int]:
    return (SMOKE_SCALE, SMOKE_REQUESTS) if smoke else (SCALE, requests)


def _session_rep(session: ServingSession, requests, after=None) -> Prepared:
    def run():
        result = session.run(requests)
        result.report  # the SLO fold is part of the timed run
        if after is not None:
            after()
        return result

    return Prepared(run, _session_digest, _session_sim, len(requests))


def imc_zipf_hits(seed: int, smoke: bool) -> Prepared:
    scale, count = _size(smoke, 8_000)
    corpus = _Corpus.build(seed, scale)
    rate_qps = LOAD_FRACTION / corpus.batch_one_s("gpu")
    requests = PoissonTraffic(
        rate_qps, num_users=corpus.num_users, seed=seed, stream=10
    ).generate(count)
    session = ServingSession(
        corpus.fleet("imars", 1),
        corpus.queries,
        scheduler=MicroBatchScheduler(MicroBatchConfig(8, 0.0005)),
        cache=ServingCache(corpus.num_users // 3, rows_per_entry=TOP_K),
        label="imc-zipf-hits",
    )
    return _session_rep(session, requests)


def gpu_uniform_fills(seed: int, smoke: bool) -> Prepared:
    scale, count = _size(smoke, 2_000)
    corpus = _Corpus.build(seed, scale)
    rate_qps = LOAD_FRACTION / corpus.batch_one_s("gpu")
    requests = PoissonTraffic(
        rate_qps, num_users=corpus.num_users, seed=seed, stream=10, user_skew=0.0
    ).generate(count)
    session = ServingSession(
        corpus.fleet("gpu", 2),
        corpus.queries,
        scheduler=MicroBatchScheduler(MicroBatchConfig(8, 0.0005)),
        cache=ServingCache(corpus.num_users // 8, rows_per_entry=TOP_K),
        label="gpu-uniform-fills",
        engine_kind="gpu",
    )
    return _session_rep(session, requests)


def imc_burst_sharded(seed: int, smoke: bool) -> Prepared:
    scale, count = _size(smoke, 3_000)
    corpus = _Corpus.build(seed, scale)
    batch_one_s = corpus.batch_one_s("imars")
    requests = BurstyTraffic(
        calm_qps=2.0 / batch_one_s,
        burst_qps=10.0 / batch_one_s,
        num_users=corpus.num_users,
        mean_calm_s=20 * batch_one_s,
        mean_burst_s=10 * batch_one_s,
        seed=seed,
        stream=20,
        user_skew=0.0,
    ).generate(count)
    session = ServingSession(
        corpus.fleet("imars", 4, replicas=2),
        corpus.queries,
        scheduler=MicroBatchScheduler(MicroBatchConfig(64, 4 * batch_one_s)),
        label="imc-burst-sharded",
        deployment=(4, 2),
    )
    return _session_rep(session, requests)


def fleet_all_planes(seed: int, smoke: bool) -> Prepared:
    scale, count = _size(smoke, 2_000)
    corpus = _Corpus.build(seed, scale)
    batch_one_s = corpus.batch_one_s("imars")
    rate_qps = LOAD_FRACTION / corpus.batch_one_s("gpu")
    requests = PoissonTraffic(
        rate_qps, num_users=corpus.num_users, seed=seed, stream=10
    ).generate(count)
    duration_s = requests[-1].arrival_s
    telemetry = Telemetry()
    session = ServingSession(
        corpus.fleet("imars", 2, replicas=2),
        corpus.queries,
        scheduler=MicroBatchScheduler(MicroBatchConfig(8, 0.0005)),
        cache=ServingCache(corpus.num_users // 3, rows_per_entry=TOP_K),
        label="fleet-all-planes",
        admission=AdmissionController(AdmissionConfig(slo_ms=1.0)),
        engine_factory=lambda shards, replicas: corpus.fleet(
            "imars", shards, replicas
        ),
        deployment=(2, 2),
        scaler=ScheduledScalePlan(
            [(duration_s / 3.0, (4, 2)), (2.0 * duration_s / 3.0, (2, 2))]
        ),
        telemetry=telemetry,
        faults=chaos_scenario(duration_s, 2, 2, seed),
        resilience=ResilienceConfig(default_timeout_s=batch_one_s),
        price_book=PriceBook(),
    )

    def export():
        OUT_DIR.mkdir(exist_ok=True)
        telemetry.export(
            str(OUT_DIR / "fleet-all-planes.telemetry.json"),
            str(OUT_DIR / "fleet-all-planes.prom"),
        )

    return _session_rep(session, requests, after=export)


def _study_digest(report) -> str:
    return _sha256(
        {
            "format": report.format(),
            "grid": {
                " ".join(map(str, key)): cell.as_dict()
                for key, cell in report.extras["grid"].items()
            },
        }
    )


def _study_sim(report) -> Tuple[float, float]:
    cell = report.extras["grid"][("imars", "poisson", 1)]
    return cell.p95_ms, cell.energy_per_request_uj


def e_serve(seed: int, smoke: bool) -> Prepared:
    """``run_serving_study(seed)`` as the CLI runs it.

    The study builds its own dataset, models and engines inside the timed
    call.  Set-up here repeats those same steps on their own (dataset,
    models, the four iMARS/GPU x 1/2-shard fleets) so ``setup_s`` tracks
    the cost of building the study's inputs; their products are dropped.
    """
    # 4 traffic patterns x 4 fleets, plus the cache-on/off ablation pair.
    num_sessions = 18
    per_session = SMOKE_REQUESTS // num_sessions if smoke else _STUDY["num_requests"]
    corpus = _Corpus.build(seed, _STUDY["scale"])
    for kind in ("imars", "gpu"):
        for shards in _STUDY["shard_counts"]:
            corpus.fleet(kind, shards)
    return Prepared(
        lambda: serving_study.run_serving_study(seed, num_requests=per_session),
        _study_digest,
        _study_sim,
        num_sessions * per_session,
    )


#: Workload name (as in BENCHMARK.json) -> set-up function.
WORKLOADS: Dict[str, Callable[[int, bool], Prepared]] = {
    "e-serve": e_serve,
    "imc-zipf-hits": imc_zipf_hits,
    "gpu-uniform-fills": gpu_uniform_fills,
    "imc-burst-sharded": imc_burst_sharded,
    "fleet-all-planes": fleet_all_planes,
}
