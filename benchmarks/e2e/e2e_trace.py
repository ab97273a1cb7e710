"""Outside-in host-time tracing of the serving simulator.

:func:`tracing` wraps public functions and classes of :mod:`repro` at
runtime -- no simulator source is edited -- and restores every wrapped
attribute on exit.  Each wrapped call records one span (name, start, end,
parent span, and the index of the scheduler batch it ran under) in a
:class:`HostTrace`, kept in memory and written out at the end as Chrome
trace events.  A layer's self time is its spans' durations minus their
children's, so the self times of all spans sum exactly to the root span
(``perf_counter_ns`` integers, no rounding).

Span names follow the repository's modules; ``*.build`` spans time
construction (set-up), the others the serve path.  :func:`traced_rep`
runs one benchmark rep under tracing, and :func:`layer_metrics` folds its
spans and the wrapped objects' own counters into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from typing import Dict, Iterator, List, Optional

import numpy as np

import repro.core.pipeline as pipeline
import repro.serving.session as session_module
from repro.core.pipeline import GPUReferenceEngine, IMARSEngine, _EngineBase
from repro.data.movielens import MovieLensDataset
from repro.energy.accounting import Cost, Ledger
from repro.experiments import serving_study
from repro.models.youtube_dnn import (
    RankingServingScorer,
    YouTubeDNNFiltering,
    YouTubeDNNRanking,
)
from repro.nns.lsh_search import LSHHammingIndex
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import Tracer
from repro.serving.admission import AdmissionController
from repro.serving.autoscaler import ScheduledScalePlan
from repro.serving.cache import ServingCache
from repro.serving.scheduler import MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.shard import ReplicaGroup, ShardedEngine
from repro.serving.traffic import (
    BurstyTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    TraceReplayTraffic,
)

__all__ = ["HostTrace", "tracing", "traced_rep", "layer_metrics"]

ROOT = "bench.rep"

#: (owner, attribute, span name).  Two more spans have wrappers of their
#: own (see :meth:`HostTrace.wrappers`): the scheduler's ``run``, which also
#: wraps the session's per-batch callback, and the engines' ``serve_batch``,
#: which also counts the queries served.
_SPANS = [
    (ServingSession, "run", "serving.session.run"),
    (ServingSession, "scale_to", "serving.session.scale_to"),
    (session_module, "summarize", "serving.slo.summarize"),
    (ServingCache, "lookup", "serving.cache.lookup"),
    (ServingCache, "insert", "serving.cache.insert"),
    (ShardedEngine, "serve_batch", "serving.shard.router"),
    (ReplicaGroup, "serve_batch", "serving.shard.replica"),
    (AdmissionController, "decide", "serving.admission.decide"),
    (ScheduledScalePlan, "observe", "serving.autoscaler.observe"),
    (session_module, "price_serving_run", "serving.pricing.price"),
    (IMARSEngine, "__init__", "core.pipeline.build"),
    (GPUReferenceEngine, "__init__", "core.pipeline.build"),
    (YouTubeDNNFiltering, "__init__", "models.youtube_dnn.build"),
    (YouTubeDNNRanking, "__init__", "models.youtube_dnn.build"),
    (YouTubeDNNFiltering, "user_embedding", "models.youtube_dnn.user_embedding"),
    (RankingServingScorer, "query_constants", "models.youtube_dnn.scorer"),
    (RankingServingScorer, "score_grouped", "models.youtube_dnn.scorer"),
    (YouTubeDNNRanking, "predict_ctr", "models.youtube_dnn.predict_ctr"),
    # The kernels as the pipeline module imported them.
    (LSHHammingIndex, "distances_batch", "nns.hamming"),
    (pipeline, "fixed_radius_candidates", "nns.fixed_radius"),
    (pipeline, "fixed_radius_candidates_batch", "nns.fixed_radius"),
    (pipeline, "topk_indices_batch", "nns.topk"),
    (pipeline, "cosine_topk", "nns.cosine_topk"),
    (pipeline, "gpu_et_operation", "gpu.kernels.cost"),
    (pipeline, "gpu_dnn_stack", "gpu.kernels.cost"),
    (pipeline, "gpu_nns_cosine", "gpu.kernels.cost"),
    (pipeline, "gpu_nns_lsh", "gpu.kernels.cost"),
    (pipeline, "gpu_topk", "gpu.kernels.cost"),
    (Tracer, "open", "obs.tracer"),
    (Tracer, "close", "obs.tracer"),
    (Tracer, "add", "obs.tracer"),
    (Tracer, "instant", "obs.tracer"),
    (Telemetry, "export", "obs.export"),
    (MovieLensDataset, "__init__", "data.movielens.build"),
    (PoissonTraffic, "generate", "serving.traffic.generate"),
    (BurstyTraffic, "generate", "serving.traffic.generate"),
    (DiurnalTraffic, "generate", "serving.traffic.generate"),
    (TraceReplayTraffic, "generate", "serving.traffic.generate"),
    (serving_study, "run_serving_study", "experiments.serving_study"),
]

#: (owner, attribute, counter): constructors counted exactly, no span.
_COUNTED = [
    (Cost, "__init__", "energy.accounting.costs"),
    (Ledger, "__init__", "energy.accounting.ledgers"),
]

#: (owner, registry): constructors whose instances are kept, so their
#: own counters (cache stats, fault stats, tracer rows) can be read after
#: the run.
_REGISTERED = [
    (ServingCache, "caches"),
    (ServingSession, "sessions"),
    (Tracer, "tracers"),
]


class HostTrace:
    """In-memory span recorder: one flat list, parents by index."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or None, batch or None]
        self.spans: List[list] = []
        self.calls: Counter = Counter()
        self.queries_served = 0
        self.instances: Dict[str, list] = {name: [] for _, name in _REGISTERED}
        self.batches = 0
        self._stack: List[int] = []
        self._batch: Optional[int] = None

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._batch])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def self_times_ns(self) -> Dict[str, int]:
        """Span name -> summed self time (duration minus children)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (name, *_), value in zip(self.spans, own):
            totals[name] += value
        return dict(totals)

    def durations_ns(self, name: str) -> List[int]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def root_ns(self) -> int:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def write_chrome(self, path) -> None:
        """Write the spans as Chrome trace events (microseconds)."""
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent, "batch": batch},
            }
            for index, (name, start, end, parent, batch) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    def _engine_batch(self, original):
        spanned = self._spanned("core.pipeline.engine", original)

        @functools.wraps(original)
        def wrapper(engine, queries, *args, **kwargs):
            self.queries_served += len(queries)
            return spanned(engine, queries, *args, **kwargs)

        return wrapper

    def _scheduler_run(self, original):
        spanned = self._spanned("serving.scheduler", original)

        @functools.wraps(original)
        def wrapper(scheduler, requests, service):
            def traced_service(batch):
                self._batch = self.batches
                self.batches += 1
                self.open("serving.session.batch")
                try:
                    return service(batch)
                finally:
                    self.close()
                    self._batch = None

            return spanned(scheduler, requests, traced_service)

        return wrapper

    def _counted(self, name: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _registered(self, registry: str, original):
        instances = self.instances[registry]

        @functools.wraps(original)
        def wrapper(instance, *args, **kwargs):
            instances.append(instance)
            return original(instance, *args, **kwargs)

        return wrapper

    def wrappers(self):
        """Yield (owner, attribute, make_wrapper(original)) for every target."""
        yield MicroBatchScheduler, "run", self._scheduler_run
        yield _EngineBase, "serve_batch", self._engine_batch
        for owner, attribute, name in _SPANS:
            yield owner, attribute, functools.partial(self._spanned, name)
        for owner, attribute, name in _COUNTED:
            yield owner, attribute, functools.partial(self._counted, name)
        for owner, registry in _REGISTERED:
            yield owner, "__init__", functools.partial(self._registered, registry)


@contextlib.contextmanager
def tracing(trace: HostTrace) -> Iterator[HostTrace]:
    """Install ``trace``'s wrappers; restore every original on exit.

    Every target is defined on its owner itself (never inherited), so
    putting the saved object back restores the owner exactly.
    """
    saved = []
    try:
        for owner, attribute, make in trace.wrappers():
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, make(original))
        yield trace
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def traced_rep(setup, seed: int, smoke: bool):
    """One rep, set-up included, under tracing.

    Returns (prepared, result, host seconds of the run, trace); the run
    time is comparable with the untraced reps' run times.
    """
    trace = HostTrace()
    with tracing(trace), trace.span(ROOT):
        with trace.span("bench.setup"):
            prepared = setup(seed, smoke)
        start = time.perf_counter()
        with trace.span("bench.run"):
            result = prepared.run()
        run_s = time.perf_counter() - start
    return prepared, result, run_s, trace


# -- per-layer metrics -------------------------------------------------------

#: Span name -> the self-time metric it feeds (default: ``<name>_s``).
#: The session's own code runs both around the scheduler (``run``) and
#: inside it (the per-batch callback), so both feed one layer.
_SELF_METRIC = {
    "serving.scheduler": "serving.scheduler.self_s",
    "serving.session.run": "serving.session.self_s",
    "serving.session.batch": "serving.session.self_s",
    "experiments.serving_study": "experiments.serving_study.self_s",
    ROOT: "bench.self_s",
    "bench.setup": "bench.self_s",
    "bench.run": "bench.self_s",
}

#: Sums over layers that together run on every workload: the NNS kernels
#: (LSH/Hamming on iMARS, exact cosine on the GPU) and CTR scoring (the
#: decomposed scorer on iMARS, ``predict_ctr`` on the GPU).
_COMBINED = {
    "nns.search_s": ("nns.hamming_s", "nns.fixed_radius_s", "nns.topk_s", "nns.cosine_topk_s"),
    "models.youtube_dnn.ctr_s": ("models.youtube_dnn.scorer_s", "models.youtube_dnn.predict_ctr_s"),
}

_CALLS = {
    "serving.shard.router_calls": "serving.shard.router",
    "serving.shard.replica_calls": "serving.shard.replica",
    "serving.admission.decisions": "serving.admission.decide",
    "serving.autoscaler.observations": "serving.autoscaler.observe",
    "serving.pricing.runs": "serving.pricing.price",
    "core.pipeline.engine_calls": "core.pipeline.engine",
    "nns.hamming_calls": "nns.hamming",
    "nns.fixed_radius_calls": "nns.fixed_radius",
    "nns.topk_calls": "nns.topk",
    "nns.cosine_topk_calls": "nns.cosine_topk",
    "gpu.kernels.calls": "gpu.kernels.cost",
    "energy.accounting.costs": "energy.accounting.costs",
    "energy.accounting.ledgers": "energy.accounting.ledgers",
}


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(trace: HostTrace) -> Dict[str, float]:
    """Every per-layer metric of one traced rep (seconds, counts, ratios).

    A layer the workload never reaches reports 0.  ``trace.self_sum_error``
    is |sum of self times - root span| / root span: 0 unless spans leaked.
    """
    names = {"serving.scheduler", "serving.session.batch", "core.pipeline.engine", ROOT}
    names.update(name for _, _, name in _SPANS)
    self_ns: Counter = Counter({_SELF_METRIC.get(name, name + "_s"): 0 for name in names})
    for name, value in trace.self_times_ns().items():
        self_ns[_SELF_METRIC.get(name, name + "_s")] += value
    metrics: Dict[str, float] = {name: value / 1e9 for name, value in sorted(self_ns.items())}
    for name, parts in _COMBINED.items():
        metrics[name] = sum(metrics[part] for part in parts)

    batch_ms = [value / 1e6 for value in trace.durations_ns("serving.session.batch")]
    metrics["serving.scheduler.batches"] = trace.batches
    metrics["serving.session.batch_host_ms.p50"] = _percentile(batch_ms, 50)
    metrics["serving.session.batch_host_ms.p99"] = _percentile(batch_ms, 99)

    caches = trace.instances["caches"]
    lookups = sum(cache.hits + cache.misses for cache in caches)
    metrics["serving.cache.lookups"] = lookups
    metrics["serving.cache.hit_ratio"] = (
        sum(cache.hits for cache in caches) / lookups if lookups else 0.0
    )
    metrics["serving.cache.insertions"] = sum(cache.insertions for cache in caches)
    metrics["serving.cache.evictions"] = sum(cache.evictions for cache in caches)
    sessions = trace.instances["sessions"]
    metrics["serving.session.scale_events"] = sum(
        len(session.scale_events) for session in sessions
    )
    metrics["serving.resilience.retries"] = sum(
        session.faults.retries_used for session in sessions if session.faults is not None
    )
    for metric, span in _CALLS.items():
        metrics[metric] = trace.calls[span]
    engine_calls = trace.calls["core.pipeline.engine"]
    metrics["core.pipeline.queries_per_call"] = (
        trace.queries_served / engine_calls if engine_calls else 0.0
    )
    metrics["obs.spans"] = sum(len(tracer) for tracer in trace.instances["tracers"])
    root_ns = trace.root_ns()
    metrics["trace.spans"] = len(trace.spans)
    metrics["trace.root_s"] = root_ns / 1e9
    metrics["trace.self_sum_error"] = abs(sum(self_ns.values()) - root_ns) / root_ns
    return metrics
