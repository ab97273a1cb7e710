"""Bench A4 -- batching extension: throughput beyond the batch-1 protocol.

Alongside the analytic batching study, this module wall-clocks the
*simulator's own* serving hot path: the engine's batch path is
benchmarked at Q in {1, 32, 256, 2048} and timed against each engine's
per-query ``recommend`` loop.  The committed baseline guards each kernel
benchmark via ``compare_to_baseline.py``; the speedup pin guarantees the
>=5x win over the pre-vectorisation per-query loop at batch >= 256 can
never silently regress.  It is a host-timing ratio, so it carries the
``perf`` marker: tier-1 deselects it and the CI perf-regression job runs it.
"""

import functools
import time

import pytest

from repro.core.mapping import WorkloadMapping
from repro.core.pipeline import IMARSEngine, ServeQuery, _EngineBase
from repro.data.movielens import MovieLensDataset, movielens_table_specs
from repro.experiments import run_batch_throughput
from repro.models.youtube_dnn import (
    YouTubeDNNConfig,
    YouTubeDNNFiltering,
    YouTubeDNNRanking,
)


def _per_query(engine):
    """``engine`` serving each batch as per-query ``recommend`` calls."""
    engine._serve_results = lambda queries: [
        engine.recommend_query(query) for query in queries
    ]
    return engine


@pytest.fixture(scope="module")
def serve_setup():
    """(batch-path engine, per-query engine, legacy per-query engine,
    workload) at test scale."""
    dataset = MovieLensDataset(scale=0.03, seed=0)
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
    vectorised = IMARSEngine(filtering, ranking, mapping, seed=0)
    scalar = _per_query(IMARSEngine(filtering, ranking, mapping, seed=0))
    # The pre-vectorisation serving loop also scored through the full
    # concatenated feature width (no serving scorer): the base class's
    # full ranking forward reproduces that path for the before/after
    # speedup record.
    legacy = _per_query(IMARSEngine(filtering, ranking, mapping, seed=0))
    legacy._ctrs = functools.partial(_EngineBase._ctrs, legacy)
    return vectorised, scalar, legacy, workload


def _queries(workload, size):
    return (workload * (size // len(workload) + 1))[:size]


@pytest.mark.parametrize("batch_size", [1, 32, 256, 2048])
def test_serve_kernels(benchmark, serve_setup, batch_size):
    """Wall-clock of the vectorised serve path at each batch size."""
    vectorised, _, _, workload = serve_setup
    queries = _queries(workload, batch_size)
    benchmark.pedantic(
        vectorised.serve_batch, args=(queries,), rounds=3, warmup_rounds=1
    )


@pytest.mark.perf
def test_vector_speedup_pin(serve_setup, save_report):
    """The batch path must hold >=5x over the legacy per-query serving
    loop at batch >= 256 (the acceptance floor of the vectorisation PR)."""
    vectorised, scalar, legacy, workload = serve_setup

    def clock(engine, queries, repeats=3):
        engine.serve_batch(queries[: min(8, len(queries))])  # warm
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            engine.serve_batch(queries)
            best = min(best, time.perf_counter() - start)
        return best

    lines = ["vectorised serving kernels vs scalar reference (min of 3):"]
    ratios = {}
    for batch_size in (1, 32, 256, 2048):
        queries = _queries(workload, batch_size)
        vec_s = clock(vectorised, queries)
        ref_s = clock(scalar, queries)
        legacy_s = clock(legacy, queries)
        ratios[batch_size] = (vec_s, ref_s, legacy_s)
        lines.append(
            f"  Q={batch_size:>4d}: vec {vec_s * 1e3:8.2f} ms, "
            f"scalar {ref_s * 1e3:8.2f} ms ({ref_s / vec_s:4.1f}x), "
            f"legacy scalar {legacy_s * 1e3:8.2f} ms ({legacy_s / vec_s:4.1f}x)"
        )
    save_report("batch_kernel_speedup", "\n".join(lines))
    for batch_size in (256, 2048):
        vec_s, _, legacy_s = ratios[batch_size]
        assert legacy_s / vec_s >= 5.0, (
            f"vectorised path only {legacy_s / vec_s:.1f}x over the scalar "
            f"serving loop at Q={batch_size}"
        )


def test_batch_throughput(benchmark, save_report):
    report = benchmark(run_batch_throughput)
    lines = [report.format(), "", "batch size -> QPS:"]
    for point in report.extras["points"]:
        lines.append(
            f"  batch {point.batch_size:>4d}: GPU {point.gpu_qps:>12,.0f} q/s, "
            f"iMARS (pipelined) {point.imars_qps:>12,.0f} q/s"
        )
    save_report("batch_throughput", "\n".join(lines))
    by_name = {c.name: c for c in report.comparisons}
    assert by_name["GPU batch-1 QPS (paper protocol)"].within(0.10)
    flags = [c for c in report.comparisons if c.published == 1 and c.unit == ""]
    for comparison in flags:
        assert comparison.measured == 1, comparison.format_row()
