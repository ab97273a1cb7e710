"""The telemetry plane against the real serving stack.

The load-bearing pin is *bit-identity*: attaching a :class:`Telemetry`
must not change a single recommendation, completion time, or picojoule,
because tracing only observes stage costs the session already computed.
On top of that: the span tree of a full session must validate, carry the
documented stage names, satisfy the duration algebra (stages tile inside
their batch; requests complete inside the session), and agree with the
metrics registry and the SLO report about what happened.
"""

import json

import pytest

from repro.cli import EXPERIMENTS, main
from repro.obs import Telemetry, span_children
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.cache import ServingCache, TinyLFUAdmission
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.shard import make_sharded_engine
from repro.serving.slo import SLOReport
from repro.serving.traffic import BurstyTraffic

NUM_REQUESTS = 90
_SEQUENTIAL_STAGES = ("queue", "cache-lookup", "engine", "cache-fill", "migration")


@pytest.fixture(scope="module")
def telemetry_setup(serving_setup):
    """A sharded, cached, admission-guarded session factory + its traffic."""
    dataset, filtering, ranking, mapping, workload = serving_setup
    engine_probe = make_sharded_engine(
        "imars",
        filtering,
        ranking,
        2,
        mapping=mapping,
        num_candidates=24,
        top_k=5,
        seed=0,
        replicas_per_shard=2,
    )
    batch_one_s = engine_probe.recommend_query(workload[0]).cost.latency_s
    rate_qps = 16.0 / engine_probe.serve_batch(workload[:16]).cost.latency_s
    requests = BurstyTraffic(
        calm_qps=rate_qps,
        burst_qps=3.0 * rate_qps,
        num_users=dataset.num_users,
        mean_calm_s=15.0 / rate_qps,
        mean_burst_s=15.0 / rate_qps,
        seed=0,
        stream=9,
    ).generate(NUM_REQUESTS)

    def build_session(telemetry):
        return ServingSession(
            make_sharded_engine(
                "imars",
                filtering,
                ranking,
                2,
                mapping=mapping,
                num_candidates=24,
                top_k=5,
                seed=0,
                replicas_per_shard=2,
            ),
            workload,
            scheduler=MicroBatchScheduler(
                MicroBatchConfig(max_batch_size=16, max_wait_s=4.0 * batch_one_s)
            ),
            cache=ServingCache(
                capacity=max(4, dataset.num_users // 4),
                rows_per_entry=5,
                admission=TinyLFUAdmission(seed=0),
            ),
            admission=AdmissionController(
                AdmissionConfig(slo_ms=12.0 * batch_one_s * 1e3)
            ),
            label="telemetry pin",
            telemetry=telemetry,
        )

    return build_session, requests


@pytest.fixture(scope="module")
def traced_run(telemetry_setup):
    build_session, requests = telemetry_setup
    telemetry = Telemetry()
    result = build_session(telemetry).run(requests)
    return telemetry, result


class TestBitIdentity:
    """Tracing on vs off: the simulation must not notice."""

    def test_records_and_ledger_identical(self, telemetry_setup, traced_run):
        build_session, requests = telemetry_setup
        _, traced = traced_run
        untraced = build_session(None).run(requests)
        assert len(traced.records) == len(untraced.records)
        for ours, theirs in zip(traced.records, untraced.records):
            assert ours.items == theirs.items
            assert ours.completion_s == theirs.completion_s  # bitwise
            assert ours.cache_hit == theirs.cache_hit
            assert ours.shed == theirs.shed
            assert ours.degraded == theirs.degraded
        assert traced.ledger.total() == untraced.ledger.total()
        assert traced.ledger.by_category() == untraced.ledger.by_category()

    def test_sampling_does_not_perturb_either(self, telemetry_setup, traced_run):
        build_session, requests = telemetry_setup
        _, traced = traced_run
        sampled_telemetry = Telemetry(sample_every=4)
        sampled = build_session(sampled_telemetry).run(requests)
        assert [record.items for record in sampled.records] == [
            record.items for record in traced.records
        ]
        assert sampled.ledger.total() == traced.ledger.total()
        tracer = sampled_telemetry.tracer
        assert 0 < tracer.sampled_batches < tracer.seen_batches
        tracer.validate()

    def test_disabled_bundle_records_nothing_but_sees_every_batch(
        self, telemetry_setup, traced_run
    ):
        """An attached but disabled bundle records no span or series, yet
        its tracer still sees every batch (the Chrome export reports
        ``seen_batches``)."""
        build_session, requests = telemetry_setup
        _, traced = traced_run
        disabled = Telemetry.disabled()
        result = build_session(disabled).run(requests)
        assert [record.items for record in result.records] == [
            record.items for record in traced.records
        ]
        assert disabled.tracer.seen_batches == len(result.batches) > 0
        assert disabled.tracer.sampled_batches == 0
        assert len(disabled.tracer) == 0
        assert disabled.metrics.render_prometheus() == ""


class TestSpanTree:
    def test_validates_and_covers_the_serve_path(self, traced_run):
        telemetry, _ = traced_run
        tracer = telemetry.tracer
        tracer.validate()
        names = {span.name for span in tracer.spans}
        assert {
            "batch",
            "queue",
            "admission",
            "cache-lookup",
            "engine",
            "request",
        } <= names
        assert any(name.startswith("shard") for name in names)
        assert any(name.startswith("replica") for name in names)
        assert "kernel" in names

    def test_one_root_per_sampled_batch(self, traced_run):
        telemetry, result = traced_run
        tracer = telemetry.tracer
        roots = [span for span in tracer.spans if span.parent_id is None]
        assert len(roots) == tracer.sampled_batches == len(result.batches)
        assert all(root.name == "batch" for root in roots)

    def test_sequential_stages_tile_inside_their_batch(self, traced_run):
        """The ISSUE invariant: per-stage durations sum to no more than
        the batch's wall-clock (the stages are sequential on one
        engine)."""
        telemetry, _ = traced_run
        children = span_children(telemetry.tracer.spans)
        roots = [s for s in telemetry.tracer.spans if s.parent_id is None]
        assert roots
        for root in roots:
            stage_sum = sum(
                child.duration_s
                for child in children.get(root.span_id, [])
                if child.name in _SEQUENTIAL_STAGES
            )
            assert stage_sum <= root.duration_s + 1e-12

    def test_request_spans_cover_arrival_to_completion(self, traced_run):
        telemetry, result = traced_run
        request_spans = [
            span for span in telemetry.tracer.spans if span.name == "request"
        ]
        by_id = {span.attrs["request_id"]: span for span in request_spans}
        assert len(by_id) == len(result.records)  # every request traced
        for record in result.records:
            span = by_id[record.request.request_id]
            assert span.start_s == record.request.arrival_s
            assert span.end_s == record.completion_s
            assert span.attrs["cache_hit"] == record.cache_hit
            expected = (
                "shed"
                if record.shed
                else "degraded" if record.degraded else "served"
            )
            assert span.attrs["outcome"] == expected

    def test_kernel_spans_name_their_engine_and_kernel(self, traced_run):
        telemetry, _ = traced_run
        kernels = [s for s in telemetry.tracer.spans if s.name == "kernel"]
        assert kernels
        for span in kernels:
            assert span.category == "kernel"
            assert span.attrs["kernel"] in ("vector", "scalar")
            assert span.attrs["queries"] >= 1
            assert span.attrs["energy_pj"] > 0.0


class TestMetricsAgreement:
    """The registry must tell the same story as the SLO report."""

    def test_request_outcomes_match_records(self, traced_run):
        telemetry, result = traced_run
        requests_total = telemetry.metrics.get("repro_requests_total")
        label = "telemetry pin"
        served = requests_total.value(process=label, outcome="served")
        degraded = requests_total.value(process=label, outcome="degraded")
        shed = requests_total.value(process=label, outcome="shed")
        assert served + degraded + shed == len(result.records)
        assert shed == result.report.shed_count
        assert degraded == result.report.degraded_count

    def test_batches_and_sizes_match(self, traced_run):
        telemetry, result = traced_run
        label = "telemetry pin"
        batches = telemetry.metrics.get("repro_batches_total")
        assert batches.value(process=label) == len(result.batches)
        sizes = telemetry.metrics.get("repro_batch_size")
        assert sizes.count(process=label) == len(result.batches)
        assert sizes.sum(process=label) == sum(
            len(batch) for batch in result.batches
        )

    def test_ledger_energy_joined(self, traced_run):
        telemetry, result = traced_run
        total = telemetry.metrics.get("repro_energy_total_pj")
        assert total.value(process="telemetry pin") == pytest.approx(
            result.ledger.total().energy_pj
        )
        per_category = telemetry.metrics.get("repro_energy_category_pj")
        for category, cost in result.ledger.by_category().items():
            assert per_category.value(
                process="telemetry pin", category=category
            ) == pytest.approx(cost.energy_pj)

    def test_cache_lookups_split_hit_miss(self, traced_run):
        telemetry, result = traced_run
        lookups = telemetry.metrics.get("repro_cache_lookups_total")
        hits = lookups.value(process="telemetry pin", result="hit")
        misses = lookups.value(process="telemetry pin", result="miss")
        assert hits > 0 and misses > 0
        stats = result.cache_stats
        assert hits == stats["hits"] and misses == stats["misses"]


class TestExports:
    def test_export_produces_loadable_artifacts(self, traced_run, tmp_path):
        telemetry, _ = traced_run
        trace_json = tmp_path / "trace.json"
        trace_jsonl = tmp_path / "trace.jsonl"
        metrics_prom = tmp_path / "metrics.prom"
        telemetry.export(str(trace_json), str(metrics_prom))
        telemetry.export(trace_out=str(trace_jsonl))
        document = json.loads(trace_json.read_text())
        assert document["otherData"]["spans"] == len(telemetry.tracer.spans)
        phases = {event["ph"] for event in document["traceEvents"]}
        assert {"X", "M"} <= phases
        for line in trace_jsonl.read_text().splitlines():
            json.loads(line)
        text = metrics_prom.read_text()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_stage_latency_seconds_bucket" in text


class TestSLOReportRow:
    def test_format_row_includes_shed_and_degraded_rates(self):
        report = SLOReport(
            label="s",
            num_requests=100,
            p50_ms=1.0,
            p95_ms=2.0,
            p99_ms=3.0,
            mean_ms=1.0,
            max_ms=4.0,
            offered_qps=10.0,
            sustained_qps=9.0,
            energy_per_request_uj=1.0,
            cache_hit_rate=0.5,
            mean_batch_size=4.0,
            shed_count=20,
            degraded_count=8,
        )
        row = report.format_row()
        assert "shed=20(20.0%)" in row
        assert "deg=8(10.0%)" in row  # 8 of the 80 served

    def test_format_row_stays_clean_without_overload(self):
        report = SLOReport(
            label="s",
            num_requests=100,
            p50_ms=1.0,
            p95_ms=2.0,
            p99_ms=3.0,
            mean_ms=1.0,
            max_ms=4.0,
            offered_qps=10.0,
            sustained_qps=9.0,
            energy_per_request_uj=1.0,
            cache_hit_rate=0.5,
            mean_batch_size=4.0,
        )
        row = report.format_row()
        assert "shed=" not in row and "deg=" not in row


class TestCLI:
    def test_telemetry_flags_rejected_for_non_serving_experiments(self, capsys):
        assert main(["run", "E1", "--trace-out", "t.json"]) == 2
        assert "serving experiment" in capsys.readouterr().err

    def test_telemetry_flags_forwarded_to_serving_runners(
        self, tmp_path, monkeypatch, capsys
    ):
        seen = {}

        def stub_runner(trace_out=None, metrics_out=None):
            seen["trace_out"] = trace_out
            seen["metrics_out"] = metrics_out

            class _Report:
                def format(self):
                    return "stub"

            return _Report()

        monkeypatch.setitem(EXPERIMENTS, "E-HETERO", ("stub", stub_runner))
        trace = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "run",
                    "E-hetero",
                    "--trace-out",
                    str(trace),
                    "--metrics-out",
                    str(prom),
                ]
            )
            == 0
        )
        assert seen == {"trace_out": str(trace), "metrics_out": str(prom)}
        assert "telemetry ->" in capsys.readouterr().out
