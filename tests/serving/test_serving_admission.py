"""Tests for SLO-guarded admission control (shed / degrade / accept)."""

import pytest

from repro.serving.admission import (
    ACCEPT,
    DEGRADE,
    SHED,
    AdmissionConfig,
    AdmissionController,
)
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.shard import make_sharded_engine
from repro.serving.slo import RequestRecord, summarize
from repro.serving.traffic import PoissonTraffic, Request
from repro.energy.accounting import Cost, Ledger


def _request(arrival_s=0.0, tenant="default", request_id=0):
    return Request(
        request_id=request_id, arrival_s=arrival_s, user=0, tenant=tenant
    )


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(slo_ms=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(slo_ms=1.0, tenant_slos_ms={"a": -1.0})
        with pytest.raises(ValueError):
            AdmissionConfig(slo_ms=float("nan"))
        with pytest.raises(ValueError):
            AdmissionConfig(slo_ms=1.0, tenant_slos_ms={"a": float("nan")})
        with pytest.raises(ValueError):
            AdmissionConfig(slo_ms=1.0, degrade_watermark=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(slo_ms=1.0, degrade_watermark=1.2, shed_watermark=1.0)
        with pytest.raises(ValueError):
            AdmissionConfig(slo_ms=1.0, degraded_top_k=0)

    def test_tenant_budget_overrides_default(self):
        config = AdmissionConfig(slo_ms=10.0, tenant_slos_ms={"gold": 2.0})
        assert config.budget_ms("gold") == 2.0
        assert config.budget_ms("anyone-else") == 10.0


class TestAdmissionController:
    def _controller(self, **kwargs):
        defaults = dict(slo_ms=1.0, degrade_watermark=0.5, shed_watermark=1.0)
        defaults.update(kwargs)
        return AdmissionController(AdmissionConfig(**defaults))

    def test_no_estimate_accepts_everything(self):
        controller = self._controller()
        assert controller.decide(_request(), 10.0, None) == ACCEPT
        assert controller.accepted == 1

    def test_outcome_escalates_with_projected_latency(self):
        controller = self._controller()
        # Budget 1 ms: 0.1 ms projected -> accept, 0.7 -> degrade, 2 -> shed.
        assert controller.decide(_request(), 0.0, 0.1e-3) == ACCEPT
        assert controller.decide(_request(), 0.0, 0.7e-3) == DEGRADE
        assert controller.decide(_request(), 0.0, 2.0e-3) == SHED
        assert (controller.accepted, controller.degraded, controller.shed) == (1, 1, 1)

    def test_queueing_time_counts_against_the_budget(self):
        controller = self._controller()
        # The same service estimate sheds once the request has queued long.
        assert controller.decide(_request(arrival_s=0.0), 0.0, 0.2e-3) == ACCEPT
        assert controller.decide(_request(arrival_s=0.0), 0.9e-3, 0.2e-3) == SHED

    def test_per_tenant_budgets_and_counters(self):
        controller = self._controller(tenant_slos_ms={"tight": 0.1})
        assert controller.decide(_request(tenant="tight"), 0.0, 0.2e-3) == SHED
        assert controller.decide(_request(tenant="loose"), 0.0, 0.2e-3) == ACCEPT
        stats = controller.stats()
        assert stats["by_tenant"]["tight"][SHED] == 1
        assert stats["by_tenant"]["loose"][ACCEPT] == 1
        assert stats["decisions"] == 2
        assert stats["shed_rate"] == pytest.approx(0.5)

    def test_dispatch_before_arrival_rejected(self):
        controller = self._controller()
        with pytest.raises(ValueError):
            controller.decide(_request(arrival_s=5.0), 1.0, 0.1)


class TestSLOReportAccounting:
    def _record(self, request_id, latency_s, shed=False, degraded=False):
        return RequestRecord(
            request=_request(arrival_s=0.0, request_id=request_id),
            completion_s=latency_s,
            batch_size=1,
            cache_hit=False,
            items=() if shed else (1, 2),
            shed=shed,
            degraded=degraded,
        )

    def test_shed_requests_leave_the_latency_tail(self):
        served = [self._record(i, 1.0) for i in range(4)]
        ledger = Ledger()
        ledger.charge("Serve", Cost(energy_pj=8e6, latency_ns=1.0))
        base = summarize(served, ledger)
        with_shed = summarize(
            served + [self._record(9, 0.001, shed=True)], ledger
        )
        # Percentiles unchanged: a rejection is not a fast completion.
        assert with_shed.p95_ms == base.p95_ms
        assert with_shed.shed_count == 1
        assert with_shed.served_count == 4
        assert with_shed.shed_rate == pytest.approx(0.2)
        # Energy is normalised per *served* request.
        assert with_shed.energy_per_request_uj == base.energy_per_request_uj

    def test_degraded_counted_among_served(self):
        records = [self._record(0, 1.0), self._record(1, 1.0, degraded=True)]
        report = summarize(records, Ledger())
        assert report.degraded_count == 1
        assert report.degraded_rate == pytest.approx(0.5)

    def test_all_shed_degenerates_gracefully(self):
        import math

        records = [self._record(i, 0.0, shed=True) for i in range(3)]
        report = summarize(records, Ledger())
        # No request was answered: there is no latency tail to report.
        assert math.isnan(report.p95_ms)
        assert report.served_count == 0
        assert report.shed_rate == 1.0
        assert "nan" not in report.format_row()

    def test_tenant_energy_attributed_by_served_share(self):
        """Regression: a heavily-shed tenant is not billed for volume
        the engine never served."""
        from repro.serving.slo import summarize_tenants

        records = []
        # Tenant A: 4 offered, 3 shed. Tenant B: 4 offered, all served.
        for index in range(4):
            records.append(
                RequestRecord(
                    request=_request(tenant="a", request_id=index),
                    completion_s=0.001,
                    batch_size=1,
                    cache_hit=False,
                    items=() if index else (1,),
                    shed=bool(index),
                )
            )
        for index in range(4, 8):
            records.append(
                RequestRecord(
                    request=_request(tenant="b", request_id=index),
                    completion_s=0.001,
                    batch_size=1,
                    cache_hit=False,
                    items=(1,),
                )
            )
        ledger = Ledger()
        ledger.charge("Serve", Cost(energy_pj=5e6, latency_ns=1.0))
        reports = summarize_tenants(records, ledger)
        # 1 of 5 served requests is tenant A's: it carries 1/5 of the energy.
        total_uj = ledger.total().energy_uj
        assert reports["a"].energy_per_request_uj == pytest.approx(total_uj / 5)
        assert reports["b"].energy_per_request_uj == pytest.approx(
            (total_uj * 4 / 5) / 4
        )
        # Attribution conserves the session total over served requests.
        conserved = sum(
            report.energy_per_request_uj * report.served_count
            for report in reports.values()
        )
        assert conserved == pytest.approx(total_uj)

    def test_shed_record_cannot_carry_items(self):
        with pytest.raises(ValueError):
            RequestRecord(
                request=_request(),
                completion_s=0.0,
                batch_size=1,
                cache_hit=False,
                items=(1,),
                shed=True,
            )


class TestSessionIntegration:
    @pytest.fixture(scope="class")
    def overloaded(self, serving_setup):
        """One overloaded session with admission, one without."""
        dataset, filtering, ranking, mapping, workload = serving_setup
        engine = make_sharded_engine(
            "imars", filtering, ranking, 1, mapping=mapping,
            num_candidates=12, top_k=4, seed=0,
        )
        batch_one_s = engine.recommend_query(workload[0]).cost.latency_s
        rate = 8.0 / batch_one_s
        requests = PoissonTraffic(
            rate, num_users=dataset.num_users, seed=0, stream=3
        ).generate(120)
        slo_ms = 4.0 * batch_one_s * 1e3

        def run(admission):
            return ServingSession(
                make_sharded_engine(
                    "imars", filtering, ranking, 1, mapping=mapping,
                    num_candidates=12, top_k=4, seed=0,
                ),
                workload,
                scheduler=MicroBatchScheduler(
                    MicroBatchConfig(max_batch_size=8, max_wait_s=0.0)
                ),
                admission=admission,
                label="admission-test",
            ).run(requests)

        controller = AdmissionController(
            AdmissionConfig(slo_ms=slo_ms, degraded_top_k=2)
        )
        return run(None), run(controller), controller

    def test_overload_sheds_and_degrades(self, overloaded):
        _, guarded, controller = overloaded
        report = guarded.report
        assert report.shed_count > 0
        assert report.degraded_count > 0
        assert report.shed_count == controller.shed
        assert guarded.admission_stats["shed"] == controller.shed

    def test_guarded_tail_beats_unguarded(self, overloaded):
        unguarded, guarded, _ = overloaded
        assert guarded.report.p95_ms < unguarded.report.p95_ms
        assert unguarded.report.shed_count == 0

    def test_degraded_records_truncated_to_reduced_topk(self, overloaded):
        _, guarded, controller = overloaded
        degraded_k = controller.config.degraded_top_k
        degraded = [record for record in guarded.records if record.degraded]
        assert degraded
        assert all(len(record.items) <= degraded_k for record in degraded)

    def test_shed_records_served_nothing_at_dispatch(self, overloaded):
        _, guarded, _ = overloaded
        shed = [record for record in guarded.records if record.shed]
        assert shed
        assert all(record.items == () for record in shed)
        # A rejection completes at dispatch: it never waits for the engine.
        assert all(not record.cache_hit for record in shed)

    def test_record_count_conserved(self, overloaded):
        unguarded, guarded, _ = overloaded
        assert len(guarded.records) == len(unguarded.records)
