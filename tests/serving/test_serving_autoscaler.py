"""Unit tests for the closed-loop autoscaler's control law.

The loop is exercised against synthetic deployments (no engines): an
evaluate stub returns canned SLO reports per (shards, replicas) -- or
per (shards, replicas, spillover) for the heterogeneous search -- so
each test controls exactly what the autoscaler measures.
"""

import math
from dataclasses import dataclass
from typing import Dict

import pytest

from repro.serving.autoscaler import Autoscaler, AutoscalerConfig, ScaleStep, _pick
from repro.serving.slo import SLOReport

NAN = float("nan")


def _report(label, p95_ms, energy_uj, shed_count=0):
    return SLOReport(
        label=label,
        num_requests=10,
        p50_ms=p95_ms / 2,
        p95_ms=p95_ms,
        p99_ms=p95_ms * 1.1,
        mean_ms=p95_ms / 2,
        max_ms=p95_ms * 1.2,
        offered_qps=100.0,
        sustained_qps=90.0,
        energy_per_request_uj=energy_uj,
        cache_hit_rate=0.0,
        mean_batch_size=2.0,
        shed_count=shed_count,
    )


@dataclass
class _StubResult:
    report: SLOReport
    tenant_reports: Dict[str, SLOReport]


class _StubDeployments:
    """evaluate() backed by a {(shards, replicas): (p95, energy)} table.

    The search never leaves spillover 0 here (the default bound).
    """

    def __init__(self, table, tenants=None):
        self.table = table
        self.tenants = tenants or {}
        self.calls = []

    def __call__(self, shards, replicas, spillover):
        assert spillover == 0
        self.calls.append((shards, replicas))
        p95_ms, energy_uj = self.table[(shards, replicas)]
        label = f"s={shards} r={replicas}"
        tenant_reports = {
            tenant: _report(f"{label} [{tenant}]", factor * p95_ms, energy_uj)
            for tenant, factor in self.tenants.items()
        }
        return _StubResult(_report(label, p95_ms, energy_uj), tenant_reports)


def test_feasible_start_converges_without_scaling():
    stub = _StubDeployments({(1, 1): (5.0, 1.0)})
    outcome = Autoscaler(stub, AutoscalerConfig(p95_slo_ms=10.0)).run()
    assert outcome.converged
    assert outcome.chosen == (1, 1, 0)
    assert stub.calls == [(1, 1)]  # no speculative evaluations


def test_greedy_follows_the_better_axis_until_feasible():
    stub = _StubDeployments(
        {
            (1, 1): (40.0, 1.0),
            (2, 1): (30.0, 1.2),  # sharding helps less here...
            (1, 2): (20.0, 1.0),  # ...than replication
            (2, 2): (9.0, 1.3),
            (1, 3): (12.0, 1.0),
        }
    )
    outcome = Autoscaler(
        stub, AutoscalerConfig(p95_slo_ms=10.0, max_shards=3, max_replicas=3)
    ).run()
    assert outcome.converged
    assert outcome.chosen == (2, 2, 0)
    # Round 1 compared both axes and moved to (1, 2), round 2 found (2, 2).
    assert (1, 2) in stub.calls and (2, 2) in stub.calls


def test_min_energy_feasible_config_wins():
    stub = _StubDeployments(
        {
            (1, 1): (40.0, 1.0),
            (2, 1): (8.0, 2.0),  # feasible but costly
            (1, 2): (9.0, 1.1),  # feasible and cheap -> chosen
        }
    )
    outcome = Autoscaler(
        stub, AutoscalerConfig(p95_slo_ms=10.0, max_shards=2, max_replicas=2)
    ).run()
    assert outcome.converged
    assert outcome.chosen == (1, 2, 0)


def test_bounds_exhausted_reports_best_effort():
    table = {
        (shards, replicas): (100.0 - 10 * shards - 5 * replicas, 1.0)
        for shards in (1, 2)
        for replicas in (1, 2)
    }
    stub = _StubDeployments(table)
    outcome = Autoscaler(
        stub,
        AutoscalerConfig(p95_slo_ms=1.0, max_shards=2, max_replicas=2, max_steps=8),
    ).run()
    assert not outcome.converged
    # Best effort: the lowest-p95 config measured, here the largest one.
    assert outcome.chosen == (2, 2, 0)
    assert not outcome.best.meets_slo
    assert outcome.best.violations


def test_evaluations_are_memoized():
    stub = _StubDeployments(
        {(1, 1): (40.0, 1.0), (2, 1): (30.0, 1.0), (1, 2): (35.0, 1.0),
         (3, 1): (25.0, 1.0), (2, 2): (28.0, 1.0), (3, 2): (22.0, 1.0)}
    )
    Autoscaler(
        stub,
        AutoscalerConfig(p95_slo_ms=1.0, max_shards=3, max_replicas=2, max_steps=6),
    ).run()
    assert len(stub.calls) == len(set(stub.calls))


def test_tenant_slo_violation_forces_scale_out():
    # Global p95 is fine from the start, but the strict tenant (2x the
    # global p95 in the stub) breaches its contract until (1, 2).
    stub = _StubDeployments(
        {(1, 1): (8.0, 1.0), (2, 1): (6.0, 1.5), (1, 2): (4.0, 1.0)},
        tenants={"strict": 2.0, "lax": 0.5},
    )
    outcome = Autoscaler(
        stub,
        AutoscalerConfig(
            p95_slo_ms=20.0,
            tenant_slos_ms={"strict": 10.0, "lax": 20.0},
            max_shards=2,
            max_replicas=2,
        ),
    ).run()
    assert outcome.converged
    assert outcome.chosen == (1, 2, 0)
    first = outcome.steps[0]
    assert not first.meets_slo
    assert any("strict" in violation for violation in first.violations)


def test_missing_tenant_is_a_violation():
    stub = _StubDeployments({(1, 1): (1.0, 1.0)}, tenants={"present": 1.0})
    outcome = Autoscaler(
        stub,
        AutoscalerConfig(
            p95_slo_ms=10.0,
            tenant_slos_ms={"ghost": 5.0},
            max_shards=1,
            max_replicas=1,
        ),
    ).run()
    assert not outcome.converged
    assert any("ghost" in violation for violation in outcome.steps[0].violations)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p95_slo_ms": 0.0},
        {"p95_slo_ms": 5.0, "tenant_slos_ms": {"t": -1.0}},
        {"p95_slo_ms": 5.0, "max_shards": 0},
        {"p95_slo_ms": 5.0, "max_replicas": 0},
        {"p95_slo_ms": 5.0, "max_steps": 0},
        {"p95_slo_ms": 5.0, "max_spillover_replicas": -1},
        {"p95_slo_ms": 5.0, "max_steps": float("nan")},
        {"p95_slo_ms": float("nan")},
        {"p95_slo_ms": 5.0, "tenant_slos_ms": {"t": float("nan")}},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        AutoscalerConfig(**kwargs)


class _StubHeteroDeployments:
    """evaluate() over {(shards, replicas, spillover): (p95, energy)}."""

    def __init__(self, table):
        self.table = table
        self.calls = []

    def __call__(self, shards, replicas, spillover):
        self.calls.append((shards, replicas, spillover))
        p95_ms, energy_uj = self.table[(shards, replicas, spillover)]
        return _StubResult(
            _report(f"s={shards} r={replicas} g={spillover}", p95_ms, energy_uj),
            {},
        )


class TestHeterogeneousSearch:
    def test_spillover_axis_searched_when_homogeneous_grid_infeasible(self):
        # The IMC grid is capped at (2, 2) and never meets the contract;
        # only GPU spillover does.  The heterogeneous search must find it
        # and report a 3-tuple choice.
        table = {
            (1, 1, 0): (40.0, 1.0),
            (2, 1, 0): (30.0, 1.1),
            (1, 2, 0): (28.0, 1.0),
            (1, 1, 1): (9.0, 5.0),
            (2, 2, 0): (20.0, 1.2),
            (1, 3, 0): (24.0, 1.0),
            (2, 1, 1): (8.0, 5.5),
            (1, 2, 1): (7.0, 5.2),
            (1, 1, 2): (6.0, 9.0),
        }
        stub = _StubHeteroDeployments(table)
        outcome = Autoscaler(
            stub,
            AutoscalerConfig(
                p95_slo_ms=10.0, max_shards=2, max_replicas=2,
                max_spillover_replicas=2, max_steps=8,
            ),
        ).run()
        assert outcome.converged
        assert len(outcome.chosen) == 3
        assert outcome.chosen[2] >= 1
        assert all(len(call) == 3 for call in stub.calls)

    def test_energy_aware_placement_prefers_imc_when_feasible(self):
        # Both a GPU-backed config and a pure-IMC config meet the SLO;
        # the hungry GPU one must lose on energy even though it is
        # measured first.
        table = {
            (1, 1, 0): (40.0, 1.0),
            (2, 1, 0): (12.0, 1.2),
            (1, 2, 0): (9.0, 1.1),   # feasible, cheap -> chosen
            (1, 1, 1): (6.0, 8.0),   # feasible, GPU-priced -> rejected
        }
        stub = _StubHeteroDeployments(table)
        outcome = Autoscaler(
            stub,
            AutoscalerConfig(
                p95_slo_ms=10.0, max_shards=2, max_replicas=2,
                max_spillover_replicas=1, max_steps=8,
            ),
        ).run()
        assert outcome.converged
        assert outcome.chosen == (1, 2, 0)
        assert outcome.best.spillover_replicas == 0

    def test_format_mentions_spillover(self):
        # The IMC axes are capped at (1, 1), so the search grows into
        # the spillover axis and the trajectory prints it.
        table = {(1, 1, 0): (40.0, 1.0), (1, 1, 1): (5.0, 4.0)}
        outcome = Autoscaler(
            _StubHeteroDeployments(table),
            AutoscalerConfig(
                p95_slo_ms=10.0, max_shards=1, max_replicas=1,
                max_spillover_replicas=1,
            ),
        ).run()
        assert outcome.chosen == (1, 1, 1)
        assert "spillover=1" in outcome.format()

    def test_energy_tie_prefers_no_spillover(self):
        # ``run()`` stops in the round that first meets the SLO, so two
        # feasible steps on the same IMC axes never meet there; the pin
        # is on the one selection rule it applies to every round.
        def step(spillover, meets_slo):
            return ScaleStep(
                shards=1, replicas=2, spillover_replicas=spillover,
                report=_report("s", 5.0, 2.0), tenant_reports={},
                meets_slo=meets_slo, violations=(),
            )

        for meets_slo in (True, False):  # energy tie, then tail tie
            chosen = _pick([step(1, meets_slo), step(0, meets_slo)])
            assert chosen.config_key == (1, 2, 0)


class TestNothingAnswered:
    """A deployment that sheds or fails every request has a NaN p95
    (the ``summarize`` contract); it must never pass for one that meets
    the SLO."""

    @staticmethod
    def _stub(table):
        def evaluate(shards, replicas, spillover):
            p95_ms, energy_uj = table[(shards, replicas, spillover)]
            shed = 10 if math.isnan(p95_ms) else 0
            return _StubResult(
                _report("s", p95_ms, energy_uj, shed_count=shed), {}
            )

        return evaluate

    def test_all_shed_start_is_a_violation(self):
        table = {(1, 1, 0): (NAN, NAN), (2, 1, 0): (5.0, 2.0), (1, 2, 0): (NAN, NAN)}
        outcome = Autoscaler(
            self._stub(table),
            AutoscalerConfig(p95_slo_ms=10.0, max_shards=2, max_replicas=2),
        ).run()
        first = outcome.steps[0]
        assert not first.meets_slo
        assert first.violations == ("global answered no request",)
        assert outcome.converged
        assert outcome.chosen == (2, 1, 0)
        # NaN prints as a dash, as in SLOReport.format_row.
        assert outcome.format().splitlines()[0] == (
            "  [VIOL] shards=1 replicas=1 p95=       -ms E/req=         -uJ"
        )

    def test_best_effort_skips_steps_that_answered_nothing(self):
        table = {(1, 1, 0): (40.0, 1.0), (2, 1, 0): (NAN, NAN), (1, 2, 0): (30.0, 1.0)}
        outcome = Autoscaler(
            self._stub(table),
            AutoscalerConfig(
                p95_slo_ms=10.0, max_shards=2, max_replicas=2, max_steps=1
            ),
        ).run()
        assert not outcome.converged
        # (2, 1, 0) sorts first on the config tuple, but answered nothing.
        assert outcome.chosen == (1, 2, 0)

    def test_tenant_that_answered_nothing_is_a_violation(self):
        def evaluate(shards, replicas, spillover):
            return _StubResult(
                _report("s", 1.0, 1.0),
                {"starved": _report("s [starved]", NAN, NAN, shed_count=10)},
            )

        outcome = Autoscaler(
            evaluate,
            AutoscalerConfig(
                p95_slo_ms=10.0, tenant_slos_ms={"starved": 10.0},
                max_shards=1, max_replicas=1,
            ),
        ).run()
        assert not outcome.converged
        assert outcome.steps[0].violations == ("tenant 'starved' answered no request",)
