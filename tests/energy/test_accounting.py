"""Unit tests for the Cost/Ledger composition algebra."""

import pytest

from repro.energy.accounting import Cost, Ledger, ZERO_COST


class TestCostConstruction:
    def test_default_is_zero(self):
        assert Cost() == ZERO_COST

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            Cost(energy_pj=-1.0, latency_ns=1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Cost(energy_pj=1.0, latency_ns=-1.0)

    @pytest.mark.parametrize("field", ["energy_pj", "latency_ns"])
    def test_nan_rejected(self, field):
        # ``x < 0`` is False for NaN; the check is written to fail on it.
        with pytest.raises(ValueError):
            Cost(**{field: float("nan")})

    def test_costs_are_immutable(self):
        cost = Cost(1.0, 2.0)
        with pytest.raises(AttributeError):
            cost.energy_pj = 5.0


class TestUnitConversions:
    def test_energy_unit_chain(self):
        cost = Cost(energy_pj=2.5e6, latency_ns=1.0)
        assert cost.energy_uj == pytest.approx(2.5)
        assert cost.energy_mj == pytest.approx(2.5e-3)

    def test_latency_unit_chain(self):
        cost = Cost(energy_pj=1.0, latency_ns=1500.0)
        assert cost.latency_us == pytest.approx(1.5)
        assert cost.latency_s == pytest.approx(1.5e-6)

    def test_power_watts(self):
        # 22 uJ over 1 us is 22 W (the GPU ET-op operating point).
        cost = Cost(energy_pj=22e6, latency_ns=1000.0)
        assert cost.power_w == pytest.approx(22.0)

    def test_power_of_zero_latency_is_zero(self):
        assert Cost(energy_pj=10.0, latency_ns=0.0).power_w == 0.0


class TestComposition:
    def test_sequential_adds_both(self):
        combined = Cost(1.0, 2.0).then(Cost(3.0, 4.0))
        assert combined == Cost(4.0, 6.0)

    def test_plus_operator_is_sequential(self):
        assert Cost(1.0, 2.0) + Cost(3.0, 4.0) == Cost(4.0, 6.0)

    def test_parallel_takes_max_latency(self):
        combined = Cost(1.0, 2.0).alongside(Cost(3.0, 9.0))
        assert combined == Cost(4.0, 9.0)

    def test_or_operator_is_parallel(self):
        assert (Cost(1.0, 2.0) | Cost(3.0, 9.0)) == Cost(4.0, 9.0)

    def test_repeated_scales_both(self):
        assert Cost(2.0, 3.0).repeated(4) == Cost(8.0, 12.0)

    def test_repeated_zero_is_free(self):
        assert Cost(2.0, 3.0).repeated(0) == ZERO_COST

    def test_repeated_negative_rejected(self):
        with pytest.raises(ValueError):
            Cost(1.0, 1.0).repeated(-1)

    def test_mul_operator(self):
        assert 3 * Cost(2.0, 1.0) == Cost(6.0, 3.0)

    def test_broadcast_scales_energy_only(self):
        spread = Cost(2.0, 3.0).broadcast(5)
        assert spread == Cost(10.0, 3.0)

    def test_broadcast_zero_copies(self):
        assert Cost(2.0, 3.0).broadcast(0) == ZERO_COST

    def test_sequence_fold(self):
        total = Cost.sequence([Cost(1.0, 1.0)] * 3)
        assert total == Cost(3.0, 3.0)

    def test_concurrent_fold(self):
        total = Cost.concurrent([Cost(1.0, 5.0), Cost(2.0, 3.0)])
        assert total == Cost(3.0, 5.0)

    def test_empty_sequence_is_zero(self):
        assert Cost.sequence([]) == ZERO_COST

    def test_composition_associativity(self):
        a, b, c = Cost(1, 2), Cost(3, 4), Cost(5, 6)
        assert (a + b) + c == a + (b + c)

    def test_parallel_commutativity(self):
        a, b = Cost(1, 9), Cost(3, 2)
        assert (a | b) == (b | a)


class TestImprovementFactors:
    def test_speedup_over(self):
        fast, slow = Cost(1.0, 10.0), Cost(1.0, 100.0)
        assert fast.speedup_over(slow) == pytest.approx(10.0)

    def test_energy_reduction_over(self):
        lean, fat = Cost(2.0, 1.0), Cost(200.0, 1.0)
        assert lean.energy_reduction_over(fat) == pytest.approx(100.0)

    def test_zero_latency_speedup_is_infinite(self):
        assert Cost(1.0, 0.0).speedup_over(Cost(1.0, 5.0)) == float("inf")


class TestLedger:
    def test_charge_and_total(self):
        ledger = Ledger()
        ledger.charge("a", Cost(1.0, 2.0))
        ledger.charge("b", Cost(3.0, 4.0))
        assert ledger.total() == Cost(4.0, 6.0)

    def test_by_category_accumulates(self):
        ledger = Ledger()
        ledger.charge("a", Cost(1.0, 1.0))
        ledger.charge("a", Cost(2.0, 2.0))
        assert ledger.by_category()["a"] == Cost(3.0, 3.0)

    def test_categories_preserve_first_seen_order(self):
        ledger = Ledger()
        for name in ("z", "a", "z", "m"):
            ledger.charge(name, Cost(1.0, 1.0))
        assert ledger.categories() == ["z", "a", "m"]

    def test_latency_breakdown_sums_to_one(self):
        ledger = Ledger()
        ledger.charge("a", Cost(0.0, 3.0))
        ledger.charge("b", Cost(0.0, 1.0))
        fractions = ledger.latency_breakdown()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["a"] == pytest.approx(0.75)

    def test_energy_breakdown(self):
        ledger = Ledger()
        ledger.charge("a", Cost(9.0, 1.0))
        ledger.charge("b", Cost(1.0, 1.0))
        assert ledger.energy_breakdown()["a"] == pytest.approx(0.9)

    def test_empty_ledger_breakdown_is_empty(self):
        assert Ledger().latency_breakdown() == {}

    def test_extend_merges_entries(self):
        first, second = Ledger(), Ledger()
        first.charge("a", Cost(1.0, 1.0))
        second.charge("b", Cost(2.0, 2.0))
        first.extend(second)
        assert len(first) == 2
        assert first.total() == Cost(3.0, 3.0)

    def test_iteration_yields_entries(self):
        ledger = Ledger()
        ledger.charge("a", Cost(1.0, 1.0))
        entries = list(ledger)
        assert entries == [("a", Cost(1.0, 1.0))]
