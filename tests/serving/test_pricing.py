"""Dollar-cost plane: PriceBook rules, PriceLedger accounting, and the
priced serving session.

The pinned contracts: pricing is pure post-processing (a priced run is
bit-identical to an unpriced one in records and energy), every energy
row maps to exactly one dollar row, Retry/Hedge/Migration recovery work
is billed through the same rows it charges in joules, Warm-up rows get
the off-peak discount, and the dollar total of a seeded run is
bit-stable -- across repeats and across the vector/scalar serve paths.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.accounting import Cost, Ledger
from repro.serving.cache import ServingCache
from repro.serving.pricing import (
    DEFAULT_PRICE_BOOK,
    PriceBook,
    PriceLedger,
    price_serving_run,
)
from repro.serving.scheduler import MicroBatchConfig, MicroBatchScheduler
from repro.serving.session import ServingSession
from repro.serving.shard import make_sharded_engine
from repro.serving.traffic import PoissonTraffic


class TestPriceBook:
    def test_engine_time_row_is_latency_hours_times_rate(self):
        book = PriceBook(imc_per_hour=3.6)
        cost = Cost(latency_ns=1e9)  # exactly one second of occupancy
        assert book.price_row("Serve", cost) == pytest.approx(3.6 / 3600.0)

    def test_gpu_rows_bill_the_gpu_rate(self):
        book = PriceBook(imc_per_hour=1.0, gpu_per_hour=10.0)
        cost = Cost(latency_ns=1e9)
        assert book.price_row("Serve", cost, engine_kind="gpu") == (
            pytest.approx(10.0 * book.price_row("Serve", cost, engine_kind="imc"))
        )

    def test_warmup_rows_get_the_off_peak_discount(self):
        book = PriceBook(off_peak_discount=0.5)
        cost = Cost(latency_ns=5e8)
        assert book.price_row("Warm-up", cost) == pytest.approx(
            0.5 * book.price_row("Serve", cost)
        )

    @pytest.mark.parametrize("category", ["Retry", "Hedge", "Migration"])
    def test_recovery_rows_bill_at_the_full_engine_rate(self, category):
        # Recovery work happens during the run, not in the valley: no
        # discount, same row template as "Serve".
        book = PriceBook()
        cost = Cost(latency_ns=3e8)
        assert book.price_row(category, cost) == book.price_row("Serve", cost)

    def test_price_row_is_pure(self):
        # The cost-row template rule: the same row prices identically
        # every time it is seen -- which is what reduces dollar
        # bit-stability to (already pinned) cost-row bit-stability.
        book = PriceBook()
        cost = Cost(energy_pj=123.0, latency_ns=7.5e6)
        first = book.price_row("Serve", cost)
        assert all(book.price_row("Serve", cost) == first for _ in range(10))

    def test_cache_op_and_storage_fees(self):
        book = PriceBook(
            cache_get_per_million=2.0,
            cache_put_per_million=8.0,
            storage_per_entry_hour=0.01,
        )
        gets, puts = book.cache_op_dollars(1_000_000, 500_000)
        assert gets == pytest.approx(2.0)
        assert puts == pytest.approx(4.0)
        assert book.storage_dollars(10, 3600.0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            PriceBook(imc_per_hour=-1.0)
        with pytest.raises(ValueError, match="discount"):
            PriceBook(off_peak_discount=0.0)
        with pytest.raises(ValueError, match="discount"):
            PriceBook(off_peak_discount=1.5)
        with pytest.raises(ValueError, match="engine kind"):
            PriceBook().engine_rate_per_hour("tpu")
        with pytest.raises(ValueError, match="non-negative"):
            PriceBook().cache_op_dollars(-1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            PriceBook().storage_dollars(-1, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            PriceBook().storage_dollars(1, -1.0)


class TestPriceLedger:
    def test_rows_categories_and_totals(self):
        ledger = PriceLedger(name="test")
        ledger.charge("Serve", 1.0)
        ledger.charge("Cache", 0.25)
        ledger.charge("Serve", 0.5)
        assert len(ledger) == 3
        assert ledger.categories() == ["Serve", "Cache"]
        assert ledger.by_category() == {"Serve": 1.5, "Cache": 0.25}
        assert ledger.total() == pytest.approx(1.75)
        assert sum(ledger.breakdown().values()) == pytest.approx(1.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PriceLedger().charge("Serve", -0.01)

    def test_extend_merges_rows(self):
        left = PriceLedger()
        left.charge("Serve", 1.0)
        right = PriceLedger()
        right.charge("Cache-put", 2.0)
        left.extend(right)
        assert left.total() == pytest.approx(3.0)
        assert left.categories() == ["Serve", "Cache-put"]

    def test_empty_breakdown_and_format(self):
        ledger = PriceLedger(name="empty")
        ledger.charge("Serve", 0.0)
        assert ledger.breakdown() == {"Serve": 0.0}
        assert "$0.000000 total" in ledger.format_rows()


class TestPriceServingRun:
    def test_one_dollar_row_per_energy_row(self):
        ledger = Ledger(name="run")
        ledger.charge("Serve", Cost(latency_ns=1e6))
        ledger.charge("Cache", Cost(latency_ns=2e5))
        ledger.charge("Retry", Cost(latency_ns=3e5))
        priced = price_serving_run(ledger)
        assert len(priced) == len(list(ledger))
        assert priced.categories() == ["Serve", "Cache", "Retry"]

    def test_cache_service_fees_appended_from_stats(self):
        ledger = Ledger(name="run")
        ledger.charge("Serve", Cost(latency_ns=1e6))
        book = PriceBook()
        stats = {"hits": 30, "misses": 10, "insertions": 10, "capacity": 16}
        priced = price_serving_run(
            ledger, book, cache_stats=stats, duration_s=7200.0
        )
        by_category = priced.by_category()
        gets, puts = book.cache_op_dollars(40, 10)
        assert by_category["Cache-get"] == pytest.approx(gets)
        assert by_category["Cache-put"] == pytest.approx(puts)
        assert by_category["Cache-storage"] == pytest.approx(
            book.storage_dollars(16, 7200.0)
        )

    def test_default_book_used_when_none_given(self):
        ledger = Ledger(name="run")
        ledger.charge("Serve", Cost(latency_ns=1e9))
        priced = price_serving_run(ledger)
        assert priced.total() == pytest.approx(
            DEFAULT_PRICE_BOOK.price_row("Serve", Cost(latency_ns=1e9))
        )


@pytest.mark.parametrize(
    "rate",
    [
        "imc_per_hour",
        "gpu_per_hour",
        "cache_get_per_million",
        "cache_put_per_million",
        "storage_per_entry_hour",
    ],
)
def test_nan_rate_rejected(rate):
    with pytest.raises(ValueError):
        PriceBook(**{rate: float("nan")})


def _priced_run(serving_setup, seed=0, price_book=None):
    """One priced session's run."""
    session, requests = _priced_session(serving_setup, seed, price_book)
    return session.run(requests)


def _priced_session(serving_setup, seed=0, price_book=None, twin=None):
    """A priced, warmed session and its trace; ``twin`` (the per-query
    twin) swaps the engines' batch path for per-query ``recommend``."""
    dataset, filtering, ranking, mapping, workload = serving_setup
    engine = make_sharded_engine(
        "imars",
        filtering,
        ranking,
        2,
        mapping=mapping,
        num_candidates=24,
        top_k=5,
        seed=0,
    )
    if twin is not None:
        twin(engine)
    rate_qps = 8.0 / engine.recommend_query(workload[0]).cost.latency_s
    requests = PoissonTraffic(
        rate_qps, num_users=dataset.num_users, seed=seed, stream=7
    ).generate(48)
    session = ServingSession(
        engine,
        workload,
        scheduler=MicroBatchScheduler(MicroBatchConfig(max_batch_size=8)),
        cache=ServingCache(capacity=16, rows_per_entry=5),
        label="priced",
        price_book=price_book,
    )
    session.warm(range(6))
    return session, requests


class TestPricedSession:
    def test_pricing_is_pure_post_processing(self, serving_setup):
        # A priced run must be bit-identical to an unpriced one in
        # everything except the attached price ledger.
        priced = _priced_run(serving_setup, price_book=PriceBook())
        unpriced = _priced_run(serving_setup, price_book=None)
        assert unpriced.price_ledger is None
        assert unpriced.report.dollars_total is None
        assert priced.price_ledger is not None
        assert [record.items for record in priced.records] == [
            record.items for record in unpriced.records
        ]
        assert priced.ledger.by_category() == unpriced.ledger.by_category()

    def test_report_joins_the_dollar_column(self, serving_setup):
        result = _priced_run(serving_setup, price_book=PriceBook())
        report = result.report
        assert report.dollars_total == result.price_ledger.total()
        assert report.dollars_per_1k_requests == pytest.approx(
            1e3 * report.dollars_total / report.answered_count
        )
        assert "$=" in report.format_row()
        # The warm-up was billed off-peak and the cache fees landed.
        by_category = result.price_ledger.by_category()
        assert by_category["Warm-up"] > 0.0
        assert by_category["Cache-put"] > 0.0
        assert by_category["Cache-get"] > 0.0

    def test_dollar_total_bit_stable_across_runs(self, serving_setup):
        first = _priced_run(serving_setup, price_book=PriceBook())
        second = _priced_run(serving_setup, price_book=PriceBook())
        assert first.price_ledger.total() == second.price_ledger.total()
        assert list(first.price_ledger) == list(second.price_ledger)

    def test_vector_and_scalar_paths_price_identically(
        self, serving_setup, per_query_twin, forbid_batch_ranking
    ):
        # The batch path and per-query recommend charge identical cost
        # rows, so they must bill identical dollars, row for row.
        vector = _priced_run(serving_setup, price_book=PriceBook())
        session, requests = _priced_session(
            serving_setup, price_book=PriceBook(), twin=per_query_twin
        )
        # Both fleets serve from a ranked table: the twin's must hold
        # recommend's rows, not the batch kernels' the other side ran.
        forbid_batch_ranking()
        scalar = session.run(requests)
        assert session.engine._table_row
        assert list(vector.price_ledger) == list(scalar.price_ledger)
        assert vector.price_ledger.total() == scalar.price_ledger.total()

    def test_recovery_rows_are_priced(self):
        # Retry/Hedge/Migration rows flow through price_serving_run like
        # any engine-time row: same category, engine rate, no discount.
        ledger = Ledger(name="recovering")
        ledger.charge("Serve", Cost(latency_ns=1e7))
        ledger.charge("Retry", Cost(latency_ns=2e6))
        ledger.charge("Hedge", Cost(latency_ns=1e6))
        ledger.charge("Migration", Cost(latency_ns=4e6))
        book = PriceBook()
        priced = price_serving_run(ledger, book)
        by_category = priced.by_category()
        for category in ("Retry", "Hedge", "Migration"):
            row = next(cost for cat, cost in ledger if cat == category)
            assert by_category[category] == pytest.approx(
                book.price_row(category, row)
            )


class TestGroupingInvariance:
    """Pricing is linear in occupancy, so how per-query cost templates
    are grouped into batch rows cannot change the bill."""

    def test_price_total_invariant_to_batch_grouping(self):
        templates = [
            Cost(energy_pj=10.0 * (i + 1), latency_ns=1e5 * (i + 3))
            for i in range(24)
        ]
        book = PriceBook()
        totals = []
        for batch_size in (1, 2, 3, 8, 24):
            ledger = Ledger(name=f"b{batch_size}")
            for start in range(0, len(templates), batch_size):
                row = Cost()
                for cost in templates[start : start + batch_size]:
                    row = row.then(cost)
                ledger.charge("Serve", row)
            totals.append(price_serving_run(ledger, book).total())
        reference = totals[0]
        assert all(
            math.isclose(total, reference, rel_tol=1e-9) for total in totals
        )

    @settings(max_examples=50, deadline=None)
    @given(
        latencies=st.lists(
            st.floats(min_value=1e2, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        batch_size=st.integers(min_value=1, max_value=40),
    )
    def test_grouping_invariance_property(self, latencies, batch_size):
        # For ANY set of per-query cost templates and ANY batch size,
        # the priced total matches the one-row-per-query bill.
        book = PriceBook()
        per_query = Ledger(name="per-query")
        for latency_ns in latencies:
            per_query.charge("Serve", Cost(latency_ns=latency_ns))
        grouped = Ledger(name="grouped")
        for start in range(0, len(latencies), batch_size):
            row = Cost()
            for latency_ns in latencies[start : start + batch_size]:
                row = row.then(Cost(latency_ns=latency_ns))
            grouped.charge("Serve", row)
        assert math.isclose(
            price_serving_run(per_query, book).total(),
            price_serving_run(grouped, book).total(),
            rel_tol=1e-9,
        )
