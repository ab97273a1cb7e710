"""Dollar-cost accounting: a price ledger next to the energy ledger.

The energy :class:`~repro.energy.accounting.Ledger` answers the paper's
question -- how many joules did a request cost? -- but operators buy
capacity in dollars: engine time is rented by the hour, a managed result
cache bills every put/get plus provisioned storage, and off-peak compute
is discounted.  This module prices a serving run in dollars *from the
same cost rows the energy ledger already holds*: every energy row
``(category, Cost)`` maps deterministically to one dollar row
``(category, $)`` through :meth:`PriceBook.price_row`, so the dollar
plane inherits the bit-stability of the PR 6 cost-row templates -- a
seeded run prices to the same cents every time, and the vectorised and
scalar serve paths (which charge identical cost rows) price identically
too.

Row pricing rules
-----------------
* **Engine-time rows** ("Serve", "Retry", "Hedge", "Migration",
  "Warm-up", and any unrecognised category): the row's latency is
  engine occupancy, billed at the engine's $/hour rate.  Recovery work
  (the "Retry"/"Hedge" rows of PR 8) and state migration (PR 5) are
  thereby billed in dollars exactly as they were in joules -- same
  rows, different unit.  "Warm-up" rows are discounted by
  ``off_peak_discount``: precomputation is scheduled into the cheap
  valley of the diurnal curve.
* **Cache occupancy rows** ("Cache"): the CMA probe/readout/fill
  traffic occupies the same rented hardware, so the row is billed as
  engine time as well.  The *service-side* cache bill (what a managed
  cache would charge) is added separately by
  :func:`price_serving_run` from the cache's own counters: per-million
  get/put operation fees plus provisioned storage per entry-hour --
  the ``put_cost``/``get_cost``/``cost_per_gb`` decomposition of cloud
  cache pricing.

:func:`price_serving_run` is the one-call entry the serving session
uses; it returns a :class:`PriceLedger` whose API mirrors the energy
ledger (categories, per-category totals, breakdowns) so reports can
join the two planes row for row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.energy.accounting import Cost, Ledger

__all__ = [
    "PriceBook",
    "PriceLedger",
    "DEFAULT_PRICE_BOOK",
    "price_serving_run",
]

#: Hours per second -- the only unit conversion dollar pricing needs.
_HOURS_PER_S = 1.0 / 3600.0

#: Energy-ledger categories billed at the off-peak (discounted) engine
#: rate: precomputation is deliberately scheduled into the traffic
#: valley, which is the whole point of the eager execution model.
OFF_PEAK_CATEGORIES = frozenset({"Warm-up"})


@dataclass(frozen=True)
class PriceBook:
    """Per-resource dollar rates (the ``HW_PARAMETERS`` of the fleet).

    Defaults are order-of-magnitude cloud figures: an accelerator
    instance a few dollars per hour (the IMC fabric cheaper than the
    GPU, mirroring its energy advantage), a managed cache billing
    fractions of a dollar per million operations, storage per
    entry-hour.  Absolute values matter less than their ratios -- every
    study pins *relative* dollar claims.
    """

    #: $/hour for one IMC (CMA fabric) engine's occupied time.
    imc_per_hour: float = 1.10
    #: $/hour for one GPU engine's occupied time.
    gpu_per_hour: float = 2.95
    #: $ per million cache get operations (each lookup is one get).
    cache_get_per_million: float = 0.40
    #: $ per million cache put operations (each insertion is one put).
    cache_put_per_million: float = 4.00
    #: $ per cache entry per hour of provisioned capacity.
    storage_per_entry_hour: float = 2.0e-6
    #: Multiplier on engine time billed off-peak (``OFF_PEAK_CATEGORIES``).
    off_peak_discount: float = 0.6

    def __post_init__(self) -> None:
        for name in (
            "imc_per_hour",
            "gpu_per_hour",
            "cache_get_per_million",
            "cache_put_per_million",
            "storage_per_entry_hour",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 < self.off_peak_discount <= 1.0:
            raise ValueError(
                f"off-peak discount must be in (0, 1], got {self.off_peak_discount}"
            )

    def engine_rate_per_hour(self, engine_kind: str) -> float:
        """$/hour of the named engine kind (``imc`` or ``gpu``)."""
        if engine_kind == "imc":
            return self.imc_per_hour
        if engine_kind == "gpu":
            return self.gpu_per_hour
        raise ValueError(f"unknown engine kind {engine_kind!r}")

    def price_row(self, category: str, cost: Cost, engine_kind: str = "imc") -> float:
        """Dollars for one energy-ledger row (the cost-row template rule).

        Pure in its inputs: the same row prices to the same dollars in
        any run, any batch composition -- dollar bit-stability reduces
        to cost-row bit-stability, which PR 6 pins.
        """
        rate = self.engine_rate_per_hour(engine_kind)
        if category in OFF_PEAK_CATEGORIES:
            rate *= self.off_peak_discount
        return cost.latency_s * _HOURS_PER_S * rate

    def cache_op_dollars(self, gets: int, puts: int) -> Tuple[float, float]:
        """(get $, put $) for the run's cache operation counts."""
        if gets < 0 or puts < 0:
            raise ValueError("operation counts must be non-negative")
        return (
            gets * self.cache_get_per_million * 1e-6,
            puts * self.cache_put_per_million * 1e-6,
        )

    def storage_dollars(self, entries: int, duration_s: float) -> float:
        """Provisioned-capacity bill: ``entries`` slots held ``duration_s``."""
        if entries < 0:
            raise ValueError("entry count must be non-negative")
        if duration_s < 0.0:
            raise ValueError("duration must be non-negative")
        return entries * duration_s * _HOURS_PER_S * self.storage_per_entry_hour


#: The repository-wide default book (used when a session is asked to
#: price itself without an explicit one).
DEFAULT_PRICE_BOOK = PriceBook()


@dataclass
class PriceLedger:
    """A categorised accumulator of dollar rows.

    The dollar twin of :class:`~repro.energy.accounting.Ledger`: rows
    are appended in charge order, category totals are plain sums, and
    the breakdown sums to 1.  Kept a separate type (not a ``Cost``
    ledger with dollars in the energy slot) so the two planes cannot be
    accidentally mixed.
    """

    name: str = "price"
    _rows: List[Tuple[str, float]] = field(default_factory=list)

    def charge(self, category: str, dollars: float) -> None:
        """Record ``dollars`` under ``category``."""
        if dollars < 0.0:
            raise ValueError(f"dollar charge must be non-negative, got {dollars}")
        self._rows.append((category, dollars))

    def extend(self, other: "PriceLedger") -> None:
        """Merge every row of ``other`` into this ledger."""
        self._rows.extend(other._rows)

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def categories(self) -> List[str]:
        """Category names in first-seen order."""
        seen: Dict[str, None] = {}
        for category, _ in self._rows:
            seen.setdefault(category)
        return list(seen)

    def by_category(self) -> Dict[str, float]:
        """Summed dollars per category."""
        totals: Dict[str, float] = {}
        for category, dollars in self._rows:
            totals[category] = totals.get(category, 0.0) + dollars
        return totals

    def total(self) -> float:
        """Sum of every row, in charge order (deterministic)."""
        total = 0.0
        for _, dollars in self._rows:
            total += dollars
        return total

    def breakdown(self) -> Dict[str, float]:
        """Fraction of the total per category (sums to 1.0)."""
        totals = self.by_category()
        grand = sum(totals.values())
        if grand == 0.0:
            return {category: 0.0 for category in totals}
        return {category: dollars / grand for category, dollars in totals.items()}

    def format_rows(self) -> str:
        """Human-readable per-category breakdown."""
        totals = self.by_category()
        grand = self.total()
        lines = [f"  {self.name}: ${grand:.6f} total"]
        for category, dollars in totals.items():
            share = dollars / grand if grand else 0.0
            lines.append(
                f"    {category:<14s} ${dollars:12.8f}  ({share * 100.0:5.1f}%)"
            )
        return "\n".join(lines)


def price_serving_run(
    ledger: Ledger,
    book: Optional[PriceBook] = None,
    *,
    engine_kind: str = "imc",
    cache_stats: Optional[Dict[str, float]] = None,
    duration_s: float = 0.0,
    name: str = "price",
) -> PriceLedger:
    """Price one serving run's energy ledger (plus cache service fees).

    ``ledger`` is the session's energy ledger; every row is priced by
    :meth:`PriceBook.price_row` -- so Retry/Hedge/Migration recovery
    work is billed in dollars through exactly the rows PRs 5 and 8
    already charge in joules.  ``cache_stats`` (the dict from
    :meth:`~repro.serving.cache.ServingCache.stats`) adds the managed
    cache's service bill: per-operation get/put fees from the hit/miss
    and insertion counters, and provisioned storage for ``capacity``
    entries held over ``duration_s`` (the run's makespan).
    """
    book = book or DEFAULT_PRICE_BOOK
    priced = PriceLedger(name=name)
    for category, cost in ledger:
        priced.charge(category, book.price_row(category, cost, engine_kind))
    if cache_stats is not None:
        gets = int(cache_stats.get("hits", 0)) + int(cache_stats.get("misses", 0))
        puts = int(cache_stats.get("insertions", 0))
        get_dollars, put_dollars = book.cache_op_dollars(gets, puts)
        priced.charge("Cache-get", get_dollars)
        priced.charge("Cache-put", put_dollars)
        priced.charge(
            "Cache-storage",
            book.storage_dollars(int(cache_stats.get("capacity", 0)), duration_s),
        )
    return priced
