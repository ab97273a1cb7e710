"""Energy/latency accounting primitives shared by every hardware model.

The whole evaluation methodology of the iMARS paper is *compositional*: the
authors simulate individual arrays (Table II figures of merit), then compose
those per-operation costs into mat-, bank- and system-level numbers
(Table III, Sec. IV-C).  This module provides the algebra used everywhere in
the repository for that composition:

* :class:`Cost` -- an (energy, latency) pair with explicit sequential and
  parallel composition rules.
* :class:`Ledger` -- a named, categorised accumulator used to produce the
  operation breakdowns of Fig. 2 and the per-stage tables.

Composition rules
-----------------
Sequential composition (``a + b`` or :meth:`Cost.then`) adds both energy and
latency: the second operation starts after the first finishes.

Parallel composition (``a | b`` or :meth:`Cost.alongside`) adds energy but
takes the *maximum* latency: both operations run concurrently on disjoint
hardware (e.g. the M mats of a bank performing intra-mat additions in
parallel, Sec. III-A1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

__all__ = ["Cost", "Ledger", "ZERO_COST"]


@dataclass(frozen=True)
class Cost:
    """An immutable (energy, latency) figure-of-merit pair.

    Units follow the paper's Table II: energy in picojoules, latency in
    nanoseconds.  Helper properties convert to the microjoule/microsecond
    units used by Table III and the end-to-end results.
    """

    energy_pj: float = 0.0
    latency_ns: float = 0.0

    def __post_init__(self) -> None:
        if not self.energy_pj >= 0.0:
            raise ValueError(f"energy must be non-negative, got {self.energy_pj}")
        if not self.latency_ns >= 0.0:
            raise ValueError(f"latency must be non-negative, got {self.latency_ns}")

    # -- unit conversions ---------------------------------------------------
    @property
    def energy_uj(self) -> float:
        """Energy in microjoules (1 uJ = 1e6 pJ)."""
        return self.energy_pj * 1e-6

    @property
    def energy_mj(self) -> float:
        """Energy in millijoules (1 mJ = 1e9 pJ)."""
        return self.energy_pj * 1e-9

    @property
    def latency_us(self) -> float:
        """Latency in microseconds (1 us = 1e3 ns)."""
        return self.latency_ns * 1e-3

    @property
    def latency_s(self) -> float:
        """Latency in seconds."""
        return self.latency_ns * 1e-9

    @property
    def power_w(self) -> float:
        """Average power in watts (energy / latency); zero-latency -> 0."""
        if self.latency_ns == 0.0:
            return 0.0
        return (self.energy_pj * 1e-12) / (self.latency_ns * 1e-9)

    # -- composition --------------------------------------------------------
    def then(self, other: "Cost") -> "Cost":
        """Sequential composition: energies add, latencies add."""
        return Cost(self.energy_pj + other.energy_pj, self.latency_ns + other.latency_ns)

    def alongside(self, other: "Cost") -> "Cost":
        """Parallel composition: energies add, latency is the maximum."""
        return Cost(
            self.energy_pj + other.energy_pj,
            max(self.latency_ns, other.latency_ns),
        )

    def repeated(self, times: int) -> "Cost":
        """``times`` back-to-back serial repetitions of this operation."""
        if times < 0:
            raise ValueError(f"repetition count must be non-negative, got {times}")
        return Cost(self.energy_pj * times, self.latency_ns * times)

    def broadcast(self, copies: int) -> "Cost":
        """``copies`` concurrent instances on disjoint hardware.

        Energy scales with the copy count, latency does not (all copies run
        in lock-step, like the C CMAs of a mat performing the same lookup).
        """
        if copies < 0:
            raise ValueError(f"copy count must be non-negative, got {copies}")
        latency = self.latency_ns if copies > 0 else 0.0
        return Cost(self.energy_pj * copies, latency)

    def scaled(self, energy_factor: float = 1.0, latency_factor: float = 1.0) -> "Cost":
        """Scale energy and latency independently (used by ablation sweeps)."""
        return Cost(self.energy_pj * energy_factor, self.latency_ns * latency_factor)

    def __add__(self, other: "Cost") -> "Cost":
        if not isinstance(other, Cost):
            return NotImplemented
        return self.then(other)

    def __or__(self, other: "Cost") -> "Cost":
        if not isinstance(other, Cost):
            return NotImplemented
        return self.alongside(other)

    def __mul__(self, times: int) -> "Cost":
        if not isinstance(times, int):
            return NotImplemented
        return self.repeated(times)

    __rmul__ = __mul__

    @staticmethod
    def sequence(costs: Iterable["Cost"]) -> "Cost":
        """Fold an iterable of costs sequentially."""
        total = ZERO_COST
        for cost in costs:
            total = total.then(cost)
        return total

    @staticmethod
    def concurrent(costs: Iterable["Cost"]) -> "Cost":
        """Fold an iterable of costs in parallel."""
        total = ZERO_COST
        for cost in costs:
            total = total.alongside(cost)
        return total

    def speedup_over(self, baseline: "Cost") -> float:
        """Latency improvement factor of *self* relative to *baseline*."""
        if self.latency_ns == 0.0:
            return float("inf")
        return baseline.latency_ns / self.latency_ns

    def energy_reduction_over(self, baseline: "Cost") -> float:
        """Energy improvement factor of *self* relative to *baseline*."""
        if self.energy_pj == 0.0:
            return float("inf")
        return baseline.energy_pj / self.energy_pj


ZERO_COST = Cost(0.0, 0.0)


@dataclass
class Ledger:
    """A categorised accumulator of :class:`Cost` entries.

    Used to build the operation breakdowns of Fig. 2 (ET lookup vs DNN stack
    vs NNS vs top-k) and the per-component tables.  Entries within a category
    are composed sequentially; :meth:`total` composes categories sequentially
    as well, because a single query runs its pipeline steps one after the
    other (the parallelism *inside* a step is already folded into the step's
    cost by the hardware models).
    """

    name: str = "ledger"
    _entries: List[Tuple[str, Cost]] = field(default_factory=list)

    def charge(self, category: str, cost: Cost) -> None:
        """Record *cost* under *category*."""
        self._entries.append((category, cost))

    def extend(self, other: "Ledger") -> None:
        """Merge every entry of *other* into this ledger."""
        self._entries.extend(other._entries)

    def __iter__(self) -> Iterator[Tuple[str, Cost]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def categories(self) -> List[str]:
        """Category names in first-seen order."""
        seen: Dict[str, None] = {}
        for category, _ in self._entries:
            seen.setdefault(category)
        return list(seen)

    def by_category(self) -> Dict[str, Cost]:
        """Sequentially-composed cost per category."""
        totals: Dict[str, Cost] = {}
        for category, cost in self._entries:
            totals[category] = totals.get(category, ZERO_COST).then(cost)
        return totals

    def total(self) -> Cost:
        """Sequential composition of every entry."""
        return Cost.sequence(cost for _, cost in self._entries)

    def latency_breakdown(self) -> Dict[str, float]:
        """Fraction of total latency per category (sums to 1.0)."""
        totals = self.by_category()
        grand = sum(cost.latency_ns for cost in totals.values())
        if grand == 0.0:
            return {category: 0.0 for category in totals}
        return {category: cost.latency_ns / grand for category, cost in totals.items()}

    def energy_breakdown(self) -> Dict[str, float]:
        """Fraction of total energy per category (sums to 1.0)."""
        totals = self.by_category()
        grand = sum(cost.energy_pj for cost in totals.values())
        if grand == 0.0:
            return {category: 0.0 for category in totals}
        return {category: cost.energy_pj / grand for category, cost in totals.items()}
