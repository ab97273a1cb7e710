"""Counters, gauges, and fixed-bucket histograms for the serving plane.

The :class:`MetricsRegistry` is the aggregate companion to the span
stream in :mod:`repro.obs.tracer`: where the tracer answers "where did
*this* request's time go", the registry answers "what did the run look
like" -- queue depth, batch size, hit rate, shed/degrade volumes, and
per-stage latency + energy attribution joined against the
:class:`~repro.energy.accounting.Ledger`.

All three instrument kinds are label-aware: ``registry.counter("x")``
names a family, and ``inc``/``set``/``observe`` take ``**labels`` to
address one series inside it.  Families render to Prometheus text
exposition (``# HELP`` / ``# TYPE`` plus one line per labelled series,
histograms as cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``)
via :meth:`MetricsRegistry.render_prometheus`; ordering is sorted and
deterministic so two identical runs emit byte-identical textfiles.

Histograms use *fixed* bucket boundaries chosen at declaration time
(:data:`LATENCY_BUCKETS_S` and :data:`BATCH_SIZE_BUCKETS` cover the
serve path); fixed buckets keep aggregation O(1) per observation and
make textfiles from different runs directly comparable.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_S",
    "BATCH_SIZE_BUCKETS",
    "ENERGY_BUCKETS_PJ",
]

# Serve-path latencies live between microseconds (a cached hit) and
# seconds (an overloaded queue); log-ish spacing covers both ends.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
    1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0,
)

BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

ENERGY_BUCKETS_PJ: Tuple[float, ...] = (
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(
        sorted((k, v if type(v) is str else str(v)) for k, v in labels.items())
    )


def _render_labels(key: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    """Prometheus-friendly number formatting (ints without the .0)."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _BoundCounter:
    """One counter series with its label key precomputed.

    The serve path increments the same few series hundreds of times per
    run; binding once turns each increment into a dict update instead
    of a sort-and-stringify of the label set.
    """

    __slots__ = ("_name", "_values", "_key")

    def __init__(self, name: str, values: Dict[_LabelKey, float], key: _LabelKey):
        self._name = name
        self._values = values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self._name!r} cannot decrease ({amount})")
        self._values[self._key] = self._values.get(self._key, 0.0) + amount


class Counter:
    """A monotonically increasing sum, one value per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help_text = help_text
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def bind(self, **labels: object) -> _BoundCounter:
        """An O(1)-increment handle on one series (hot-path use)."""
        return _BoundCounter(self.name, self._values, _label_key(labels))

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set (handy in tests and summaries)."""
        return sum(self._values.values())

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} counter",
        ]
        for key in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_number(self._values[key])}"
            )
        return lines


class Gauge:
    """A point-in-time value that can move both ways (queue depth, knobs)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help_text = help_text
        self._values: Dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(labels)] = float(value)

    def add(self, delta: float, **labels: object) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + delta

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} gauge",
        ]
        for key in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_number(self._values[key])}"
            )
        return lines


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "total")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets  # per-bucket (non-cumulative)
        self.count = 0
        self.total = 0.0


class _BoundHistogram:
    """One histogram series with its label key precomputed.

    The backing series is created lazily on the first observation, so
    binding a series that never observes anything (an idle stage) leaves
    no empty series in the rendered exposition.
    """

    __slots__ = ("_histogram", "_key", "_series")

    def __init__(self, histogram: "Histogram", key: _LabelKey):
        self._histogram = histogram
        self._key = key
        self._series = histogram._series.get(key)

    def observe(self, value: float) -> None:
        series = self._series
        if series is None:
            series = self._series = self._histogram._series.setdefault(
                self._key, _HistogramSeries(len(self._histogram.buckets) + 1)
            )
        series.bucket_counts[bisect.bisect_left(self._histogram.buckets, value)] += 1
        series.count += 1
        series.total += value


class Histogram:
    """Fixed-boundary histogram; renders cumulative Prometheus buckets."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str, buckets: Sequence[float]):
        if not buckets:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        bounds = [float(b) for b in buckets]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(bounds)
        self._series: Dict[_LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets) + 1)
        index = bisect.bisect_left(self.buckets, value)
        series.bucket_counts[index] += 1
        series.count += 1
        series.total += value

    def bind(self, **labels: object) -> _BoundHistogram:
        """An O(1)-observe handle on one series (hot-path use)."""
        return _BoundHistogram(self, _label_key(labels))

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(_label_key(labels))
        return series.total if series else 0.0

    def mean(self, **labels: object) -> float:
        series = self._series.get(_label_key(labels))
        if not series or not series.count:
            return 0.0
        return series.total / series.count

    def quantile(self, q: float, **labels: object) -> float:
        """Bucket-resolution quantile (upper bound of the hit bucket).

        Coarse by construction -- exact tail percentiles stay in
        :class:`~repro.serving.slo.SLOReport`; this is the at-a-glance
        view over the exported textfile.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        series = self._series.get(_label_key(labels))
        if not series or not series.count:
            return 0.0
        target = q * series.count
        running = 0
        for index, bucket_count in enumerate(series.bucket_counts):
            running += bucket_count
            if running >= target:
                if index < len(self.buckets):
                    return self.buckets[index]
                return math.inf
        return math.inf

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} histogram",
        ]
        for key in sorted(self._series):
            series = self._series[key]
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, series.bucket_counts):
                cumulative += bucket_count
                le = _render_labels(key, [("le", _format_number(bound))])
                lines.append(f"{self.name}_bucket{le} {cumulative}")
            le = _render_labels(key, [("le", "+Inf")])
            lines.append(f"{self.name}_bucket{le} {series.count}")
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_format_number(series.total)}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {series.count}")
        return lines


class MetricsRegistry:
    """Declares and holds the run's metric families, in a stable order.

    Families are created idempotently: ``registry.counter("x", ...)``
    returns the existing family when ``"x"`` is already declared (and
    raises if it was declared as a different kind), so several sessions
    in one experiment can share a registry without coordination.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: Dict[str, object] = {}

    def _declare(self, name: str, factory, kind: str):
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} already declared as {existing.kind}, "
                    f"not {kind}"
                )
            return existing
        family = factory()
        self._families[name] = family
        return family

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._declare(name, lambda: Counter(name, help_text), "counter")

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._declare(name, lambda: Gauge(name, help_text), "gauge")

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ) -> Histogram:
        return self._declare(
            name, lambda: Histogram(name, help_text, buckets), "histogram"
        )

    def get(self, name: str):
        """The declared family, or None."""
        return self._families.get(name)

    def families(self) -> Iterable[object]:
        for name in sorted(self._families):
            yield self._families[name]

    def record_ledger(
        self, ledger, *, process: str, prefix: str = "repro_energy"
    ) -> None:
        """Fold a session :class:`Ledger`'s per-category totals in.

        Emits ``{prefix}_category_pj{process=...,category=...}`` counters
        and a ``{prefix}_total_pj`` counter -- the joined energy
        attribution the ISSUE asks for, taken from the same ledger the
        experiments already report, so the textfile can never disagree
        with the console numbers.
        """
        if not self.enabled:
            return
        per_category = self.counter(
            f"{prefix}_category_pj",
            "Energy charged per ledger category, picojoules.",
        )
        total = self.counter(
            f"{prefix}_total_pj", "Total energy charged to the ledger, picojoules."
        )
        # Sum energy floats directly rather than composing Cost objects
        # via Ledger.by_category(): same entry order, same floats, but a
        # long serving ledger costs one addition per entry, not one
        # Cost construction per entry.
        totals: Dict[str, float] = {}
        for category, cost in ledger:
            totals[category] = totals.get(category, 0.0) + cost.energy_pj
        for category in sorted(totals):
            per_category.inc(totals[category], process=process, category=category)
            total.inc(totals[category], process=process)

    def record_price_ledger(
        self, price_ledger, *, process: str, prefix: str = "repro_dollars"
    ) -> None:
        """Fold a session :class:`~repro.serving.pricing.PriceLedger` in.

        The dollar twin of :meth:`record_ledger`: emits
        ``{prefix}_category{process=...,category=...}`` and a
        ``{prefix}_total`` counter from the same rows the session's
        price ledger reports, so the exported dollars can never
        disagree with the console numbers.
        """
        if not self.enabled:
            return
        per_category = self.counter(
            f"{prefix}_category",
            "Dollars charged per price-ledger category, USD.",
        )
        total = self.counter(
            f"{prefix}_total", "Total dollars charged to the price ledger, USD."
        )
        totals: Dict[str, float] = {}
        for category, dollars in price_ledger:
            totals[category] = totals.get(category, 0.0) + dollars
        for category in sorted(totals):
            per_category.inc(totals[category], process=process, category=category)
            total.inc(totals[category], process=process)

    def render_prometheus(self) -> str:
        """The full registry as Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""
