"""Deterministic observability plane for the serving simulator.

Everything the serving stack knows about itself flows through here:

* :mod:`repro.obs.clock` -- :class:`SimClock`, the shared monotone
  simulation clock (bit-identical to the ``now += gap`` float loops it
  replaced);
* :mod:`repro.obs.tracer` -- :class:`Tracer`, span-based per-request
  tracing over sim time with batch sampling and control-plane instants;
* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms, joined against the energy
  :class:`~repro.energy.accounting.Ledger`;
* :mod:`repro.obs.exporters` -- JSONL traces, Perfetto-loadable Chrome
  trace-event JSON, Prometheus text exposition;
* :mod:`repro.obs.telemetry` -- :class:`Telemetry`, the bundle the
  session threads through its scheduler and plants on every node of its
  fleet.

Design rules the rest of the repo relies on: obs imports nothing from
``repro.serving``/``repro.core`` (the dependency arrow points the other
way); tracing is observation only -- no ledger charges, no randomness --
so a traced run's recommendations and energy totals are bit-identical
to an untraced one (pinned by ``tests/serving/test_serving_telemetry.py``);
and all timestamps are simulation seconds, so exported artefacts are
reproducible run outputs, not host profiles.
"""

from repro.obs.clock import SimClock
from repro.obs.exporters import (
    chrome_trace_events,
    write_chrome_trace,
    write_prometheus,
    write_trace,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    ENERGY_BUCKETS_PJ,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import Instant, Span, Tracer, span_children

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "ENERGY_BUCKETS_PJ",
    "LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "SimClock",
    "Span",
    "Telemetry",
    "Tracer",
    "chrome_trace_events",
    "span_children",
    "write_chrome_trace",
    "write_prometheus",
    "write_trace",
    "write_trace_jsonl",
]
