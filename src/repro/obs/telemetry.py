"""The telemetry bundle the serving stack threads through itself.

:class:`Telemetry` pairs one :class:`~repro.obs.tracer.Tracer` with one
:class:`~repro.obs.metrics.MetricsRegistry` so call sites pass a single
handle.  Sessions receive it as ``ServingSession(..., telemetry=...)``;
engines receive it by *attachment*: the session plants the bundle as
``_obs`` on every router, replica group and engine of its fleet, and
again after every scale event, because engines are built by factories
and swapped live -- attachment after construction is the only hook that
survives both.  The fleet's shape is the router module's business
(:func:`repro.serving.shard.iter_engines`), not this package's.

This module imports nothing from :mod:`repro.serving` or
:mod:`repro.core` -- the dependency arrow points serving -> obs only,
which is what lets the obs package stay importable everywhere
(experiments, benchmarks, future analyzers) without cycles.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.exporters import write_prometheus, write_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """One run's tracer + metrics registry behind a single handle.

    ``enabled=False`` (or :meth:`Telemetry.disabled`) produces an inert
    bundle: every recording call short-circuits, nothing allocates per
    request, and -- by construction, since tracing neither charges
    ledgers nor draws randomness -- recommendations and energy totals
    are bit-identical either way.  ``sample_every=N`` traces every Nth
    dispatched batch while metrics still see every batch.
    """

    def __init__(self, enabled: bool = True, sample_every: int = 1):
        self.enabled = enabled
        self.tracer = Tracer(enabled=enabled, sample_every=sample_every)
        self.metrics = MetricsRegistry(enabled=enabled)

    @classmethod
    def disabled(cls) -> "Telemetry":
        """An inert bundle, for call sites that want a non-None default."""
        return cls(enabled=False)

    def export(
        self,
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
    ) -> None:
        """Write the trace and/or metrics files that were asked for.

        ``trace_out`` dispatches on extension (``.jsonl`` line format,
        otherwise Chrome trace-event JSON); ``metrics_out`` is always
        Prometheus text exposition.
        """
        if trace_out is not None:
            write_trace(trace_out, self.tracer)
        if metrics_out is not None:
            write_prometheus(metrics_out, self.metrics)

    def __repr__(self) -> str:
        return (
            f"Telemetry(enabled={self.enabled}, "
            f"spans={len(self.tracer.spans)}, "
            f"instants={len(self.tracer.instants)})"
        )
