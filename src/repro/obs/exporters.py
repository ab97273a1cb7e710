"""Serialize traces and metrics to on-disk formats tools can open.

Three formats, one tracer:

* :func:`write_trace_jsonl` -- one JSON object per line (spans then
  instants, each via ``as_dict``); greppable, diffable, and the input
  format for the future workload analyzer.
* :func:`write_chrome_trace` -- Chrome trace-event JSON (``ph: "X"``
  complete events, microsecond timestamps).  Load it in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``: each serving
  session renders as a process, each span track (main / shard0..N /
  control) as a thread lane.
* :func:`write_prometheus` -- Prometheus text exposition of a
  :class:`~repro.obs.metrics.MetricsRegistry`, suitable for the
  textfile collector or plain reading.

:func:`write_trace` dispatches on file extension: ``.jsonl`` gets the
line-oriented format, anything else (the conventional ``.json``) the
Chrome format.  All writers are deterministic -- identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = [
    "write_trace",
    "write_trace_jsonl",
    "write_chrome_trace",
    "chrome_trace_events",
    "write_prometheus",
]

# Span categories -> trace-viewer colour names, purely cosmetic.
_CHROME_COLOURS = {
    "admission": "thread_state_runnable",
    "queue": "thread_state_iowait",
    "cache": "thread_state_running",
    "serve": "rail_response",
    "kernel": "cq_build_running",
    "merge": "rail_animation",
    "control": "vsync_highlight_color",
}


def write_trace(path: str, tracer: Tracer) -> None:
    """Write ``tracer`` to ``path``, format chosen by extension.

    ``*.jsonl`` -> one-object-per-line JSONL; everything else -> Chrome
    trace-event JSON (open in Perfetto / ``chrome://tracing``).
    """
    if str(path).endswith(".jsonl"):
        write_trace_jsonl(path, tracer)
    else:
        write_chrome_trace(path, tracer)


def write_trace_jsonl(path: str, tracer: Tracer) -> None:
    """One JSON object per line: every span, then every instant."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.as_dict(), sort_keys=True))
            handle.write("\n")
        for instant in tracer.instants:
            handle.write(json.dumps(instant.as_dict(), sort_keys=True))
            handle.write("\n")


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, object]]:
    """The tracer's content as a Chrome trace-event list.

    Processes (serving sessions) and threads (span tracks) are numbered
    in first-appearance order and named with ``"M"`` metadata events so
    the viewer shows session labels instead of bare pids.
    """
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    events: List[Dict[str, object]] = []

    def _pid(process: str) -> int:
        if process not in pids:
            pids[process] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[process],
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        return pids[process]

    def _tid(process: str, track: str) -> int:
        key = (process, track)
        if key not in tids:
            tids[key] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _pid(process),
                    "tid": tids[key],
                    "args": {"name": track},
                }
            )
        return tids[key]

    for span in tracer.spans:
        event: Dict[str, object] = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "pid": _pid(span.process),
            "tid": _tid(span.process, span.track),
            "ts": span.start_s * 1e6,
            "dur": span.duration_s * 1e6,
            "args": dict(span.attrs),
        }
        colour = _CHROME_COLOURS.get(span.category)
        if colour is not None:
            event["cname"] = colour
        events.append(event)

    for instant in tracer.instants:
        events.append(
            {
                "name": instant.name,
                "cat": instant.category,
                "ph": "i",
                "s": "p",  # process-scoped instant marker
                "pid": _pid(instant.process),
                "tid": _tid(instant.process, instant.track),
                "ts": instant.time_s * 1e6,
                "args": dict(instant.attrs),
            }
        )

    return events


def write_chrome_trace(
    path: str, tracer: Tracer, *, metadata: Optional[Dict[str, object]] = None
) -> None:
    """Write Perfetto-loadable Chrome trace-event JSON."""
    document = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulation",
            "spans": len(tracer.spans),
            "instants": len(tracer.instants),
            "sampled_batches": tracer.sampled_batches,
            "seen_batches": tracer.seen_batches,
            **(metadata or {}),
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        # ``json.dumps`` runs the C encoder; ``json.dump`` always streams
        # through the pure-Python one (~3x slower, same bytes).
        handle.write(json.dumps(document, sort_keys=True))
        handle.write("\n")


def write_prometheus(path: str, registry: MetricsRegistry) -> None:
    """Write the registry as a Prometheus text-exposition file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.render_prometheus())
