"""Unified observability: causal span tracing + metrics time-series.

The layer the ROADMAP's perf work stands on: when a cluster is built with
``ClusterConfig(obs_trace=True)``, every DSE API call mints a
:class:`TraceContext` that rides inside message headers, transport
segments, and Ethernet frames, so one remote global-memory read is a
single connected span tree across machines — exportable as Chrome
trace-event JSON (``chrome://tracing`` / Perfetto).  With
``obs_metrics_interval > 0`` a simulated-clock sampler additionally
snapshots bus utilisation, collision counts, NIC queue depth, run-queue
length and DSM locality into ring-buffered series (CSV/JSONL export).

All hooks are guarded by a single ``enabled`` flag and allocate nothing
when disabled; span tracing schedules no events, so traced and untraced
runs are bit-identical on virtual clocks.
"""

from .context import TraceContext
from .export import (
    chrome_trace_events,
    chrome_trace_json,
    metrics_rows,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_jsonl,
)
from .metrics import MetricsSampler, Series
from .spans import MSG_CAT, NET_TID, NULL_RECORDER, Span, SpanRecorder

__all__ = [
    "TraceContext",
    "Span",
    "SpanRecorder",
    "NULL_RECORDER",
    "NET_TID",
    "MSG_CAT",
    "MetricsSampler",
    "Series",
    "chrome_trace_events",
    "chrome_trace_json",
    "metrics_rows",
    "write_chrome_trace",
    "write_metrics_csv",
    "write_metrics_jsonl",
]
