"""Exporters: Chrome trace-event JSON for spans, CSV/JSONL for series.

The span export follows the Chrome trace-event format (the ``chrome://
tracing`` / Perfetto "JSON object" flavour): one complete event (``"ph":
"X"``) per span with microsecond ``ts``/``dur``, instant events (``"ph":
"i"``), and metadata events naming each machine as a *process* and each
DSE kernel as a *thread* — drop the file onto https://ui.perfetto.dev and
one remote read renders as a nested flame across machines.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, List, Optional, TextIO, Union

from .metrics import MetricsSampler
from .spans import NET_TID, Span, SpanRecorder

__all__ = [
    "chrome_trace_events",
    "chrome_trace_json",
    "write_chrome_trace",
    "metrics_rows",
    "write_metrics_csv",
    "write_metrics_jsonl",
]

_SECONDS_TO_US = 1e6


def _span_event(span: Span) -> Dict[str, Any]:
    args: Dict[str, Any] = {
        "trace_id": span.ctx.trace_id,
        "span_id": span.ctx.span_id,
    }
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    if span.args:
        args.update(span.args)
    event: Dict[str, Any] = {
        "name": span.name,
        "cat": span.cat,
        "ph": span.phase,
        "ts": span.start * _SECONDS_TO_US,
        "pid": span.pid,
        "tid": span.tid,
        "args": args,
    }
    if span.phase == "X":
        # An unterminated span (operation failed mid-flight) exports with
        # zero duration rather than being lost.
        event["dur"] = span.duration * _SECONDS_TO_US
    else:
        event["s"] = "t"  # thread-scoped instant
    return event


def _metadata_events(cluster: Any) -> List[Dict[str, Any]]:
    """process_name/thread_name events from a built cluster."""
    events: List[Dict[str, Any]] = []
    for machine in getattr(cluster, "machines", []):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": machine.station_id,
                "tid": 0,
                "args": {"name": f"{machine.hostname} (station {machine.station_id})"},
            }
        )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": machine.station_id,
                "tid": NET_TID,
                "args": {"name": "net (NIC + bus)"},
            }
        )
    for kernel in getattr(cluster, "kernels", []):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": kernel.machine.station_id,
                "tid": kernel.unix_process.pid,
                "args": {"name": f"kernel k{kernel.kernel_id}"},
            }
        )
    # traffic-layer VirtualCluster: one lane per PS server (pid = server id)
    for server in getattr(cluster, "servers", []):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": server.server_id,
                "tid": 0,
                "args": {
                    "name": f"{getattr(cluster, 'service_name', 'svc')} "
                            f"server {server.server_id}"
                },
            }
        )
    return events


def chrome_trace_events(
    recorder: SpanRecorder, cluster: Any = None
) -> List[Dict[str, Any]]:
    """All recorded spans as Chrome trace-event dicts (metadata first)."""
    events = _metadata_events(cluster) if cluster is not None else []
    events.extend(_span_event(span) for span in recorder.spans)
    return events


def _chrome_trace_doc(recorder: SpanRecorder, cluster: Any) -> Dict[str, Any]:
    return {
        "traceEvents": chrome_trace_events(recorder, cluster),
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "spans": len(recorder.spans),
            "dropped": recorder.dropped,
        },
    }


def chrome_trace_json(recorder: SpanRecorder, cluster: Any = None) -> str:
    """The full Chrome trace file content as a JSON string."""
    return json.dumps(_chrome_trace_doc(recorder, cluster))


def write_chrome_trace(
    recorder: SpanRecorder, path: str, cluster: Any = None
) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    doc = _chrome_trace_doc(recorder, cluster)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


# -- series export -----------------------------------------------------------


def metrics_rows(sampler: MetricsSampler) -> List[Dict[str, float]]:
    """Flatten every series into ``{series, time, value}`` rows."""
    rows: List[Dict[str, float]] = []
    for name in sorted(sampler.series):
        series = sampler.series[name]
        for t, v in series.items():
            rows.append({"series": name, "time": t, "value": v})
    return rows


def write_metrics_csv(sampler: MetricsSampler, path_or_file: Union[str, TextIO]) -> int:
    """Write all series as long-format CSV; returns the row count."""
    rows = metrics_rows(sampler)

    def _write(fh: TextIO) -> None:
        writer = csv.writer(fh)
        writer.writerow(["series", "time", "value"])
        for row in rows:
            writer.writerow([row["series"], repr(row["time"]), repr(row["value"])])

    if isinstance(path_or_file, str):
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_file)
    return len(rows)


def write_metrics_jsonl(sampler: MetricsSampler, path_or_file: Union[str, TextIO]) -> int:
    """Write all series as JSON-lines; returns the row count."""
    rows = metrics_rows(sampler)

    def _write(fh: TextIO) -> None:
        for row in rows:
            fh.write(json.dumps(row) + "\n")

    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            _write(fh)
    else:
        _write(path_or_file)
    return len(rows)
