"""ASCII timelines and censuses from the span recorder.

When a cluster is built with ``ClusterConfig(obs_trace=True)``, every
kernel's message exchange marks each send and received request in
``cluster.obs`` (``cat="msg"`` records).  This module renders those as a
per-kernel activity heat-map over simulated time — the quickest way to
*see* a hotspot (one dark lane = one overloaded home node) or a convoy
(vertical bands = barrier waves).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from ..obs.spans import MSG_CAT, Span, SpanRecorder
from ..util.tables import Table

__all__ = ["render_timeline", "message_census", "event_log", "span_census"]

_SHADES = " .:-=+*#%@"

_EMPTY_TRACE = "no events captured (was obs_trace=True set?)"


def _messages(recorder: SpanRecorder, kind: Optional[str] = None) -> List[Span]:
    """The recorder's per-message records; ``kind`` is ``"send"``/``"recv"``."""
    prefix = "" if kind is None else kind + ":"
    return [
        s for s in recorder.spans
        if s.cat == MSG_CAT and s.name.startswith(prefix)
    ]


def render_timeline(
    recorder: SpanRecorder,
    width: int = 64,
    kind: Optional[str] = None,
) -> str:
    """Per-kernel heat-map: one lane per kernel, darkness = message rate."""
    records = _messages(recorder, kind)
    if not records:
        return _EMPTY_TRACE
    t0 = records[0].start
    t1 = max(r.start for r in records)
    span = max(t1 - t0, 1e-12)
    lanes: Dict[str, List[int]] = defaultdict(lambda: [0] * width)
    for record in records:
        bucket = min(int((record.start - t0) / span * width), width - 1)
        lanes[f"k{record.args['kernel']}"][bucket] += 1
    peak = max(max(lane) for lane in lanes.values())
    dropped = f", {recorder.dropped} dropped past limit" if recorder.dropped else ""
    lines = [
        f"timeline {t0:.4g}s .. {t1:.4g}s "
        f"({len(records)} events, peak {peak}/cell{dropped})"
    ]
    for source in sorted(lanes):
        cells = "".join(
            _SHADES[min(int(c / peak * (len(_SHADES) - 1) + (0 if c == 0 else 1)),
                        len(_SHADES) - 1)]
            for c in lanes[source]
        )
        lines.append(f"{source:>6} |{cells}|")
    return "\n".join(lines)


def message_census(recorder: SpanRecorder) -> str:
    """Message counts and bytes by type (sends only, to avoid double count)."""
    sends = _messages(recorder, "send")
    if not sends:
        return _EMPTY_TRACE
    counts: Dict[str, int] = defaultdict(int)
    nbytes: Dict[str, int] = defaultdict(int)
    for record in sends:
        msg_type = record.name[len("send:"):]
        counts[msg_type] += 1
        nbytes[msg_type] += record.args["bytes"]
    table = Table(["message type", "count", "bytes"], title="message census")
    for msg_type in sorted(counts, key=lambda t: -counts[t]):
        table.add(msg_type, counts[msg_type], nbytes[msg_type])
    return table.render()


def event_log(recorder: SpanRecorder, limit: int = 50) -> str:
    """The first ``limit`` per-message records, one line each."""
    records = _messages(recorder)
    if not records:
        return _EMPTY_TRACE
    lines = []
    for r in records[:limit]:
        source = f"k{r.args['kernel']}"
        lines.append(f"{r.start:12.6f}s {source:>6} {r.name} {r.args}")
    if len(records) > limit:
        lines.append(f"... {len(records) - limit} more")
    return "\n".join(lines)


def _request_span_block(recorder) -> str:
    """Latency aggregation of request-level spans (``cat == "request"``).

    The traffic layer mints sampled per-request spans; unlike compute
    spans, their interesting statistic is the latency *distribution*,
    not the total — so they get their own table with deterministic
    p50/p99/p999 from the same geometric histogram the SLO tracker uses
    (empty when the trace holds no request spans, e.g. compute-only
    workloads)."""
    from ..traffic.slo import LatencyHistogram

    hists: Dict[str, LatencyHistogram] = {}
    for span in recorder.spans:
        if span.cat != "request" or span.end is None:
            continue
        hist = hists.get(span.name)
        if hist is None:
            hist = hists[span.name] = LatencyHistogram()
        hist.observe(span.duration)
    if not hists:
        return ""
    table = Table(
        ["request span", "count", "mean (s)", "p50", "p99", "p999"],
        title="request spans",
    )
    for name in sorted(hists):
        s = hists[name].summary()
        table.add(
            name, s["count"], f"{s['mean']:.6g}",
            f"{s['p50']:.6g}", f"{s['p99']:.6g}", f"{s['p999']:.6g}",
        )
    return table.render()


def span_census(recorder, sim=None, ckpt=None) -> str:
    """Per-name span counts and total durations from a
    :class:`repro.obs.SpanRecorder` (the cross-layer causal trace).

    Pass the run's :class:`~repro.sim.core.Simulator` to append the engine
    footer (events processed / lazily cancelled) under the table, and the
    cluster's ``ckpt_stats`` :class:`~repro.sim.monitor.StatSet` to append
    checkpoint overhead (snapshot count / bytes / write latency) — so
    recording cost shows up in the same census as everything else.
    """
    totals = recorder.totals()
    if not totals:
        return "no spans captured (was obs_trace=True set?)"
    table = Table(["span", "count", "total time (s)"], title="span census")
    for name, agg in sorted(totals.items(), key=lambda kv: -kv[1]["total"]):
        table.add(name, agg["count"], f"{agg['total']:.6g}")
    out = table.render()
    request_block = _request_span_block(recorder)
    if request_block:
        out += "\n" + request_block
    if sim is not None:
        out += (
            f"\nengine: {sim.events_processed} events processed, "
            f"{sim.events_cancelled} lazily cancelled"
        )
    if ckpt is not None:
        snaps = ckpt.counter("snapshots").value
        if snaps:
            size = ckpt.tally("snapshot_bytes")
            latency = ckpt.tally("write_latency")
            out += (
                f"\nckpt: {snaps} snapshots, "
                f"{size.total:.0f} bytes (mean {size.mean:.0f}), "
                f"write latency mean {latency.mean:.6g}s"
            )
    return out
