"""Span-based causal tracing.

A :class:`Span` is one timed operation on one (machine, kernel/driver)
lane; spans form a tree via ``parent_id`` within a trace, so a single
remote global-memory read is one connected tree from the DSE API call down
to the Ethernet frames and back up through SIGIO delivery.

Design constraints (the tentpole's hard requirements):

* **zero-cost when disabled** — every instrumentation site guards on the
  recorder's single ``enabled`` flag before allocating anything;
* **zero perturbation** — recording only *reads* the simulated clock; it
  never schedules events, so traced and untraced runs are bit-identical on
  virtual time.

``pid``/``tid`` follow the Chrome trace-event convention: ``pid`` is the
machine (station id), ``tid`` is the UNIX process id of the DSE kernel, or
:data:`NET_TID` for link-layer activity that belongs to the machine rather
than any process.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, List, Optional

from .context import TraceContext

__all__ = ["Span", "SpanRecorder", "NULL_RECORDER", "NET_TID", "MSG_CAT", "UNTRACED"]

#: tid used for link-layer spans (NIC driver, bus) — "the wire", not a process
NET_TID = -1

#: category of the per-message records (see :meth:`SpanRecorder.mark`)
MSG_CAT = "msg"

#: context of records outside any trace; takes no trace or span ids, so
#: marking leaves every traced span's identity unchanged
UNTRACED = TraceContext(0, 0)


class Span:
    """One recorded operation (or instant, when ``end`` equals ``start``)."""

    __slots__ = ("name", "cat", "pid", "tid", "start", "end", "ctx", "parent_id", "args", "phase")

    def __init__(
        self,
        name: str,
        cat: str,
        pid: int,
        tid: int,
        start: float,
        ctx: TraceContext,
        parent_id: Optional[int],
        phase: str = "X",
    ):
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.start = start
        self.end: Optional[float] = None
        self.ctx = ctx
        self.parent_id = parent_id
        self.args: Optional[Dict[str, Any]] = None
        self.phase = phase  # "X" complete span, "i" instant

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span {self.name!r} t{self.ctx.trace_id}/s{self.ctx.span_id}"
            f"<-{self.parent_id} [{self.start:.6f}, {self.end}]>"
        )


class SpanRecorder:
    """Collects spans for one cluster; shared by every layer via ``sim.obs``."""

    def __init__(self, enabled: bool = False, limit: Optional[int] = None):
        self.enabled = enabled
        self.limit = limit
        self.spans: List[Span] = []
        #: spans discarded because ``limit`` was reached
        self.dropped = 0
        self._trace_ids = count(1)
        self._span_ids = count(1)

    # -- recording -----------------------------------------------------------
    def begin(
        self,
        now: float,
        name: str,
        cat: str,
        pid: int,
        tid: int,
        parent: Optional[TraceContext] = None,
    ) -> Span:
        """Open a span; ``parent=None`` starts a new trace (a root span)."""
        if parent is None:
            ctx = TraceContext(next(self._trace_ids), next(self._span_ids))
            parent_id = None
        else:
            ctx = TraceContext(parent.trace_id, next(self._span_ids))
            parent_id = parent.span_id
        span = Span(name, cat, pid, tid, now, ctx, parent_id)
        self._keep(span)
        return span

    def end(self, span: Span, now: float) -> None:
        span.end = now

    def instant(
        self,
        now: float,
        name: str,
        cat: str,
        pid: int,
        tid: int,
        parent: Optional[TraceContext] = None,
    ) -> Span:
        """Record a point event (collision, SIGIO, retransmission)."""
        span = self.begin(now, name, cat, pid, tid, parent)
        span.end = now
        span.phase = "i"
        return span

    def mark(self, now: float, name: str, pid: int, tid: int, args: Dict[str, Any]) -> None:
        """Record an untraced ``MSG_CAT`` instant (a DSE send or receipt)."""
        span = Span(name, MSG_CAT, pid, tid, now, UNTRACED, None, "i")
        span.end = now
        span.args = args
        self._keep(span)

    def _keep(self, span: Span) -> None:
        if self.limit is not None and len(self.spans) >= self.limit:
            self.dropped += 1
            return
        self.spans.append(span)

    # -- queries -------------------------------------------------------------
    def trace(self, trace_id: int) -> List[Span]:
        """All recorded spans of one trace, in recording order."""
        return [s for s in self.spans if s.ctx.trace_id == trace_id]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Span name -> ``{"count", "total"}`` seconds in first-seen order,
        leaving out the per-message records."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span.cat != MSG_CAT:
                agg = out.setdefault(span.name, {"count": 0, "total": 0.0})
                agg["count"] += 1
                agg["total"] += span.duration
        return out

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0


#: shared disabled recorder for components built outside a cluster
NULL_RECORDER = SpanRecorder(enabled=False)
