"""Tests for the per-message records and the timeline renderer."""

import pathlib
import runpy
from collections import Counter

from repro.dse import ClusterConfig, run_parallel
from repro.experiments import event_log, message_census, render_timeline
from repro.hardware import get_platform
from repro.obs import MSG_CAT, SpanRecorder

EMPTY = "no events captured (was obs_trace=True set?)"


def traced_run(p=4, obs_trace=True, **kw):
    def worker(api):
        yield from api.gm_write_scalar(api.rank, 1.0)
        yield from api.barrier("b")
        yield from api.gm_read(0, api.size)
        yield from api.barrier("c")
        return True

    config = ClusterConfig(
        platform=get_platform("linux"), n_processors=p, obs_trace=obs_trace, **kw
    )
    return run_parallel(config, worker)


def messages(res, kind):
    return [
        s for s in res.cluster.obs.spans
        if s.cat == MSG_CAT and s.name.startswith(kind + ":")
    ]


def test_trace_disabled_by_default():
    res = traced_run(obs_trace=False)
    assert res.cluster.obs.spans == []
    assert render_timeline(res.cluster.obs) == EMPTY


def test_trace_records_sends_and_receives():
    res = traced_run()
    sends = messages(res, "send")
    recvs = messages(res, "recv")
    assert sends and recvs
    # Every wire-sent *request* is received by a service loop (responses
    # are consumed by their waiting requester and not re-recorded; shutdown
    # is excluded because the master's own shutdown arrives via loopback).
    def msg_type(record):
        return record.name.split(":", 1)[1]

    sent = Counter(
        msg_type(r)
        for r in sends
        if (msg_type(r).endswith("_req") or msg_type(r) == "proc_done")
        and msg_type(r) != "shutdown_req"
    )
    got = Counter(msg_type(r) for r in recvs if msg_type(r) != "shutdown_req")
    assert sent == got
    # Records are untraced instants on their kernel's lane.
    assert all(r.phase == "i" and r.ctx.trace_id == 0 and r.parent_id is None
               for r in sends + recvs)
    assert {r.args["kernel"] for r in sends} <= set(range(4))


def test_render_timeline():
    res = traced_run()
    text = render_timeline(res.cluster.obs, width=40)
    lines = text.splitlines()
    assert "timeline" in lines[0]
    assert len(lines) == 1 + 4  # one lane per kernel
    assert all("|" in line for line in lines[1:])


def test_render_timeline_empty_trace_friendly():
    recorder = SpanRecorder(enabled=True)
    text = render_timeline(recorder)
    assert text == EMPTY
    assert event_log(recorder) == text
    assert message_census(recorder) == text


def test_tracer_counts_drops_and_header_reports_them():
    res = traced_run(obs_span_limit=20)
    obs = res.cluster.obs
    assert len(obs.spans) == 20
    assert obs.dropped > 0
    assert any(s.cat == MSG_CAT for s in obs.spans)
    header = render_timeline(obs).splitlines()[0]
    assert f"{obs.dropped} dropped past limit" in header


def test_message_census():
    res = traced_run()
    text = message_census(res.cluster.obs)
    assert "barrier_req" in text
    assert "gm_read_req" in text


def test_event_log_limit():
    res = traced_run()
    text = event_log(res.cluster.obs, limit=5)
    lines = text.splitlines()
    assert len(lines) == 6  # 5 records + "... N more"
    assert "more" in lines[-1]


def test_hotspot_visible_in_trace():
    """Kernel 0 hosts the barrier service: it must receive the most."""
    res = traced_run(p=6)
    by_kernel = Counter(r.args["kernel"] for r in messages(res, "recv"))
    assert max(by_kernel, key=by_kernel.get) == 0


def test_task_farming_example_timeline_is_not_empty(capsys):
    # Farm traffic carries no trace context, so no span covers it: the
    # timeline must come from the per-message records.
    path = pathlib.Path(__file__).parent.parent / "examples" / "task_farming.py"
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert EMPTY not in out
    assert "timeline" in out and "message census" in out
