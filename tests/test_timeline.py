"""Tests for tracing and the timeline renderer."""

from repro.dse import ClusterConfig, run_parallel
from repro.experiments import event_log, message_census, render_timeline
from repro.hardware import get_platform
from repro.sim import Tracer


def traced_run(p=4, trace=True):
    def worker(api):
        yield from api.gm_write_scalar(api.rank, 1.0)
        yield from api.barrier("b")
        yield from api.gm_read(0, api.size)
        yield from api.barrier("c")
        return True

    config = ClusterConfig(
        platform=get_platform("linux"), n_processors=p, trace=trace
    )
    return run_parallel(config, worker)


def test_trace_disabled_by_default():
    res = traced_run(trace=False)
    assert res.cluster.tracer.records == []


def test_trace_records_sends_and_receives():
    res = traced_run()
    tracer = res.cluster.tracer
    sends = tracer.filter(kind="send")
    recvs = tracer.filter(kind="recv")
    assert sends and recvs
    # Every wire-sent *request* is received by a service loop (responses
    # are consumed by their waiting requester and not re-traced; shutdown
    # is excluded because the master's own shutdown arrives via loopback).
    from collections import Counter

    sent = Counter(
        r.detail[0]
        for r in sends
        if (r.detail[0].endswith("_req") or r.detail[0] == "proc_done")
        and r.detail[0] != "shutdown_req"
    )
    got = Counter(r.detail[0] for r in recvs if r.detail[0] != "shutdown_req")
    assert sent == got
    # Sources are kernel labels.
    assert all(r.source.startswith("k") for r in sends)


def test_render_timeline():
    res = traced_run()
    text = render_timeline(res.cluster.tracer, width=40)
    lines = text.splitlines()
    assert "timeline" in lines[0]
    assert len(lines) == 1 + 4  # one lane per kernel
    assert all("|" in line for line in lines[1:])


def test_render_timeline_empty_trace_friendly():
    text = render_timeline(Tracer(enabled=True))
    assert text == "no events captured (was trace=True set?)"
    assert event_log(Tracer(enabled=True)) == text
    assert message_census(Tracer(enabled=True)) == text


def test_tracer_counts_drops_and_header_reports_them():
    tracer = Tracer(enabled=True, limit=3)
    for i in range(10):
        tracer.emit(i * 0.001, "k0", "send", ("gm_read_req", 1, 64))
    assert len(tracer.records) == 3
    assert tracer.dropped == 7
    header = render_timeline(tracer).splitlines()[0]
    assert "7 dropped past limit" in header


def test_message_census():
    res = traced_run()
    text = message_census(res.cluster.tracer)
    assert "barrier_req" in text
    assert "gm_read_req" in text


def test_event_log_limit():
    res = traced_run()
    text = event_log(res.cluster.tracer, limit=5)
    lines = text.splitlines()
    assert len(lines) == 6  # 5 records + "... N more"
    assert "more" in lines[-1]


def test_hotspot_visible_in_trace():
    """Kernel 0 hosts the barrier service: it must receive the most."""
    res = traced_run(p=6)
    recvs = res.cluster.tracer.filter(kind="recv")
    by_kernel = {}
    for r in recvs:
        by_kernel[r.source] = by_kernel.get(r.source, 0) + 1
    assert max(by_kernel, key=by_kernel.get) == "k0"
