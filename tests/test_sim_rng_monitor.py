"""Tests for deterministic RNG streams and monitoring primitives."""

import pytest

from repro.sim import RandomStreams, StatSet, Tally, TimeWeighted, Tracer


def test_streams_reproducible_across_instances():
    a = RandomStreams(42).stream("backoff:3")
    b = RandomStreams(42).stream("backoff:3")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_streams_differ_by_name():
    rs = RandomStreams(42)
    xs = [rs.stream("a").random() for _ in range(5)]
    ys = [rs.stream("b").random() for _ in range(5)]
    assert xs != ys


def test_streams_differ_by_seed():
    xs = [RandomStreams(1).stream("s").random() for _ in range(5)]
    ys = [RandomStreams(2).stream("s").random() for _ in range(5)]
    assert xs != ys


def test_stream_identity_cached():
    rs = RandomStreams(0)
    assert rs.stream("x") is rs.stream("x")


def test_spawn_gives_independent_space():
    rs = RandomStreams(7)
    child1 = rs.spawn("machine0")
    child2 = rs.spawn("machine1")
    assert child1.stream("s").random() != child2.stream("s").random()
    # spawn is itself deterministic
    again = RandomStreams(7).spawn("machine0")
    assert again.stream("s").random() == RandomStreams(7).spawn("machine0").stream("s").random()


def test_tally_statistics():
    t = Tally("t")
    for v in (1.0, 2.0, 3.0, 4.0):
        t.observe(v)
    assert t.count == 4
    assert t.mean == pytest.approx(2.5)
    assert t.min == 1.0
    assert t.max == 4.0
    assert t.variance == pytest.approx(1.25)


def test_tally_empty():
    t = Tally("t")
    assert t.mean == 0.0
    assert t.variance == 0.0


def test_time_weighted_average():
    tw = TimeWeighted("queue", start_time=0.0, level=0.0)
    tw.set(2.0, now=1.0)  # level 0 for [0,1)
    tw.set(4.0, now=3.0)  # level 2 for [1,3)
    # level 4 for [3,5)
    assert tw.average(now=5.0) == pytest.approx((0 * 1 + 2 * 2 + 4 * 2) / 5.0)


def test_time_weighted_adjust():
    tw = TimeWeighted("q")
    tw.adjust(+3, now=1.0)
    tw.adjust(-1, now=2.0)
    assert tw.level == 2


def test_time_weighted_rejects_backwards_time():
    tw = TimeWeighted("q")
    tw.set(1.0, now=5.0)
    with pytest.raises(ValueError):
        tw.set(2.0, now=4.0)


def test_time_weighted_set_with_matches_two_sets():
    pairs = [(TimeWeighted("a", start_time=0.1), TimeWeighted("b", start_time=0.1))
             for _ in range(2)]
    (a1, b1), (a2, b2) = pairs
    for level, now in [(3, 0.30000000000000004), (1, 0.7), (0, 1.1), (2, 1.1), (5, 2.9)]:
        a1.set(level, now)
        b1.set(1.0 if level else 0.0, now)
        a2.set_with(level, b2, 1.0 if level else 0.0, now)
    for x, y in ((a1, a2), (b1, b2)):
        assert x.level == y.level
        assert x.average(3.3).hex() == y.average(3.3).hex()
    with pytest.raises(ValueError, match="backwards"):
        a2.set_with(1, b2, 1.0, 2.0)
    b2.set(0.0, 4.0)  # either side being ahead is refused
    with pytest.raises(ValueError, match="backwards"):
        a2.set_with(1, b2, 1.0, 3.5)


def test_statset_lazy_counters():
    s = StatSet("net")
    s.counter("frames").increment()
    s.counter("frames").increment(2)
    s.tally("wait").observe(1.5)
    snap = s.snapshot()
    assert snap["frames"] == 3
    assert snap["wait.count"] == 1
    assert snap["wait.mean"] == pytest.approx(1.5)


def test_tracer_disabled_by_default():
    tr = Tracer()
    tr.emit(0.0, "x", "kind")
    assert tr.records == []


def test_tracer_records_and_filters():
    tr = Tracer(enabled=True)
    tr.emit(1.0, "bus", "collision")
    tr.emit(2.0, "bus", "send")
    tr.emit(3.0, "nic", "send")
    assert len(tr.filter(kind="send")) == 2
    assert len(tr.filter(source="bus")) == 2
    assert len(tr.filter(kind="send", source="nic")) == 1


def test_tracer_limit():
    tr = Tracer(enabled=True, limit=2)
    for i in range(5):
        tr.emit(float(i), "s", "k")
    assert len(tr.records) == 2
