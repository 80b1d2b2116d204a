"""Unit tests for the discrete-event simulation core."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    ConditionError,
    Event,
    Interrupt,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(3.5)
        return sim.now

    p = sim.process(proc())
    assert sim.run(p) == 3.5
    assert sim.now == 3.5


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        v = yield sim.timeout(1.0, value="payload")
        return v

    assert sim.run(sim.process(proc())) == "payload"


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        return 42

    assert sim.run(sim.process(proc())) == 42


def test_processes_interleave_in_time_order():
    sim = Simulator()
    log = []

    def proc(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(proc("b", 2.0))
    sim.process(proc("a", 1.0))
    sim.process(proc("c", 3.0))
    sim.run_all()
    assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_simultaneous_events_fifo_order():
    """Ties at the same timestamp break by scheduling order (determinism)."""
    sim = Simulator()
    log = []

    def proc(name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in "abcde":
        sim.process(proc(name))
    sim.run_all()
    assert log == list("abcde")


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        v = yield ev
        return v

    def trigger():
        yield sim.timeout(2.0)
        ev.succeed("done")

    p = sim.process(waiter())
    sim.process(trigger())
    assert sim.run(p) == "done"
    assert sim.now == 2.0


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return f"caught:{exc}"

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    p = sim.process(waiter())
    sim.process(trigger())
    assert sim.run(p) == "caught:boom"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_yield_non_event_is_error():
    sim = Simulator()

    def proc():
        yield 42

    p = sim.process(proc())
    with pytest.raises(TypeError):
        sim.run(p)


def test_waiting_on_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")

    def late_waiter():
        yield sim.timeout(5.0)
        v = yield ev  # processed long ago; must resume immediately
        assert sim.now == 5.0
        return v

    assert sim.run(sim.process(late_waiter())) == "early"


def test_unhandled_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("app bug")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="app bug"):
        sim.run_all()


def test_waiter_sees_process_exception():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("inner")

    def outer():
        try:
            yield sim.process(bad())
        except ValueError:
            return "handled"

    assert sim.run(sim.process(outer())) == "handled"


def test_process_as_event_value():
    sim = Simulator()

    def child():
        yield sim.timeout(2)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return result

    assert sim.run(sim.process(parent())) == "child-result"


def test_interrupt_waiting_process():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100)
            return "slept"
        except Interrupt as i:
            return ("interrupted", i.cause, sim.now)

    p = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(3)
        p.interrupt("collision")

    sim.process(interrupter())
    assert sim.run(p) == ("interrupted", "collision", 3.0)


def test_interrupt_dead_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    p = sim.process(quick())
    sim.run(p)
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_process_can_rewait():
    sim = Simulator()

    def sleeper():
        target = sim.timeout(10)
        try:
            yield target
        except Interrupt:
            pass
        yield sim.timeout(1)
        return sim.now

    p = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(2)
        p.interrupt()

    sim.process(interrupter())
    assert sim.run(p) == 3.0


def test_all_of_waits_for_every_child():
    sim = Simulator()

    def proc(delay):
        yield sim.timeout(delay)
        return delay

    def main():
        children = [sim.process(proc(d)) for d in (3, 1, 2)]
        results = yield sim.all_of(children)
        return sorted(results.values())

    assert sim.run(sim.process(main())) == [1, 2, 3]
    assert sim.now == 3.0


def test_all_of_empty_triggers_immediately():
    sim = Simulator()

    def main():
        yield sim.all_of([])
        return sim.now

    assert sim.run(sim.process(main())) == 0.0


def test_any_of_returns_on_first():
    sim = Simulator()

    def proc(delay):
        yield sim.timeout(delay)
        return delay

    def main():
        children = [sim.process(proc(d)) for d in (5, 1, 9)]
        results = yield sim.any_of(children)
        return list(results.values())

    assert sim.run(sim.process(main())) == [1]
    assert sim.now == 1.0


def test_all_of_child_failure_raises_condition_error():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("x")

    def main():
        try:
            yield sim.all_of([sim.process(bad())])
        except ConditionError:
            return "condition-failed"

    assert sim.run(sim.process(main())) == "condition-failed"


def test_run_until_time():
    sim = Simulator()
    ticks = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.process(ticker())
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.now == 5.5


def test_run_until_past_is_error():
    sim = Simulator()
    sim.process(iter_timeout(sim, 10))
    sim.run(until=5)
    with pytest.raises(ValueError):
        sim.run(until=1)


def iter_timeout(sim, t):
    yield sim.timeout(t)


def test_run_max_events_guard():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(1)

    sim.process(forever())
    with pytest.raises(RuntimeError, match="max_events"):
        sim.run(max_events=50)


def test_deadlock_detected_when_waiting_on_unreachable_event():
    sim = Simulator()
    ev = sim.event()

    def stuck():
        yield ev

    p = sim.process(stuck())
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run(p)


def test_events_processed_counter():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        yield sim.timeout(1)

    sim.run(sim.process(proc()))
    assert sim.events_processed >= 3  # init + 2 timeouts (+ termination)


# ---------------------------------------------------------------- start
def test_start_runs_the_first_step_in_place_and_restores_the_caller():
    sim = Simulator()
    log = []

    def child(tag):
        log.append((tag, sim.active_process.name))
        yield sim.timeout(1)
        log.append((tag, sim.now))

    def parent():
        started = sim.start(child("c"), name="child")
        log.append(("parent", sim.active_process.name, started.is_alive))
        yield sim.timeout(2)

    sim.process(parent(), name="parent")
    sim.run_all()
    assert log == [("c", "child"), ("parent", "parent", True), ("c", 1.0)]
    # parent: Initialize, timeout, end; child: its timeout only — no
    # Initialize, and no end event because nobody waits on it.
    assert sim.events_processed == 4


def test_start_ends_in_place_unless_someone_waits():
    sim = Simulator()

    def quick():
        return "done"
        yield  # pragma: no cover - makes this a generator

    proc = sim.start(quick())
    assert proc.processed and proc.value == "done"
    assert sim.active_process is None and sim.peek() == float("inf")

    def slow():
        yield sim.timeout(1)
        return "late"

    waited = sim.start(slow())
    got = []

    def joiner():
        got.append((yield waited))

    sim.process(joiner())
    sim.run_all()
    assert got == ["late"]


@pytest.mark.parametrize("suspend", [False, True])
def test_start_failure_surfaces_out_of_run(suspend):
    sim = Simulator()

    def broken():
        if suspend:
            yield sim.timeout(1)
        raise ValueError("boom")
        yield  # pragma: no cover - makes this a generator

    proc = sim.start(broken())
    assert proc.is_alive is suspend
    with pytest.raises(ValueError, match="boom"):
        sim.run_all()


def _last_act_trigger(sim, delay=1.0):
    """A timeout whose one callback ends by succeeding a fresh event."""
    target = sim.event()
    seen = []
    target.callbacks.append(lambda ev: seen.append((ev.value, sim.now)))
    fire = sim.timeout(delay)
    fire.callbacks.append(lambda _ev: sim._succeed_last(target, "done"))
    return target, seen


def test_last_act_trigger_runs_in_place_under_run():
    sim = Simulator()
    target, seen = _last_act_trigger(sim)
    sim.run()
    assert seen == [("done", 1.0)]
    assert target.processed
    assert sim.events_processed == 2  # counted, though never queued
    assert sim._seq == 1  # only the timeout took a sequence number


def test_last_act_trigger_is_scheduled_behind_an_entry_due_now():
    sim = Simulator()
    order = []
    target, seen = _last_act_trigger(sim)
    target.callbacks.append(lambda _ev: order.append("target"))
    other = sim.timeout(1.0)
    other.callbacks.append(lambda _ev: order.append("other"))
    sim.run()
    assert order == ["other", "target"]
    assert sim._seq == 3 and sim.events_processed == 3


def test_last_act_trigger_is_scheduled_under_step():
    sim = Simulator()
    target, seen = _last_act_trigger(sim)
    sim.step()
    assert not target.processed and seen == []
    sim.step()
    assert seen == [("done", 1.0)]


def test_last_act_trigger_respects_run_stop_and_budget():
    sim = Simulator()
    target, seen = _last_act_trigger(sim)
    fire = sim._queue[0][3]
    sim.run(until=fire)  # stops after the timeout, as a step loop would
    assert seen == [] and not target.processed
    sim.run()
    assert seen == [("done", 1.0)]

    sim = Simulator()
    target, seen = _last_act_trigger(sim)
    with pytest.raises(RuntimeError, match="max_events=1"):
        sim.run(max_events=1)
    assert seen == [] and sim.events_processed == 1
