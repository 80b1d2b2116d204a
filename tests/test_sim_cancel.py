"""Event.cancel() interacting with conditions, kill(), the Timeout pool and
owner-held Timers.

The engine deletes cancelled events *lazily* — the heap slot is nulled and
the object may be recycled — so these tests pin the safety properties that
lazy deletion must preserve: a cancelled event never resurrects a waiter,
never runs a stale callback, and never leaks a registration on another
event's callback list.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import AllOf, AnyOf, Event, Simulator, Timeout, Timer


# -- cancel vs AllOf/AnyOf ----------------------------------------------------
def test_anyof_fires_when_other_child_cancelled():
    sim = Simulator()
    e = Event(sim)
    t = sim.timeout(10.0)
    cond = AnyOf(sim, [e, t])
    done = []

    def proc():
        done.append((yield cond))

    sim.process(proc())
    e.succeed("winner")
    t.cancel()  # superseded timer: must not hang or resurrect anything
    sim.run_all()
    assert done and done[0][e] == "winner"
    assert sim.now == 0.0  # the 10s timer never dispatched


def test_cancelled_child_never_triggers_anyof():
    sim = Simulator()
    t1 = sim.timeout(1.0)
    t2 = sim.timeout(5.0)
    cond = AnyOf(sim, [t1, t2])
    t1.cancel()
    sim.run_all()
    # Only the surviving child can fire the condition, at its own time.
    # (A cancelled Timeout still *reads* as triggered — its value is set at
    # construction — which is why the cancel contract is owner-only.)
    assert cond.triggered and cond.ok
    assert sim.now == 5.0
    assert t2 in cond.value


def test_allof_with_cancelled_child_never_resurrects():
    sim = Simulator()
    t1 = sim.timeout(1.0)
    t2 = sim.timeout(2.0)
    cond = AllOf(sim, [t1, t2])
    t2.cancel()
    sim.run_all()
    # t2 will never trigger, so the AllOf stays pending forever — but it
    # must not half-fire, and the queue must drain cleanly.
    assert not cond.triggered
    assert sim.now == 1.0


def test_cancel_drops_condition_callback_without_leak():
    sim = Simulator()
    e = Event(sim)
    t = sim.timeout(3.0)
    AnyOf(sim, [e, t])
    assert len(t.callbacks) == 1  # the condition's _check registration
    t.cancel()
    assert t.callbacks is None  # registration gone with the event
    e.succeed("v")
    sim.run_all()
    assert sim.now == 0.0


def test_recycled_timeout_cannot_resurrect_condition():
    sim = Simulator()
    t = sim.timeout(1.0)
    cond = AnyOf(sim, [t])
    t.cancel()
    # The pool re-arms the same object for an unrelated purpose; the old
    # condition must not observe its completion.
    t2 = sim.timeout(0.5, value="other")
    assert t2 is t
    sim.run_all()
    assert not cond.triggered
    assert sim.now == 0.5


# -- cancel vs Process.kill ----------------------------------------------------
def test_kill_removes_waiter_registration():
    sim = Simulator()
    gate = Event(sim)

    def waiter():
        yield gate

    p = sim.process(waiter())
    sim.run(until=0.0)  # let it reach the yield
    assert len(gate.callbacks) == 1
    p.kill()
    assert gate.callbacks == []  # no leaked callback
    gate.succeed("late")
    sim.run_all()
    assert p.triggered and p.ok  # killed quietly, not resumed by the gate


def test_kill_process_waiting_on_cancelled_timeout():
    sim = Simulator()
    hold = sim.timeout(4.0)

    def waiter():
        yield hold

    p = sim.process(waiter())
    sim.run(until=0.0)
    hold.cancel()  # waiter is now stranded on a dead event
    p.kill()  # must not raise despite target.callbacks is None
    sim.run_all()
    assert p.triggered and p.ok
    assert sim.now == 0.0


def test_kill_runs_finally_blocks():
    sim = Simulator()
    cleaned = []

    def waiter():
        try:
            yield sim.timeout(10.0)
        finally:
            cleaned.append(True)

    p = sim.process(waiter())
    sim.run(until=0.0)
    p.kill()
    assert cleaned == [True]


def test_kill_then_interrupt_is_error():
    sim = Simulator()

    def waiter():
        yield sim.timeout(1.0)

    p = sim.process(waiter())
    sim.run(until=0.0)
    p.kill()
    with pytest.raises(RuntimeError):
        p.interrupt("too late")


def test_cancel_unscheduled_and_double_cancel_are_noops():
    sim = Simulator()
    e = Event(sim)
    e.cancel()  # never scheduled: no-op
    assert sim.events_cancelled == 0
    t = sim.timeout(1.0)
    t.cancel()
    t.cancel()  # second cancel: no-op, not double-counted
    assert sim.events_cancelled == 1


def test_cancelled_event_visible_in_census_counter():
    sim = Simulator()
    for _ in range(3):
        sim.timeout(1.0).cancel()
    sim.timeout(2.0)
    sim.run_all()
    assert sim.events_cancelled == 3
    assert sim.events_processed == 1


# -- Timer --------------------------------------------------------------------
#: one step of a timer schedule: (wait before acting, timer index, delay);
#: a delay of None clears the timer.  Small integer grids make equal-time
#: ties between timers, schedule wake-ups and callbacks the common case.
_TIMER_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 2.0]),
        st.integers(0, 3),
        st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0])),
    ),
    max_size=60,
)


def _drive_timers(steps, use_timer):
    """Run ``steps`` against four owner-held timers; return what we saw.

    A firing sets the next timer at the same delay (at most two hops per
    chain), as a PS server's departure sets its timer from inside the
    callback.  ``use_timer`` drives four :class:`Timer` objects with
    ``set``/``clear``; otherwise a pending timeout is cancelled and
    replaced by a fresh :meth:`Simulator.timeout`.
    """
    sim = Simulator()
    fired = []
    hops = [0] * 4
    delays = [0.0] * 4
    timeouts = [None] * 4

    def on_fire(i):
        fired.append((sim.now, i))
        timeouts[i] = None
        if hops[i]:
            arm((i + 1) % 4, delays[i], hops[i] - 1)

    timers = [Timer(sim, lambda _t, i=i: on_fire(i), f"t{i}") for i in range(4)]

    def arm(i, delay, hop=2):
        hops[i] = hop
        delays[i] = delay
        if use_timer:
            timers[i].set(delay)
            return
        if timeouts[i] is not None:
            timeouts[i].cancel()
        timeouts[i] = sim.timeout(delay, name=f"t{i}")
        timeouts[i].callbacks.append(lambda _ev, i=i: on_fire(i))

    def clear(i):
        if use_timer:
            timers[i].clear()
        elif timeouts[i] is not None:
            timeouts[i].cancel()
            timeouts[i] = None

    def schedule():
        for wait, i, delay in steps:
            if wait:
                yield sim.timeout(wait)
            if delay is None:
                clear(i)
            else:
                arm(i, delay)

    sim.process(schedule())
    sim.run(max_events=10_000)
    assert not any(type(t) is Timer for t in sim._timeout_pool)
    return fired, sim.events_cancelled, sim.events_processed, sim._seq


@settings(max_examples=200, deadline=None)
@given(steps=_TIMER_STEPS)
def test_timer_set_equals_cancel_plus_timeout(steps):
    """Same dispatch order, cancellation and event counts, and final
    sequence number whether a Timer is set or a timeout replaced."""
    assert _drive_timers(steps, use_timer=True) == _drive_timers(steps, use_timer=False)


def test_timer_set_moves_a_pending_timer_keeping_callback_and_name():
    sim = Simulator()
    seen = []
    t = Timer(sim, lambda ev: seen.append((sim.now, ev.name, ev.value)), "dep")
    assert sim._seq == 0 and sim._queue == []  # building one touches no heap
    t.set(5.0, "a")
    t.set(2.0, "b")
    assert sim._timeout_pool == []
    assert sim.events_cancelled == 1
    assert sim._seq == 2
    sim.run_all()
    assert seen == [(2.0, "dep", "b")]
    assert sim.events_processed == 1


def test_timer_set_after_fire_or_clear_reuses_the_object():
    sim = Simulator()
    fired = []
    t = Timer(sim, fired.append)
    t.set(1.0)
    sim.run_all()
    assert fired == [t]
    seq = sim._seq
    t.set(1.0)  # after a fire: the same object, a fresh seq, no cancel
    assert t._entry[3] is t and t._entry[2] == seq + 1
    assert sim.events_cancelled == 0
    t.clear()
    t.set(0.5)  # after a clear
    assert t._entry[2] == seq + 2 and sim.events_cancelled == 1
    with pytest.raises(ValueError):
        t.set(-1.0)
    # The refused call touched neither the heap nor the counters.
    assert [entry[3] for entry in sim._queue if entry[3] is not None] == [t]
    assert sim.events_cancelled == 1 and sim._seq == seq + 2
    sim.run_all()
    assert fired == [t, t] and sim.now == 1.5 and sim.events_processed == 2


def test_timer_clear_never_pools_the_object():
    sim = Simulator()
    t = Timer(sim, lambda ev: None)
    t.clear()  # idle: a no-op
    assert sim.events_cancelled == 0
    t.set(1.0)
    t.clear()
    t.clear()  # second clear: not double-counted
    assert sim.events_cancelled == 1
    assert sim._timeout_pool == []
    fresh = sim.timeout(1.0)
    assert fresh is not t and type(fresh) is Timeout
    sim.run_all()
    assert sim.events_processed == 1
