"""Property-based tests for the simulation engine (hypothesis)."""

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.osmodel import ProcessorSharingCPU
from repro.sim import PRIORITY_URGENT, Event, Resource, Simulator, Store
from repro.sim.ps import PSQueue


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_events_fire_in_time_order(delays):
    sim = Simulator()
    fired = []

    def proc(d):
        yield sim.timeout(d)
        fired.append(sim.now)

    for d in delays:
        sim.process(proc(d))
    sim.run_all()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(
    demands=st.lists(st.floats(min_value=0.001, max_value=5.0), min_size=1, max_size=12)
)
@settings(max_examples=50, deadline=None)
def test_processor_sharing_conservation(demands):
    """PS invariants: every job takes at least its demand; total elapsed is
    at least the sum of demands (one CPU) and at most sum * (1 + tiny)."""
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim)  # no context-switch tax
    completions = []

    def proc(d):
        yield cpu.execute(d)
        completions.append((d, sim.now))

    for d in demands:
        sim.process(proc(d))
    sim.run_all()
    assert len(completions) == len(demands)
    for demand, done_at in completions:
        assert done_at >= demand - 1e-9
    total = sum(demands)
    assert abs(sim.now - total) < 1e-6 * max(1.0, total)
    assert cpu.load == 0


@given(
    demands=st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=2, max_size=8),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_processor_sharing_srpt_order(demands, seed):
    """With simultaneous arrival and equal sharing, shorter jobs always
    finish no later than longer ones."""
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim)
    done = {}

    def proc(i, d):
        yield cpu.execute(d)
        done[i] = sim.now

    for i, d in enumerate(demands):
        sim.process(proc(i, d))
    sim.run_all()
    order = sorted(range(len(demands)), key=lambda i: demands[i])
    for a, b in zip(order, order[1:]):
        assert done[a] <= done[b] + 1e-9


@given(items=st.lists(st.integers(), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_store_fifo_property(items):
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for item in items:
            yield store.put(item)
            yield sim.timeout(0.1)

    def consumer():
        for _ in items:
            value = yield store.get()
            got.append(value)

    sim.process(producer())
    sim.process(consumer())
    sim.run_all()
    assert got == items


class _ReferenceStore(Store):
    """Store with the original dispatch loop: repeat whole passes (admit
    puts, then scan getters) until one makes no progress."""

    def _dispatch(self):
        progress = True
        while progress:
            progress = False
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.pop(0)
                self.items.append(putter.item)
                self.total_puts += 1
                self.peak_occupancy = max(self.peak_occupancy, len(self.items))
                putter.succeed(priority=PRIORITY_URGENT)
                progress = True
            i = 0
            while i < len(self._getters):
                getter = self._getters[i]
                matched = None
                if getter.filter is None:
                    if self.items:
                        matched = self.items.popleft()
                else:
                    for j, item in enumerate(self.items):
                        if getter.filter(item):
                            matched = item
                            del self.items[j]
                            break
                if matched is not None:
                    self._getters.pop(i)
                    self.total_gets += 1
                    getter.succeed(matched, priority=PRIORITY_URGENT)
                    progress = True
                else:
                    i += 1


_FILTERS = {"any": None, "even": lambda x: x % 2 == 0, "odd": lambda x: x % 2 == 1}


def _store_log(store_cls, capacity, ops):
    sim = Simulator()
    store = store_cls(sim, capacity=capacity)
    log = []

    def actor(k, at, op, arg):
        yield sim.timeout(at)
        if op == "put":
            yield store.put(arg)
            log.append((sim.now, k, "put", arg))
        else:
            item = yield store.get(_FILTERS[arg])
            log.append((sim.now, k, "got", item))

    for k, (at, op, arg) in enumerate(ops):
        sim.process(actor(k, at, op, arg))
    sim.run_all()
    return log, list(store.items), store.total_puts, store.total_gets, store.peak_occupancy


@given(
    capacity=st.sampled_from([1, 2, 3, float("inf")]),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.sampled_from(["put", "get"]),
            st.integers(min_value=0, max_value=9),
        ).map(lambda t: (t[0], t[1], t[2] if t[1] == "put" else list(_FILTERS)[t[2] % 3])),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=200, deadline=None)
def test_store_dispatch_matches_full_pass_loop(capacity, ops):
    """Bounded and filtered stores: same hand-offs, at the same times and in
    the same order, as the loop that repeats passes until no progress."""
    assert _store_log(Store, capacity, ops) == _store_log(_ReferenceStore, capacity, ops)


@given(
    capacity=st.integers(min_value=1, max_value=5),
    n_users=st.integers(min_value=1, max_value=15),
)
@settings(max_examples=40, deadline=None)
def test_resource_never_exceeds_capacity(capacity, n_users):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    max_seen = 0

    def user():
        nonlocal max_seen
        req = res.request()
        yield req
        max_seen = max(max_seen, res.count)
        yield sim.timeout(1.0)
        res.release(req)

    for _ in range(n_users):
        sim.process(user())
    sim.run_all()
    assert max_seen <= capacity
    assert res.count == 0
    assert res.total_requests == n_users


# -- the shared processor-sharing queue vs a plain virtual-time reference ------
_EPS = 1e-12


class _Job:
    __slots__ = ("name", "size", "then")

    def __init__(self, name, size, then=None):
        self.name = name
        self.size = size
        #: the size of a job its completion admits at once, if any
        self.then = then


class _ReferenceQueue:
    """Virtual-time processor sharing, written plainly: a fresh
    ``sim.timeout`` per re-arm, and a full rescan of the resident jobs for
    the next tag and for the due ones."""

    def __init__(self, sim, done, speed, tax):
        self.sim, self.done, self.speed, self.tax = sim, done, speed, tax
        self.jobs = {}  # job -> (tag, seq), admission order
        self.v = 0.0
        self.last = sim.now
        self.timeout = None
        self.up = True
        self.busy_area = 0.0
        self.load_area = 0.0

    def share(self, n):
        return n * self.tax if n > 1 else n

    def advance(self, now):
        n = len(self.jobs)
        if n:
            dt = now - self.last
            self.v += dt * self.speed / self.share(n)
            self.busy_area += dt
            self.load_area += dt * n
        self.last = now

    def arm(self):
        if self.timeout is not None:
            self.timeout.cancel()
            self.timeout = None
        if self.jobs and self.up:
            tag = min(tag for tag, _ in self.jobs.values())
            delay = (tag - self.v) * self.share(len(self.jobs)) / self.speed
            self.timeout = self.sim.timeout(max(delay, 0.0))
            self.timeout.callbacks.append(self.fire)

    def admit(self, job, now):
        self.advance(now)
        self.sim._seq += 1
        self.jobs[job] = (self.v + job.size, self.sim._seq)
        self.arm()

    def remove(self, job, now):
        if job not in self.jobs:
            return False
        self.advance(now)
        del self.jobs[job]
        self.arm()
        return True

    def crash(self, now):
        self.advance(now)
        self.up = False
        self.arm()
        lost = list(self.jobs)
        self.jobs.clear()
        return lost

    def restart(self, now):
        self.advance(now)
        self.up = True

    def fire(self, _timeout):
        self.timeout = None
        self.advance(self.sim.now)
        head = min(self.jobs, key=self.jobs.get)
        due = [j for j, (tag, _) in self.jobs.items() if j is head or tag <= self.v + _EPS]
        for job in due:
            del self.jobs[job]
        self.arm()
        for job in due:
            self.done(job, len(due) == 1)


def _play(make_queue, ops):
    """Run ``ops`` (``(at, kind, arg)``) against one queue; returns every
    completion and operation result, the integrals and the event counts."""
    sim = Simulator()
    log = []
    admitted = []
    queue = None

    def done(job, last):
        log.append(("done", job.name, sim.now.hex(), last))
        if job.then is not None:
            follow = _Job(f"{job.name}+", job.then)
            admitted.append(follow)
            queue.admit(follow, sim.now)

    queue = make_queue(sim, done)

    def act(kind, arg):
        now = sim.now
        if kind == "admit":
            size, then = arg
            job = _Job(f"j{len(admitted)}", size, then)
            admitted.append(job)
            queue.admit(job, now)
        elif kind == "remove" and admitted:
            job = admitted[arg % len(admitted)]
            log.append(("remove", job.name, now.hex(), queue.remove(job, now)))
        elif kind == "crash" and queue.up:
            log.append(("crash", [j.name for j in queue.crash(now)], now.hex()))
        elif kind == "restart" and not queue.up:
            queue.restart(now)

    for at, kind, arg in ops:
        sim.timeout(at).callbacks.append(lambda _t, kind=kind, arg=arg: act(kind, arg))
    sim.run_all()
    return {
        "log": log,
        "busy": queue.busy_area.hex(),
        "load": queue.load_area.hex(),
        "resident": sorted(j.name for j in queue.jobs),
        "events": (sim.events_processed, sim.events_cancelled, sim._seq),
    }


#: sizes from a small set make equal tags, and so batch completions, likely
_size = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(min_value=1e-6, max_value=2.0))
_op = st.one_of(
    st.tuples(st.just("admit"), st.tuples(_size, st.one_of(st.none(), _size))),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.sampled_from(["crash", "restart"]), st.none()),
)
#: both shapes: the CPU's (speed 1, a context-switch tax) and a traffic
#: server's (a rate, no tax)
_shape = st.one_of(
    st.tuples(st.just(1.0), st.floats(min_value=1.0, max_value=1.5)),
    st.tuples(st.sampled_from([0.5, 2.0, 3.0]), st.just(1.0)),
)


@given(
    shape=_shape,
    ops=st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]), _op).map(
            lambda t: (t[0], *t[1])
        ),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=300, deadline=None)
def test_ps_queue_matches_plain_virtual_time_reference(shape, ops):
    """Completion times and order, batch flags, removals, crash losses, the
    busy and load integrals, and the event, cancellation and sequence
    counts equal the plain reference's to the last bit."""
    speed, tax = shape
    got = _play(lambda sim, done: PSQueue(sim, done, speed=speed, tax=tax), ops)
    want = _play(lambda sim, done: _ReferenceQueue(sim, done, speed, tax), ops)
    assert got == want
    batched = any(entry[0] == "done" and not entry[3] for entry in got["log"])
    event("batch" if batched else "no batch")


def test_ps_queue_batch_completes_in_admission_order():
    """Equal work admitted at different instants gives tags that differ by
    round-off only: they finish in one firing, in admission order."""
    order = []
    sim = Simulator()
    queue = PSQueue(sim, lambda job, last: order.append((job.name, last)), tax=1.1)
    jobs = [_Job("a", 0.3), _Job("b", 0.1), _Job("c", 0.3)]
    queue.admit(jobs[0], 0.0)
    queue.admit(jobs[1], 0.0)
    queue.admit(jobs[2], 0.0)
    sim.run_all()
    assert order == [("b", True), ("a", False), ("c", False)]
    assert sim.events_processed == 2


class _RemainingWorkPS:
    """The arithmetic the OS model's CPU used before the shared queue: each
    job's remaining work, decreased by ``dt * rate(n)`` at every arrival
    and departure, and the timer set to ``min(remaining) / rate(n)``."""

    def __init__(self, sim, tax):
        self.sim, self.tax = sim, tax
        self.remaining = {}
        self.last = sim.now
        self.timeout = None
        self.done = []

    def rate(self, n):
        return 1.0 if n == 1 else 1.0 / (n * self.tax)

    def advance(self):
        now = self.sim.now
        if self.remaining:
            progressed = (now - self.last) * self.rate(len(self.remaining))
            for job in self.remaining:
                self.remaining[job] = max(0.0, self.remaining[job] - progressed)
        self.last = now

    def arm(self):
        if self.timeout is not None:
            self.timeout.cancel()
            self.timeout = None
        if self.remaining:
            delay = min(self.remaining.values()) / self.rate(len(self.remaining))
            self.timeout = self.sim.timeout(delay)
            self.timeout.callbacks.append(self.fire)

    def admit(self, name, size):
        self.advance()
        self.remaining[name] = size
        self.arm()

    def fire(self, _timeout):
        self.timeout = None
        self.advance()
        for job in [j for j, left in self.remaining.items() if left <= _EPS]:
            del self.remaining[job]
            self.done.append((job, self.sim.now))
        self.arm()


#: how far a virtual-time completion may sit from the remaining-work one
_REL = 1e-9


@given(
    tax=st.floats(min_value=1.0, max_value=1.5),
    arrivals=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=0.05), st.floats(min_value=1e-3, max_value=0.05)),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_ps_queue_agrees_with_remaining_work_arithmetic(tax, arrivals):
    """A finish tag is not repeated subtraction, so the two differ by
    round-off only: the same completion order, and each completion time
    within a relative ``_REL`` (1e-9) of the other."""
    def completions(make):
        sim = Simulator()
        admit, finished = make(sim)
        for i, (at, size) in enumerate(arrivals):
            sim.timeout(at).callbacks.append(lambda _t, i=i, size=size: admit(i, size))
        sim.run_all()
        return dict(finished)

    def shared(sim):
        finished = []
        queue = PSQueue(sim, lambda job, last: finished.append((job.name, sim.now)), tax=tax)
        return (lambda i, size: queue.admit(_Job(i, size), sim.now)), finished

    def remaining_work(sim):
        ref = _RemainingWorkPS(sim, tax)
        return ref.admit, ref.done

    got_times = completions(shared)
    want_times = completions(remaining_work)
    assert sorted(got_times) == sorted(want_times) == list(range(len(arrivals)))
    for job, at in want_times.items():
        assert got_times[job] == pytest.approx(at, rel=_REL)
    # jobs more than the bound apart finish in the same order
    for a in want_times:
        for b in want_times:
            if want_times[a] < want_times[b] * (1 - 2 * _REL):
                assert got_times[a] < got_times[b]


# -- in-place dispatch of a callback's last-act trigger ------------------------
#: what a firing callback does before its last act
_ACTIONS = st.sampled_from(["normal", "urgent", "timeout-0", "timeout-1", "cancelled"])

_FIRING = st.fixed_dictionaries({
    "delay": st.sampled_from([0.0, 1.0, 2.0]),
    "actions": st.lists(_ACTIONS, max_size=3),
    # waiters of the triggered event: a plain callback, or a process that
    # may go on to sleep ``then`` more
    "waiters": st.lists(st.sampled_from(["callback", "process"]), max_size=2),
    "then": st.sampled_from([None, 0.0, 1.0]),
})


def _build_last_act_scenario(sim, firings, trace):
    """Timeouts whose one callback ends in ``sim._succeed_last``; returns
    the events they trigger, then the timeouts themselves."""
    triggered = [Event(sim, f"e{i}") for i in range(len(firings))]
    firing = []

    def note(label):
        trace.append((label, sim.now))

    def fire(i, spec):
        def on_fire(_ev):
            note(f"fire{i}")
            for k, action in enumerate(spec["actions"]):
                tag = f"{i}.{k}"
                if action == "normal":
                    ev = Event(sim)
                    ev.callbacks.append(lambda _e, tag=tag: note(f"normal{tag}"))
                    ev.succeed()
                elif action == "urgent":
                    ev = Event(sim)
                    ev.callbacks.append(lambda _e, tag=tag: note(f"urgent{tag}"))
                    ev.succeed(priority=PRIORITY_URGENT)
                elif action.startswith("timeout"):
                    t = sim.timeout(float(action[-1]))
                    t.callbacks.append(lambda _e, tag=tag: note(f"timeout{tag}"))
                else:  # a cancelled entry, left in the heap at now
                    sim.timeout(0.0).cancel()
            sim._succeed_last(triggered[i], i)

        return on_fire

    def waiter_proc(i, then):
        value = yield triggered[i]
        note(f"proc{i}:{value}")
        if then is not None:
            yield sim.timeout(then)
            note(f"proc{i}:after")

    for i, spec in enumerate(firings):
        for w in spec["waiters"]:
            if w == "callback":
                triggered[i].callbacks.append(lambda e, i=i: note(f"cb{i}:{e.value}"))
            else:
                sim.process(waiter_proc(i, spec["then"]))
        t = sim.timeout(spec["delay"])
        t.callbacks.append(fire(i, spec))
        firing.append(t)
    return triggered + firing


@given(
    firings=st.lists(_FIRING, min_size=1, max_size=6),
    stop=st.one_of(st.none(), st.integers(min_value=0, max_value=11)),
)
@settings(max_examples=300, deadline=None)
def test_last_act_trigger_in_run_matches_a_step_loop(firings, stop):
    """Under run(), a last-act trigger may be processed in place; the
    callback trace and events_processed must equal a step() loop's, which
    schedules every event.  ``run(until=...)`` stops at a triggered event
    or at the timeout that fired it."""

    def play(drive):
        sim = Simulator()
        trace = []
        events = _build_last_act_scenario(sim, firings, trace)
        stop_event = events[stop] if stop is not None and stop < len(events) else None
        drive(sim, stop_event)
        done = stop_event is None or stop_event.processed
        return trace, sim.events_processed, sim.now, done, sim._seq

    def by_run(sim, stop_event):
        if stop_event is None:
            sim.run()
        else:
            sim.run(until=stop_event)

    def by_steps(sim, stop_event):
        while not (stop_event is not None and stop_event.processed):
            if sim.peek() == float("inf"):
                break
            sim.step()

    trace, processed, now, done, seq = play(by_run)
    ref_trace, ref_processed, ref_now, ref_done, ref_seq = play(by_steps)
    assert trace == ref_trace
    assert processed == ref_processed
    assert now == ref_now and done == ref_done
    event("in place" if seq < ref_seq else "all scheduled")
