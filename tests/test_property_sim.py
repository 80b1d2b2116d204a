"""Property-based tests for the simulation engine (hypothesis)."""

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.osmodel import ProcessorSharingCPU
from repro.sim import PRIORITY_URGENT, Event, Resource, Simulator, Store
from repro.sim.monitor import StatSet, TimeWeighted


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


# -- solo-burst path vs the general processor-sharing algorithm ---------------
class _RefJob:
    __slots__ = ("event", "remaining")

    def __init__(self, event, demand):
        self.event = event
        self.remaining = demand


class _ReferencePS:
    """The processor-sharing CPU without the solo-burst path: every arrival
    advances all jobs and re-arms, every timer advances and rescans.  Kept
    here as the bit-exact reference the scheduler's fast path must match."""

    def __init__(self, sim, context_switch, timeslice=0.010):
        self.sim = sim
        self.context_switch = context_switch
        self.timeslice = timeslice
        self._jobs = {}
        self._next_job_id = 0
        self._last = sim.now
        self._epoch = 0
        self._timer = None
        self._shortest = float("inf")
        self.stats = StatSet("ref")
        self.run_queue = TimeWeighted("ref.runq", start_time=sim.now)
        self.busy = TimeWeighted("ref.busy", start_time=sim.now)

    def rate(self, n):
        if n == 1:
            return 1.0
        return 1.0 / (n * (1.0 + self.context_switch / self.timeslice))

    def execute(self, demand):
        event = self.sim.event("ref.burst")
        self._advance()
        self._jobs[self._next_job_id] = _RefJob(event, demand)
        self._next_job_id += 1
        if demand < self._shortest:
            self._shortest = demand
        self._note_queue()
        self._reschedule()
        return event

    def _note_queue(self):
        n = len(self._jobs)
        self.run_queue.set(n, self.sim.now)
        self.busy.set(1.0 if n else 0.0, self.sim.now)

    def _advance(self):
        now = self.sim.now
        dt = now - self._last
        self._last = now
        if dt <= 0 or not self._jobs:
            return
        progressed = dt * self.rate(len(self._jobs))
        for job in self._jobs.values():
            job.remaining -= progressed
            if job.remaining < 0:
                job.remaining = 0.0
        self._shortest -= progressed
        if self._shortest < 0:
            self._shortest = 0.0

    def _reschedule(self):
        self._epoch += 1
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._jobs:
            self._shortest = float("inf")
            return
        timer = self.sim.timeout(self._shortest / self.rate(len(self._jobs)), value=self._epoch)
        timer.callbacks.append(self._on_timer)
        self._timer = timer

    def _on_timer(self, ev):
        if ev._value != self._epoch:
            return
        self._timer = None
        self._advance()
        finished = [jid for jid, job in self._jobs.items() if job.remaining <= 1e-12]
        events = []
        for jid in finished:
            events.append(self._jobs.pop(jid).event)
            self.stats.counter("completed").increment()
        self._shortest = (
            min(job.remaining for job in self._jobs.values()) if self._jobs else float("inf")
        )
        self._note_queue()
        self._reschedule()
        for done in events:
            done.succeed()


def _run_arrivals(make_cpu, arrivals, context_switch):
    """Submit ``(arrival, demand)`` bursts; return completion times, the
    CPU's integrals, its completed count, the event counts and the cases
    the schedule reached (for the solo path's conversion points)."""
    sim = Simulator()
    cpu = make_cpu(sim, context_switch)
    done = {}
    cases = set()
    started = {}

    def job(i, at, demand):
        yield sim.timeout(at)
        if len(cpu._jobs) == 1:
            (solo,) = cpu._jobs.values()
            same = started[solo.event] == sim.now
            cases.add("convert-same-instant" if same else "convert-mid-burst")
        burst = cpu.execute(demand)
        started[burst] = sim.now
        yield burst
        done[i] = sim.now

    for i, (at, demand) in enumerate(arrivals):
        sim.process(job(i, at, demand))
    sim.run_all()
    if set(started.values()) & set(done.values()):
        cases.add("arrival-at-completion")
    return {
        "done": [done[i].hex() for i in range(len(arrivals))],
        "runq": cpu.run_queue.average(sim.now).hex(),
        "busy": cpu.busy.average(sim.now).hex(),
        "completed": cpu.stats.counter("completed").value,
        "events": (sim.events_processed, sim.events_cancelled),
    }, cases


_demand = st.floats(min_value=1e-6, max_value=0.05)


@st.composite
def _staggered_arrivals(draw):
    """Arrival times built so collisions with solo completions are likely:
    each gap is zero (same instant), the previous burst's own demand (its
    completion instant if it ran alone) or a random offset."""
    arrivals = []
    at = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        demand = draw(_demand)
        kind = draw(st.sampled_from(["same", "at-completion", "random"]))
        if arrivals and kind == "same":
            at = arrivals[-1][0]
        elif arrivals and kind == "at-completion":
            at = arrivals[-1][0] + arrivals[-1][1]
        elif arrivals:
            at = arrivals[-1][0] + draw(st.floats(min_value=0.0, max_value=0.05))
        arrivals.append((at, demand))
    return arrivals


#: one canonical schedule per conversion case the solo path must handle
_CASES = {
    "convert-same-instant": [(0.0, 0.004), (0.0, 0.002), (0.01, 0.003)],
    "convert-mid-burst": [(0.0, 0.004), (0.001, 0.002), (0.02, 0.001)],
    "arrival-at-completion": [(0.0, 0.003), (0.0 + 0.003, 0.005), (0.008, 0.001)],
}


def _assert_bit_identical(arrivals, context_switch):
    fast, cases = _run_arrivals(
        lambda sim, cs: ProcessorSharingCPU(sim, context_switch=cs), arrivals, context_switch
    )
    ref, ref_cases = _run_arrivals(_ReferencePS, arrivals, context_switch)
    assert fast == ref
    assert cases == ref_cases
    return cases


@given(
    arrivals=_staggered_arrivals(),
    context_switch=st.floats(min_value=1e-6, max_value=2e-3),
)
@settings(max_examples=200, deadline=None)
def test_solo_burst_path_matches_general_ps_bit_for_bit(arrivals, context_switch):
    """Completion times, run-queue and busy integrals, completions and the
    event counts equal the general algorithm's to the last bit."""
    for case in _assert_bit_identical(arrivals, context_switch):
        event(case)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_solo_burst_conversion_cases_are_reached(case):
    assert case in _assert_bit_identical(_CASES[case], 25e-6)


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
