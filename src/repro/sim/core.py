"""Discrete-event simulation core.

This module implements the event loop that every other subsystem of the
reproduction runs on: the Ethernet bus, the protocol stack, the per-machine
UNIX scheduler, the DSE kernel, and the parallel applications themselves are
all simulated processes driven by one :class:`Simulator`.

The design follows the classic process-interaction style (as popularised by
SimPy, re-implemented here from scratch): a *process* is a Python generator
that yields :class:`Event` objects; the simulator resumes the generator when
the yielded event is triggered, passing the event's value back into the
generator (or throwing its exception).

Determinism is a hard requirement — experiment figures must be exactly
reproducible — so ties in the event queue are broken by a monotonically
increasing sequence number, and all randomness flows through seeded streams
(:mod:`repro.sim.rng`).

Large virtual clusters (hundreds of kernels) put millions of events through
this loop, so the engine has a deliberate fast path (benchmarked with
:mod:`repro.perf`; see ``docs/performance.md``):

* heap entries are mutable ``[time, priority, seq, event]`` slots, and
  :meth:`Event.cancel` nulls the event slot in place — a *lazy deletion*
  that lets superseded timers (the processor-sharing CPU re-arms one on
  every arrival/departure) die without ever being dispatched;
* cancelled :class:`Timeout` objects go to a per-simulator free list and
  are re-armed in place by :meth:`Simulator.timeout` — the cancel contract
  (you cancel only events you hold *every* reference to) is exactly what
  makes the recycling safe, and timer churn was the engine's dominant
  allocation;
* a :class:`Timer` is one timer object for its owner's whole lifetime
  (each PS queue and each traffic tenant holds one): setting it is a
  cancel plus a new timeout in heap terms, minus the allocation;
* :class:`Timeout` construction inlines both the :class:`Event`
  constructor and the scheduling push — it is the hottest allocation site;
* :meth:`Simulator.start` runs a fire-and-forget process's first step in
  place, with no ``Initialize`` event, and processes its end in place when
  nothing waits on it (the DSE kernel starts one request handler per
  request this way); :meth:`Simulator.process` keeps both events;
* an event succeeded as the last act of an event callback goes through
  :meth:`Simulator._succeed_last`, which processes it in place when
  :meth:`Simulator.run` would pop it next anyway (the processor-sharing
  CPU's burst completions and the Ethernet bus's grants);
* ``Simulator.now`` is a plain attribute, not a property, because the hot
  layers read the clock on every message hop;
* :meth:`Simulator.run` drives the heap with locally bound ``heappop``,
  dispatches the single-waiter case without looping, and defers to the
  shared :meth:`Simulator._drop_cancelled_head` helper (also used by
  :meth:`peek` and :meth:`step`) only when the head slot is cancelled;
* the tie-break sequence is a plain int increment, not ``itertools.count``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Timer",
    "Process",
    "Interrupt",
    "ConditionError",
    "AllOf",
    "AnyOf",
    "Simulator",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]

# Scheduling priorities: lower value runs first at equal timestamps.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

_PENDING = object()

#: cap on recycled Timeout objects kept per simulator
_TIMEOUT_POOL_MAX = 256

_INF = float("inf")


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    The ``cause`` attribute carries whatever object the interrupter supplied
    (for example, the Ethernet MAC uses it to signal a collision to an
    in-progress transmission).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Interrupt(cause={self.cause!r})"


class ConditionError(Exception):
    """Raised when waiting on a composite condition whose child failed."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules its callbacks to run at the current
    simulation time.  Once the callbacks have run the event is *processed*.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "name", "_scheduled", "_entry")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: callables invoked with the event when it is processed; ``None``
        #: once processed (mirrors the SimPy convention).
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        #: the live heap slot while scheduled (``[time, prio, seq, event]``)
        self._entry: Optional[list] = None

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, 0.0, priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception that will be thrown into waiters."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, 0.0, priority)
        return self

    def cancel(self) -> None:
        """Lazily remove a scheduled event from the queue (owner-only).

        The heap slot is nulled in place, so the queue never dispatches the
        event — its callbacks will not run and waiters would hang.  Only
        cancel events you hold every reference to (e.g. a timer you armed
        yourself and are about to supersede), and treat the object as dead
        afterwards: cancelled :class:`Timeout` objects created by
        :meth:`Simulator.timeout` are recycled.  Cancelling an unscheduled
        or already-processed event is a no-op.
        """
        entry = self._entry
        if entry is None:
            return
        entry[3] = None
        self._entry = None
        self.callbacks = None
        self.sim.events_cancelled += 1

    def trigger(self, event: "Event") -> None:
        """Adopt another event's outcome (used as a chained callback)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers itself after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + Simulator._schedule: this constructor is
        # the engine's dominant allocation site (see docs/performance.md).
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._entry = None
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        self._entry = entry = [sim.now + delay, PRIORITY_NORMAL, seq, self]
        heappush(sim._queue, entry)

    def cancel(self) -> None:
        """Cancel the timeout and recycle it through the simulator's pool.

        Per the :meth:`Event.cancel` contract the caller holds every
        reference and is discarding the timer, so the object can be re-armed
        by a later :meth:`Simulator.timeout` call.
        """
        entry = self._entry
        if entry is None:
            return
        entry[3] = None
        self._entry = None
        self.callbacks = None
        sim = self.sim
        sim.events_cancelled += 1
        if type(self) is Timeout and len(sim._timeout_pool) < _TIMEOUT_POOL_MAX:
            sim._timeout_pool.append(self)


class Timer(Event):
    """One timer object for its owner's whole lifetime, firing
    ``callback(timer)`` with ``timer._value`` as the last :meth:`set` gave.

    :meth:`set` is exactly a cancel of the pending firing, if any, plus a
    new :meth:`Simulator.timeout`: same heap slots, sequence numbers and
    ``events_cancelled``; ``priority`` orders the firing among events due
    at the same time, as in :meth:`Event.succeed`.  :meth:`clear` cancels
    and never pools the object.  Nothing but the owner's callback may wait
    on a timer.
    """

    __slots__ = ("_armed",)

    def __init__(self, sim: "Simulator", callback: Callable[["Timer"], None], name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks = None
        self._value = None
        self._ok = True
        self._scheduled = True  # moved by set/clear only, never by _schedule
        self._entry = None
        #: the one callback list every set re-registers; the run loop never mutates it
        self._armed = [callback]

    def set(self, delay: float, value: Any = None, priority: int = PRIORITY_NORMAL) -> None:
        """Fire ``delay`` from now with ``value``, moving a pending firing."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        sim = self.sim
        entry = self._entry
        if entry is not None:
            entry[3] = None
            sim.events_cancelled += 1
        self._value = value
        self.callbacks = self._armed
        sim._seq = seq = sim._seq + 1
        self._entry = entry = [sim.now + delay, priority, seq, self]
        heappush(sim._queue, entry)

    clear = Event.cancel


class Initialize(Event):
    """Internal event used to kick off a newly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        # Inlined Event.__init__ + _schedule: one Initialize per process
        # spawn, and short-lived worker processes are spawned in bulk on
        # the churn hot paths.
        self.sim = sim
        self.name = "init"
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._scheduled = True
        sim._seq = seq = sim._seq + 1
        self._entry = entry = [sim.now, PRIORITY_URGENT, seq, self]
        heappush(sim._queue, entry)


class _Started:
    """What a process started in place resumes with: a succeeded no-value
    event that was never scheduled (see :meth:`Simulator.start`)."""

    __slots__ = ()
    _ok = True
    _value = None


_STARTED = _Started()


class Process(Event):
    """A running simulated process wrapping a generator.

    The process is itself an event that triggers when the generator returns
    (value = the generator's ``return`` value) or raises (the process fails
    with that exception unless somebody is waiting on it, in which case the
    exception propagates into the waiter).

    Build processes with :meth:`Simulator.process` or
    :meth:`Simulator.start`; the constructor alone does not start one.
    """

    __slots__ = ("_generator", "_target", "_resume_cb", "_inline_end")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {type(generator).__name__}")
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        #: the event this process is currently waiting on (None when running)
        self._target: Optional[Event] = None
        #: the one bound method registered as a callback everywhere — built
        #: once so suspension does not allocate a fresh bound method
        self._resume_cb: Callable[[Event], None] = self._resume
        #: a successful end with no waiter is processed in place, never
        #: scheduled (set by Simulator.start only)
        self._inline_end = False

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def kill(self, value: Any = None) -> None:
        """Terminate the process immediately without raising into it.

        Used by the resilience layer to model a kernel crash: the process
        simply ceases to exist — it is detached from whatever event it was
        waiting on, its generator is closed (running ``finally`` blocks),
        and the process event succeeds quietly with ``value`` so waiters
        (if any) observe a normal termination.  Killing a finished process
        is a no-op.
        """
        if self.triggered:
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        self._generator.close()
        self._ok = True
        self._value = value
        self.sim._schedule(self, 0.0, PRIORITY_NORMAL)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process that
        is waiting on an event detaches it from that event first.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt dead process {self!r}")
        event = Event(self.sim, name=f"interrupt:{self.name}")
        event._ok = False
        event._value = Interrupt(cause)
        event.callbacks.append(self._resume_cb)
        self.sim._schedule(event, 0.0, PRIORITY_URGENT)

    # -- machinery -----------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:
            # An interrupt raced with normal termination; drop it.
            return
        # Detach from the event we were waiting on (relevant for interrupts).
        target = self._target
        if target is not None and target is not event:
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
        sim = self.sim
        generator = self._generator
        sim._active_process = self
        try:
            while True:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    next_event = generator.throw(event._value)
                if not isinstance(next_event, Event):
                    raise TypeError(
                        f"process {self.name!r} yielded {next_event!r}, expected an Event"
                    )
                if next_event.callbacks is not None:
                    # Still pending (or triggered but not yet processed):
                    # register and suspend.
                    next_event.callbacks.append(self._resume_cb)
                    self._target = next_event
                    return
                # Already processed: loop around immediately with its value.
                event = next_event
        except StopIteration as stop:
            self._target = None
            self._ok = True
            self._value = stop.value
            if self._inline_end and not self.callbacks:
                self.callbacks = None  # nobody waits: processed in place
            else:
                sim._schedule(self, 0.0, PRIORITY_NORMAL)
        except BaseException as exc:
            self._target = None
            self._ok = False
            self._value = exc
            if not isinstance(exc, Exception):
                raise
            sim._schedule(self, 0.0, PRIORITY_NORMAL)
        finally:
            sim._active_process = None


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("all events of a condition must share one simulator")
        self._count = 0
        if self._immediately_satisfied():
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
            if self.triggered:
                break

    def _immediately_satisfied(self) -> bool:
        raise NotImplementedError

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events if ev.triggered and ev._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(ConditionError(f"condition child failed: {event._value!r}"))
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when every child event has triggered successfully."""

    __slots__ = ()

    def _immediately_satisfied(self) -> bool:
        return len(self.events) == 0

    def _satisfied(self) -> bool:
        return self._count == len(self.events)


class AnyOf(_Condition):
    """Triggers when at least one child event has triggered successfully."""

    __slots__ = ()

    def _immediately_satisfied(self) -> bool:
        return False

    def _satisfied(self) -> bool:
        return self._count >= 1


class Simulator:
    """The discrete-event engine: a clock plus a priority queue of events."""

    def __init__(self, start_time: float = 0.0):
        #: current simulation time — a plain attribute (read-mostly hot path);
        #: treat it as read-only from outside the engine
        self.now = float(start_time)
        self._queue: list = []
        #: tie-break sequence (plain int: incremented inline on the hot path)
        self._seq = 0
        #: recycled cancelled Timeouts awaiting re-arming (see Timeout.cancel)
        self._timeout_pool: list = []
        self._active_process: Optional[Process] = None
        #: number of events processed so far (diagnostics / budget guards),
        #: counting those :meth:`_succeed_last` processes in place
        self.events_processed = 0
        #: while :meth:`run` dispatches: its stop event (or None) and its
        #: ``events_processed`` budget; None otherwise (see _succeed_last)
        self._run_guard: Optional[tuple] = None
        #: number of events lazily cancelled and never dispatched
        self.events_cancelled = 0

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories -------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def done(self, value: Any = None, name: str = "") -> Event:
        """An event born processed with ``value``: yielding it continues at
        once, and it never touches the heap."""
        event = Event(self, name)
        event._ok = True
        event._value = value
        event.callbacks = None
        return event

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        pool = self._timeout_pool
        if pool:
            # Re-arm a recycled timeout in place: same fields a fresh
            # construction would set, minus the allocation.
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            t = pool.pop()
            t.name = name
            t.callbacks = []
            t._value = value
            t._ok = True
            t.delay = delay
            self._seq = seq = self._seq + 1
            t._entry = entry = [self.now + delay, PRIORITY_NORMAL, seq, t]
            heappush(self._queue, entry)
            return t
        return Timeout(self, delay, value, name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a process at an ``Initialize`` event at the current time."""
        proc = Process(self, generator, name)
        Initialize(self, proc)
        return proc

    def start(self, generator: Generator, name: str = "") -> Process:
        """Start a process now, in place, for callers that do not join it.

        The generator runs up to its first suspension inside this call,
        with no ``Initialize`` event, and the caller's
        :attr:`active_process` is restored afterwards.  A successful end
        that nothing waits on is processed in place, with no completion
        event; a failure is still scheduled, so one nobody waits on
        surfaces out of :meth:`run`.  A process that ended during this
        call is returned already triggered.
        """
        proc = Process(self, generator, name)
        proc._inline_end = True
        active = self._active_process
        try:
            proc._resume(_STARTED)
        finally:
            self._active_process = active
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        if event._scheduled:
            raise RuntimeError(f"{event!r} is already scheduled")
        event._scheduled = True
        self._seq = seq = self._seq + 1
        event._entry = entry = [self.now + delay, priority, seq, event]
        heappush(self._queue, entry)

    def _succeed_last(self, event: Event, value: Any = None) -> None:
        """Succeed ``event`` as the last act of the event callback running now.

        The caller guarantees the *last act*: its callback is the only one
        of the event being dispatched, and it returns right after this call.
        While :meth:`run` dispatches and no live queue entry is due at
        ``now``, the event is processed in place: its callbacks run inside
        this call and it counts in :attr:`events_processed`, but it takes
        no sequence number and no heap slot.  Scheduled instead, it would
        take the largest sequence number at ``now`` and so be popped next
        anyway: every callback runs in the same order either way.  Under
        :meth:`step`, with an entry due at ``now``, or when :meth:`run`
        would stop before its next event (its stop event was just
        processed, or its ``max_events`` budget is spent), this is
        :meth:`Event.succeed`.
        """
        guard = self._run_guard
        if guard is not None:
            stop, limit = guard
            queue = self._queue
            while queue and queue[0][3] is None:
                heappop(queue)
            if (
                not (queue and queue[0][0] <= self.now)
                and self.events_processed < limit
                and (stop is None or stop.callbacks is not None)
            ):
                if event._value is not _PENDING:
                    raise RuntimeError(f"{event!r} has already been triggered")
                event._ok = True
                event._value = value
                event._scheduled = True
                callbacks = event.callbacks
                event.callbacks = None
                self.events_processed += 1
                for callback in callbacks:
                    callback(event)
                return
        event.succeed(value)

    def _drop_cancelled_head(self) -> None:
        """Pop lazily cancelled entries off the head of the queue.

        The one shared cancelled-slot skip: :meth:`peek`, :meth:`step` and
        :meth:`run` all defer to it, so lazy-deletion bookkeeping lives in
        exactly one place.
        """
        queue = self._queue
        while queue and queue[0][3] is None:
            heappop(queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        self._drop_cancelled_head()
        return self._queue[0][0] if self._queue else float("inf")

    def queue_snapshot(self, limit: Optional[int] = None) -> list:
        """Dispatch-ordered view of pending events, for inspection only.

        Returns up to ``limit`` tuples ``(time, priority, seq, label)`` in
        the order :meth:`step` would dispatch them, skipping lazily
        cancelled slots.  Used by the time-travel debugger's ``queues``
        inspector (:mod:`repro.replay`); never called on a hot path, and
        it neither pops nor reorders the live heap.
        """
        live = [entry for entry in self._queue if entry[3] is not None]
        live.sort(key=lambda entry: entry[:3])
        if limit is not None:
            live = live[:limit]
        return [
            (entry[0], entry[1], entry[2], entry[3].name or type(entry[3]).__name__)
            for entry in live
        ]

    def step(self) -> None:
        """Process exactly one (non-cancelled) event.

        Never processes a second one in place: :meth:`_succeed_last` falls
        back to :meth:`Event.succeed` outside :meth:`run`, so a loop of
        steps sees every event in its own step.
        """
        self._drop_cancelled_head()
        entry = heappop(self._queue)
        when = entry[0]
        event = entry[3]
        if when < self.now:  # pragma: no cover - guarded by _schedule
            raise RuntimeError("event scheduled in the past")
        self.now = when
        event._entry = None
        callbacks, event.callbacks = event.callbacks, None
        self.events_processed += 1
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks and isinstance(event._value, BaseException):
            # A failed event nobody waited for: surface the error rather than
            # silently losing it (matches SimPy's behaviour).
            raise event._value

    def run(self, until: Optional[float | Event] = None, max_events: Optional[int] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a simulation time (run up to and including that
        time) or an :class:`Event` (run until it is processed; returns its
        value).  ``max_events`` bounds total events processed as a runaway
        guard.  Lazily cancelled events are skipped without dispatch and
        show up in :attr:`events_cancelled` only.  Events that
        :meth:`_succeed_last` processes in place run in the order a loop of
        :meth:`step` calls would give them.
        """
        stop_event: Optional[Event] = None
        deadline = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise ValueError(f"until={deadline} is in the past (now={self.now})")

        processed_limit = (
            self.events_processed + max_events if max_events is not None else None
        )
        # Hot loop: locally bound pop; the single-waiter dispatch (the
        # overwhelmingly common shape — one process waiting on one event)
        # skips the callback for-loop entirely.
        queue = self._queue
        pop = heappop
        # _succeed_last may process an event in place only while this loop
        # runs; it reads the stop event and the budget from the guard, so
        # the loop itself does no per-event work for it.
        outer_guard = self._run_guard
        self._run_guard = (stop_event, _INF if processed_limit is None else processed_limit)
        try:
            while queue:
                entry = queue[0]
                if entry[3] is None:  # lazily cancelled: shared helper drops it
                    self._drop_cancelled_head()
                    continue
                when = entry[0]
                if when > deadline:
                    self.now = deadline
                    return None
                if processed_limit is not None and self.events_processed >= processed_limit:
                    raise RuntimeError(f"simulation exceeded max_events={max_events}")
                pop(queue)
                event = entry[3]
                self.now = when
                event._entry = None
                callbacks = event.callbacks
                event.callbacks = None
                self.events_processed += 1
                if len(callbacks) == 1:
                    callbacks[0](event)
                elif callbacks:
                    for callback in callbacks:
                        callback(event)
                elif not event._ok and isinstance(event._value, BaseException):
                    raise event._value
                if stop_event is not None and stop_event.callbacks is None:
                    if stop_event._ok:
                        return stop_event.value
                    raise stop_event.value  # type: ignore[misc]
            if stop_event is not None and not stop_event.processed:
                raise RuntimeError(
                    f"simulation queue drained before {stop_event!r} triggered (deadlock?)"
                )
            if deadline != float("inf"):
                self.now = deadline
            return None
        finally:
            self._run_guard = outer_guard

    def run_all(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue is completely drained."""
        self.run(until=None, max_events=max_events)
