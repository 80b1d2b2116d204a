"""Discrete-event simulation engine (from scratch, SimPy-flavoured API).

Public surface::

    sim = Simulator()
    def proc(sim):
        yield sim.timeout(1.0)
        return 42
    p = sim.process(proc(sim))
    sim.run(p)   # -> 42
"""

from .core import (
    AllOf,
    AnyOf,
    ConditionError,
    Event,
    Interrupt,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Process,
    Simulator,
    Timeout,
    Timer,
)
from .resources import Container, Mutex, Release, Request, Resource, Store
from .rng import RandomStreams
from .monitor import Counter, LazyStat, StatSet, Tally, TimeWeighted

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionError",
    "Event",
    "Interrupt",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "Simulator",
    "Timeout",
    "Timer",
    "Container",
    "Mutex",
    "Release",
    "Request",
    "Resource",
    "Store",
    "RandomStreams",
    "Counter",
    "LazyStat",
    "StatSet",
    "Tally",
    "TimeWeighted",
]
