"""Shared-resource primitives for simulated processes.

These are the building blocks the OS and network models are written with:

* :class:`Resource` — a counted resource with FIFO (or priority) queueing;
  used for CPUs, bus arbitration, and mutexes (capacity 1).
* :class:`Store` — an unbounded/bounded FIFO of items; used for socket
  receive buffers, kernel mailboxes and a NIC's fallback receive queue.
* :class:`Container` — a continuous quantity (used for modelling memory
  pools).

All wait operations are events, so a process simply ``yield``\\ s them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .core import Event, Simulator, PRIORITY_URGENT

__all__ = ["Request", "Release", "Resource", "Store", "Container", "Mutex"]


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted."""

    __slots__ = ("resource", "priority", "owner")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.sim, name=f"request:{resource.name}")
        self.resource = resource
        self.priority = priority
        self.owner = resource.sim.active_process
        resource._queue_request(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        self.resource._cancel(self)


class Release(Event):
    """Returns a granted :class:`Request` to its resource; triggers at once."""

    __slots__ = ()

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.sim, name=f"release:{resource.name}")
        resource._release(request)
        self.succeed(priority=PRIORITY_URGENT)


class Resource:
    """A counted resource with ``capacity`` concurrent users.

    Grants are FIFO among equal priorities; lower ``priority`` values are
    served first, which the machine scheduler uses to give kernel activity
    precedence over application compute.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self.queue: List[Request] = []
        #: cumulative statistics
        self.total_requests = 0
        self.total_wait_time = 0.0
        self._request_times: dict = {}

    @property
    def count(self) -> int:
        return len(self.users)

    def request(self, priority: int = 0) -> Request:
        return Request(self, priority)

    def release(self, request: Request) -> Release:
        return Release(self, request)

    # -- internals -------------------------------------------------------
    def _queue_request(self, request: Request) -> None:
        self.total_requests += 1
        self._request_times[request] = self.sim.now
        self.queue.append(request)
        self._grant()

    def _grant(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            # Stable selection: smallest priority first, FIFO within equal.
            best_idx = 0
            for i, req in enumerate(self.queue):
                if req.priority < self.queue[best_idx].priority:
                    best_idx = i
            request = self.queue.pop(best_idx)
            self.users.append(request)
            started = self._request_times.pop(request, self.sim.now)
            self.total_wait_time += self.sim.now - started
            request.succeed(priority=PRIORITY_URGENT)

    def _release(self, request: Request) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(
                f"release of {request!r} which does not hold {self.name!r}"
            ) from None
        self._grant()

    def _cancel(self, request: Request) -> None:
        if request in self.queue:
            self.queue.remove(request)
            self._request_times.pop(request, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Resource {self.name!r} {self.count}/{self.capacity} queued={len(self.queue)}>"


class Mutex(Resource):
    """Capacity-1 resource with a convenience ``locked`` flag."""

    def __init__(self, sim: Simulator, name: str = "mutex"):
        super().__init__(sim, capacity=1, name=name)

    @property
    def locked(self) -> bool:
        return self.count >= 1


class StoreGet(Event):
    """Event that triggers when an (optionally filtered) item is available."""

    __slots__ = ("store", "filter")

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]] = None):
        super().__init__(store.sim, name=store._get_name)
        self.store = store
        self.filter = filter
        store._getters.append(self)
        store._dispatch()


class StorePut(Event):
    """Event that triggers once the store has capacity for the item.

    A put that fits (room, and no earlier put still waiting) is admitted in
    place and born processed: nothing goes on the heap, and ``yield
    store.put(x)`` continues at once.  Only a put that must wait for room
    is scheduled, when a get frees it.
    """

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim, name=store._put_name)
        self.store = store
        self.item = item
        if store._putters or len(store.items) >= store.capacity:
            store._putters.append(self)
        else:
            store._admit(item)
            self._ok = True
            self._value = None
            self.callbacks = None
        store._dispatch()


class Store:
    """A FIFO of items with optional capacity; get/put are events.

    A ``put`` that fits is processed on the spot (see :class:`StorePut`); a
    bounded store's ``put`` blocks until space frees up, and waiting puts
    are admitted in FIFO order.  ``get`` supports an optional filter
    predicate (used by the DSE exchange module to wait for a reply matching
    a request id); getters are woken by URGENT events in FIFO order.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = "store"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._get_name = f"get:{name}"
        self._put_name = f"put:{name}"
        self.items: Deque[Any] = deque()
        self._getters: List[StoreGet] = []
        self._putters: List[StorePut] = []
        self.total_puts = 0
        self.total_gets = 0
        self.peak_occupancy = 0

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        return StoreGet(self, filter)

    def __len__(self) -> int:
        return len(self.items)

    def _admit(self, item: Any) -> None:
        items = self.items
        items.append(item)
        self.total_puts += 1
        if len(items) > self.peak_occupancy:
            self.peak_occupancy = len(items)

    def _dispatch(self) -> None:
        if not self._putters and not (self._getters and self.items):
            return  # nothing to admit and no getter can match
        items = self.items
        getters = self._getters
        putters = self._putters
        while True:
            # Admit pending puts while there is room.
            while putters and len(items) < self.capacity:
                putter = putters.pop(0)
                self._admit(putter.item)
                putter.succeed(priority=PRIORITY_URGENT)
            # Satisfy getters in FIFO order against available items.
            got = False
            i = 0
            while i < len(getters):
                getter = getters[i]
                matched = None
                if getter.filter is None:
                    if items:
                        matched = items.popleft()
                else:
                    for j, item in enumerate(items):
                        if getter.filter(item):
                            matched = item
                            del items[j]
                            break
                if matched is not None:
                    getters.pop(i)
                    self.total_gets += 1
                    getter.succeed(matched, priority=PRIORITY_URGENT)
                    got = True
                else:
                    i += 1
            # Items only shrink during the scan, so a getter that missed
            # keeps missing; another pass can only help once a get has
            # freed room for a waiting put.
            if not (got and putters):
                return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Store {self.name!r} items={len(self.items)} waiting_get={len(self._getters)}>"


class ContainerGet(Event):
    """Event that triggers once the requested amount can be withdrawn."""

    __slots__ = ("container", "amount")

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.sim, name=f"cget:{container.name}")
        self.container = container
        self.amount = amount
        container._getters.append(self)
        container._dispatch()


class Container:
    """A continuous quantity (e.g. a memory pool in bytes).

    ``put`` is immediate; ``get`` blocks until the requested amount is
    available.  Level never exceeds capacity or drops below zero.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "container",
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not (0 <= init <= capacity):
            raise ValueError("init must lie within [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = init
        self._getters: List[ContainerGet] = []

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if self._level + amount > self.capacity + 1e-12:
            raise ValueError(
                f"put of {amount} would exceed capacity {self.capacity} (level={self._level})"
            )
        self._level += amount
        self._dispatch()

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def _dispatch(self) -> None:
        i = 0
        while i < len(self._getters):
            getter = self._getters[i]
            if getter.amount <= self._level + 1e-12:
                self._level -= getter.amount
                self._getters.pop(i)
                getter.succeed(getter.amount, priority=PRIORITY_URGENT)
            else:
                i += 1
