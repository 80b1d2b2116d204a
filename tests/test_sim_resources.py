"""Unit tests for Resource / Store / Container / Mutex."""

import pytest

from repro.sim import Container, Mutex, Resource, Simulator, Store


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    holders = []

    def user(name):
        req = res.request()
        yield req
        holders.append((sim.now, name))
        yield sim.timeout(10)
        res.release(req)

    for n in "abc":
        sim.process(user(n))
    sim.run_all()
    # a and b at t=0, c only after a release at t=10
    assert holders == [(0.0, "a"), (0.0, "b"), (10.0, "c")]


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(name, arrive):
        yield sim.timeout(arrive)
        req = res.request()
        yield req
        order.append(name)
        yield sim.timeout(5)
        res.release(req)

    sim.process(user("first", 0))
    sim.process(user("second", 1))
    sim.process(user("third", 2))
    sim.run_all()
    assert order == ["first", "second", "third"]


def test_resource_priority_preempts_queue_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(10)
        res.release(req)

    def user(name, arrive, prio):
        yield sim.timeout(arrive)
        req = res.request(priority=prio)
        yield req
        order.append(name)
        res.release(req)

    sim.process(holder())
    sim.process(user("low", 1, 5))
    sim.process(user("high", 2, 0))
    sim.run_all()
    assert order == ["high", "low"]


def test_resource_release_unheld_is_error():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def proc():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # second release must fail

    sim.process(proc())
    with pytest.raises(RuntimeError):
        sim.run_all()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_wait_statistics():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(4)
        res.release(req)

    def waiter():
        req = res.request()
        yield req
        res.release(req)

    sim.process(holder())
    sim.process(waiter())
    sim.run_all()
    assert res.total_requests == 2
    assert res.total_wait_time == pytest.approx(4.0)


def test_request_cancel():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    got = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5)
        res.release(req)

    def impatient():
        req = res.request()
        yield sim.timeout(1)
        req.cancel()
        got.append("gave-up")

    def patient():
        yield sim.timeout(0.5)
        req = res.request()
        yield req
        got.append(("got-it", sim.now))
        res.release(req)

    sim.process(holder())
    sim.process(impatient())
    sim.process(patient())
    sim.run_all()
    # The cancelled request must not absorb the grant at t=5.
    assert ("got-it", 5.0) in got


def test_mutex_locked_flag():
    sim = Simulator()
    m = Mutex(sim)
    states = []

    def proc():
        req = m.request()
        yield req
        states.append(m.locked)
        m.release(req)
        yield sim.timeout(0)
        states.append(m.locked)

    sim.process(proc())
    sim.run_all()
    assert states == [True, False]


# ---------------------------------------------------------------- Store
def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run_all()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (item, sim.now)

    def producer():
        yield sim.timeout(7)
        yield store.put("x")

    p = sim.process(consumer())
    sim.process(producer())
    assert sim.run(p) == ("x", 7.0)


def test_store_bounded_put_blocks():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("a", sim.now))
        yield store.put("b")
        log.append(("b", sim.now))

    def consumer():
        yield sim.timeout(5)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run_all()
    assert log == [("a", 0.0), ("b", 5.0)]


def test_store_filtered_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get(filter=lambda x: x % 2 == 0)
        got.append(item)

    def producer():
        yield store.put(1)
        yield store.put(3)
        yield store.put(4)

    sim.process(consumer())
    sim.process(producer())
    sim.run_all()
    assert got == [4]
    assert list(store.items) == [1, 3]


def test_store_multiple_filtered_getters():
    sim = Simulator()
    store = Store(sim)
    got = {}

    def consumer(key):
        item = yield store.get(filter=lambda x, k=key: x[0] == k)
        got[key] = item

    sim.process(consumer("a"))
    sim.process(consumer("b"))

    def producer():
        yield sim.timeout(1)
        yield store.put(("b", 2))
        yield store.put(("a", 1))

    sim.process(producer())
    sim.run_all()
    assert got == {"a": ("a", 1), "b": ("b", 2)}


def test_store_stats():
    sim = Simulator()
    store = Store(sim)

    def proc():
        yield store.put(1)
        yield store.put(2)
        yield store.get()

    sim.process(proc())
    sim.run_all()
    assert store.total_puts == 2
    assert store.total_gets == 1
    assert store.peak_occupancy == 2


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


# ---------------------------------------------------------------- Container
def test_container_get_blocks_for_level():
    sim = Simulator()
    c = Container(sim, capacity=100, init=0)

    def consumer():
        yield c.get(30)
        return sim.now

    def producer():
        yield sim.timeout(2)
        c.put(10)
        yield sim.timeout(2)
        c.put(25)

    p = sim.process(consumer())
    sim.process(producer())
    assert sim.run(p) == 4.0
    assert c.level == pytest.approx(5.0)


def test_container_put_over_capacity_rejected():
    sim = Simulator()
    c = Container(sim, capacity=10, init=5)
    with pytest.raises(ValueError):
        c.put(6)


def test_container_init_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Container(sim, capacity=10, init=11)


def test_store_put_that_fits_pushes_nothing_onto_the_heap():
    sim = Simulator()
    store = Store(sim, capacity=2)
    put = store.put("a")
    assert put.processed and put.ok and put.value is None
    assert sim.peek() == float("inf")
    assert list(store.items) == ["a"] and store.total_puts == 1

    # A waiting getter is still woken by one event, and the put is not.
    got = []

    def consumer():
        got.append((yield store.get()))
        got.append((yield store.get()))

    def producer():
        yield sim.timeout(1)
        yield store.put("b")
        got.append(("put continued", sim.now))

    sim.process(consumer())
    sim.process(producer())
    sim.run_all()
    assert got == ["a", ("put continued", 1.0), "b"]
    # 2 Initialize, the timeout, 2 getter wake-ups, 2 process ends
    assert sim.events_processed == 7


def test_bounded_store_admits_waiting_puts_in_fifo_order():
    sim = Simulator()
    store = Store(sim, capacity=1)
    puts = [store.put(item) for item in "abc"]
    assert [p.processed for p in puts] == [True, False, False]
    admitted = []
    for p in puts[1:]:
        p.callbacks.append(lambda ev: admitted.append((ev.item, sim.now)))
    # Room for "d" frees up only behind the waiting puts.
    late = store.put("d")
    assert not late.processed
    late.callbacks.append(lambda ev: admitted.append((ev.item, sim.now)))

    def consumer():
        for _ in range(4):
            yield sim.timeout(1)
            yield store.get()

    sim.process(consumer())
    sim.run_all()
    assert admitted == [("b", 1.0), ("c", 2.0), ("d", 3.0)]
    assert store.total_puts == 4 and store.total_gets == 4 and not store.items
