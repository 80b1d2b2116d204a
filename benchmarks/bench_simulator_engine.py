"""Engine benchmarks: the raw throughput of the simulation substrate.

Unlike the figure benches (which measure *simulated* time), these measure
real wall-clock throughput of the discrete-event engine — the number the
next person extending the simulator cares about.
"""

import pytest

from repro.dse import ClusterConfig, run_parallel
from repro.hardware import get_platform
from repro.network import EthernetBus, EthernetFrame
from repro.osmodel import ProcessorSharingCPU
from repro.sim import RandomStreams, Simulator


def test_engine_timeout_throughput(benchmark):
    """Bare event-loop speed: a chain of timeouts."""

    def run():
        sim = Simulator()

        def ticker():
            for _ in range(20_000):
                yield sim.timeout(0.001)

        sim.process(ticker())
        sim.run_all()
        return sim.events_processed

    events = benchmark(run)
    assert events >= 20_000


def test_processor_sharing_churn(benchmark):
    """PS CPU with constant arrivals/departures (the scheduler hot path)."""

    def run():
        sim = Simulator()
        cpu = ProcessorSharingCPU(sim, context_switch=25e-6)

        def burst(duration):
            yield cpu.execute(duration)

        for i in range(2_000):
            sim.process(burst(0.001 + (i % 7) * 0.0003))
        sim.run_all()
        return cpu.stats.counter("completed").value

    completed = benchmark(run)
    assert completed == 2_000


def test_bus_contention_throughput(benchmark):
    """CSMA/CD arbitration under 8-station contention."""

    def run():
        sim = Simulator()
        bus = EthernetBus(sim, RandomStreams(3))
        for i in range(8):
            bus.attach(i, lambda f: None)

        def chatter(src, k=0):
            if k < 100:
                bus.transmit(
                    EthernetFrame(src=src, dst=(src + 1) % 8, payload=k, payload_bytes=128),
                    lambda _status: chatter(src, k + 1),
                )

        for i in range(8):
            chatter(i)
        sim.run_all()
        return bus.stats.counter("frames_sent").value

    frames = benchmark(run)
    assert frames == 800


def test_full_stack_run_wall_clock(benchmark):
    """A representative full-stack parallel run (cluster build + app +
    teardown): the end-to-end cost of one experiment point."""

    def worker(api):
        yield from api.gm_write(api.rank * 8, [1.0] * 8)
        yield from api.barrier("a")
        yield from api.gm_read(0, 8 * api.size)
        yield from api.barrier("b")
        return True

    def run():
        res = run_parallel(
            ClusterConfig(platform=get_platform("sunos"), n_processors=6), worker
        )
        return res.sim_events

    events = benchmark(run)
    assert events > 100
