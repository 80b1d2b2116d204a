"""Tests for the OS model: PS scheduler, processes, signals, sockets."""

import pytest

from repro.errors import OSModelError
from repro.hardware import LINUX_PCAT, NodeSpec, SUNOS_SPARCSTATION, Work
from repro.network import EthernetBus, NIC
from repro.osmodel import (
    Machine,
    ProcessorSharingCPU,
    SIGIO,
    SignalTable,
    SYSCALL_WEIGHTS,
    syscall_cost,
)
from repro.protocol import make_transport
from repro.sim import RandomStreams, Simulator


def make_machine(sim, station=0, platform=LINUX_PCAT, bus=None, transport_kind="datagram"):
    bus = bus or EthernetBus(sim, RandomStreams(3))
    nic = NIC(sim, bus, station)
    transport = make_transport(sim, nic, transport_kind)
    return Machine(sim, NodeSpec(node_id=station, platform=platform), nic, transport), bus


# ------------------------------------------------------- processor sharing
def test_ps_single_job_runs_at_full_rate():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim)

    def proc():
        yield cpu.execute(2.0)
        return sim.now

    assert sim.run(sim.process(proc())) == pytest.approx(2.0)


def test_ps_two_jobs_share_equally():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim)  # no context-switch tax
    ends = []

    def proc():
        yield cpu.execute(1.0)
        ends.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run_all()
    # Both need 1s of work sharing one CPU: each finishes at t=2.
    assert ends == [pytest.approx(2.0), pytest.approx(2.0)]


def test_ps_staggered_arrival():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim)
    ends = {}

    def proc(name, start, demand):
        yield sim.timeout(start)
        yield cpu.execute(demand)
        ends[name] = sim.now

    sim.process(proc("a", 0.0, 2.0))
    sim.process(proc("b", 1.0, 2.0))
    sim.run_all()
    # a runs alone [0,1) completing 1s; shares [1,3) completing 1s more -> ends t=3
    assert ends["a"] == pytest.approx(3.0)
    # b: 1s done at t=3, runs alone after -> ends t=4
    assert ends["b"] == pytest.approx(4.0)


def test_ps_context_switch_tax_slows_timesharing():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, context_switch=0.001, timeslice=0.010)
    ends = []

    def proc():
        yield cpu.execute(1.0)
        ends.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run_all()
    # rate = 1/(2*1.1) each -> 2.2s total
    assert ends[0] == pytest.approx(2.2)


def test_ps_zero_demand_completes_immediately():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim)

    def proc():
        yield cpu.execute(0.0)
        return sim.now

    assert sim.run(sim.process(proc())) == 0.0


def test_ps_negative_demand_rejected():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim)
    with pytest.raises(ValueError):
        cpu.execute(-1.0)


def test_ps_load_and_utilization():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim)

    def proc():
        yield cpu.execute(1.0)

    sim.process(proc())
    sim.process(proc())
    sim.run_all()
    assert cpu.load == 0
    assert cpu.utilization() > 0.9
    assert cpu.average_run_queue() > 1.0


def test_ps_n_sharers_proportional_slowdown():
    """The virtual-cluster effect: n co-located kernels => n-times slower."""

    def elapsed(n):
        sim = Simulator()
        cpu = ProcessorSharingCPU(sim)

        def proc():
            yield cpu.execute(1.0)

        for _ in range(n):
            sim.process(proc())
        sim.run_all()
        return sim.now

    assert elapsed(2) / elapsed(1) == pytest.approx(2.0)
    assert elapsed(4) / elapsed(1) == pytest.approx(4.0)


# ------------------------------------------------------------- syscalls
def test_syscall_cost_weights():
    base = 10e-6
    assert syscall_cost(base, "sendto") == pytest.approx(base * SYSCALL_WEIGHTS["sendto"])
    assert syscall_cost(base, "fork") > syscall_cost(base, "getpid")


def test_syscall_unknown_rejected():
    with pytest.raises(OSModelError):
        syscall_cost(1e-6, "spawn_unicorn")


# ------------------------------------------------------------- signals
def test_signal_table_register_and_deliver():
    table = SignalTable()
    got = []
    table.register(SIGIO, got.append)
    assert table.deliver(SIGIO) is True
    assert got == [SIGIO]
    assert table.delivered[SIGIO] == 1


def test_signal_unregistered_delivery_returns_false():
    table = SignalTable()
    assert table.deliver(SIGIO) is False


def test_signal_unknown_number_rejected():
    table = SignalTable()
    with pytest.raises(OSModelError):
        table.register(99, lambda s: None)
    with pytest.raises(OSModelError):
        table.deliver(99)


# ------------------------------------------------------------- processes
def test_spawn_runs_body_and_records_exit():
    sim = Simulator()
    machine, _ = make_machine(sim)

    def body(proc):
        yield from proc.compute_seconds(0.001)
        return "ret"

    proc = machine.spawn(body, name="worker")
    assert sim.run(proc.sim_process) == "ret"
    assert proc.exited and proc.exit_value == "ret"
    assert machine.stats.counter("process_exits").value == 1


def test_compute_charges_platform_time():
    sim = Simulator()
    machine, _ = make_machine(sim, platform=SUNOS_SPARCSTATION)

    def body(proc):
        yield from proc.compute(Work(flops=1e6))

    proc = machine.spawn(body)
    sim.run(proc.sim_process)
    # 4 MFLOPS SparcStation: 1e6 flops = 0.25s (+ fork/exec noise)
    assert sim.now == pytest.approx(1e6 / (SUNOS_SPARCSTATION.cpu.mflops * 1e6), rel=0.05)


def test_compute_faster_on_faster_platform():
    def run_on(platform):
        sim = Simulator()
        machine, _ = make_machine(sim, platform=platform)

        def body(proc):
            yield from proc.compute(Work(flops=1e6, iops=1e6))

        p = machine.spawn(body)
        sim.run(p.sim_process)
        return sim.now

    assert run_on(LINUX_PCAT) < run_on(SUNOS_SPARCSTATION)


def test_two_processes_share_machine_cpu():
    sim = Simulator()
    machine, _ = make_machine(sim)
    ends = []

    def body(proc):
        yield from proc.compute_seconds(1.0)
        ends.append(sim.now)

    machine.spawn(body)
    machine.spawn(body)
    sim.run_all()
    # Linux ctx tax: rate share < 1/2 -> both end past 2.0
    assert all(e >= 2.0 for e in ends)


def test_process_by_pid():
    sim = Simulator()
    machine, _ = make_machine(sim)

    def body(proc):
        yield from proc.sleep(0)

    p = machine.spawn(body)
    assert machine.process_by_pid(p.pid) is p
    with pytest.raises(OSModelError):
        machine.process_by_pid(99999)


def test_signal_to_exited_process_is_error():
    sim = Simulator()
    machine, _ = make_machine(sim)

    def body(proc):
        yield from proc.sleep(0)

    p = machine.spawn(body)
    sim.run_all()
    with pytest.raises(OSModelError):
        p.raise_signal(SIGIO)


# ------------------------------------------------------------- sockets
def test_socket_send_recv_between_machines():
    sim = Simulator()
    bus = EthernetBus(sim, RandomStreams(3))
    m0, _ = make_machine(sim, 0, bus=bus)
    m1, _ = make_machine(sim, 1, bus=bus)
    result = {}

    def server(proc):
        sock = m1.open_socket(proc, 7000)
        pkt = yield from sock.recv()
        result["payload"] = pkt.payload
        result["at"] = sim.now
        sock.close()

    def client(proc):
        sock = m0.open_socket(proc, 7001)
        yield from sock.sendto(1, 7000, {"hello": True}, 256)
        sock.close()

    m1.spawn(server, "server")
    m0.spawn(client, "client")
    sim.run_all()
    assert result["payload"] == {"hello": True}
    # End-to-end latency must include protocol + wire time: > 100us
    assert result["at"] > 100e-6
    assert m0.stats.counter("msgs_sent").value == 1
    assert m1.stats.counter("msgs_received").value == 1


def _record_bursts(machine):
    """List every CPU demand ``machine`` submits from now on."""
    demands, execute = [], machine.cpu.execute

    def spy(seconds):
        demands.append(seconds)
        return execute(seconds)

    machine.cpu.execute = spy
    return demands


@pytest.mark.parametrize("platform", [LINUX_PCAT, SUNOS_SPARCSTATION])
def test_socket_call_is_one_burst_and_one_syscall(platform):
    """A remote ``sendto`` and a ``recv`` each submit exactly one burst that
    carries the whole charge of the call, summed in the documented order."""
    sim = Simulator()
    bus = EthernetBus(sim, RandomStreams(3))
    m0, _ = make_machine(sim, 0, platform=platform, bus=bus)
    m1, _ = make_machine(sim, 1, platform=platform, bus=bus)
    costs, nbytes = platform.os_costs, 300
    seen = {}

    def call(name, machine, io):
        syscalls = machine.stats.counter("syscalls").value
        demands = _record_bursts(machine)
        yield from io
        seen[name] = demands, machine.stats.counter("syscalls").value - syscalls

    def server(proc):
        sock = m1.open_socket(proc, 7000)
        yield from call("recv", m1, sock.recv())

    def client(proc):
        sock = m0.open_socket(proc, 7001)
        yield from call("send", m0, sock.sendto(1, 7000, "x", nbytes))

    m1.spawn(server)
    m0.spawn(client)
    sim.run_all()
    protocol = costs.protocol_per_byte * nbytes
    send = syscall_cost(costs.syscall, "sendto") + costs.protocol_per_message + protocol
    recv = (
        costs.signal_delivery + costs.context_switch
        + syscall_cost(costs.syscall, "recvfrom") + costs.protocol_per_message + protocol
    )
    assert seen["send"] == ([send], 1)  # exact: one burst, one sum, one syscall
    assert seen["recv"] == ([recv], 1)


def test_socket_latency_higher_on_slow_platform():
    def rtt(platform):
        sim = Simulator()
        bus = EthernetBus(sim, RandomStreams(3))
        m0, _ = make_machine(sim, 0, platform=platform, bus=bus)
        m1, _ = make_machine(sim, 1, platform=platform, bus=bus)
        done = {}

        def server(proc):
            sock = m1.open_socket(proc, 70)
            pkt = yield from sock.recv()
            yield from sock.sendto(0, 71, "pong", 64)
            sock.close()

        def client(proc):
            sock = m0.open_socket(proc, 71)
            start = sim.now
            yield from sock.sendto(1, 70, "ping", 64)
            yield from sock.recv()
            done["rtt"] = sim.now - start
            sock.close()

        m1.spawn(server)
        m0.spawn(client)
        sim.run_all()
        return done["rtt"]

    assert rtt(SUNOS_SPARCSTATION) > rtt(LINUX_PCAT)


def test_socket_closed_rejects_io():
    sim = Simulator()
    machine, _ = make_machine(sim)
    errors = []

    def body(proc):
        sock = machine.open_socket(proc, 5)
        sock.close()
        try:
            yield from sock.sendto(0, 5, "x", 1)
        except OSModelError as e:
            errors.append(e)

    machine.spawn(body)
    sim.run_all()
    assert errors


def test_socket_foreign_process_rejected():
    sim = Simulator()
    bus = EthernetBus(sim, RandomStreams(3))
    m0, _ = make_machine(sim, 0, bus=bus)
    m1, _ = make_machine(sim, 1, bus=bus)

    def body(proc):
        with pytest.raises(OSModelError):
            m1.open_socket(proc, 5)
        yield from proc.sleep(0)

    m0.spawn(body)
    sim.run_all()


def test_machine_load_average_reflects_sharing():
    sim = Simulator()
    machine, _ = make_machine(sim)

    def body(proc):
        yield from proc.compute_seconds(0.5)

    machine.spawn(body)
    machine.spawn(body)
    machine.spawn(body)
    sim.run_all()
    assert machine.load_average() > 2.0
