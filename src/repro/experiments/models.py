"""Closed-form performance models, validated against the simulator.

Back-of-envelope models of the bulk-synchronous applications from first
principles — the same platform constants the simulator charges, combined
analytically instead of event by event.  The model-vs-simulation tests
keep both honest: if a refactor of the runtime changes behaviour in a way
the physics does not justify, the validation bench catches it.

Model shape for one bulk-synchronous phase on ``p`` processors over ``M``
machines:

* compute: ``C/p``, inflated by the virtual-cluster co-location factor
  (``ceil(p/M)`` kernels share a CPU, with the context-switch tax);
* communication: each worker performs its round trips (fixed per-message
  CPU cost + per-byte protocol cost + wire time), while the shared bus
  serialises the *total* byte volume — the phase cannot beat the bus;
* synchronisation: one barrier round trip per phase.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from ..dse.messages import HEADER_BYTES, WORD_BYTES
from ..hardware.platform import PlatformSpec
from ..osmodel.syscall import SYSCALL_WEIGHTS

__all__ = ["message_cost", "barrier_cost", "predict_gauss_seidel", "colocation_factor"]


def colocation_factor(p: int, machines: int, platform: PlatformSpec) -> float:
    """Slowdown of compute when kernels double up (processor sharing)."""
    used = min(p, machines)
    per_machine = math.ceil(p / used)
    if per_machine <= 1:
        return 1.0
    tax = 1.0 + platform.os_costs.context_switch / platform.os_costs.timeslice
    return per_machine * tax


def message_cost(
    platform: PlatformSpec, payload_bytes: int, rate_bps: float = 10e6
) -> float:
    """End-to-end time of one request/response round trip carrying
    ``payload_bytes`` of data one way (headers folded in approximately)."""
    costs = platform.os_costs
    per_msg_cpu = (
        costs.syscall * (SYSCALL_WEIGHTS["sendto"] + SYSCALL_WEIGHTS["recvfrom"])
        + 2 * costs.protocol_per_message
        + costs.signal_delivery
        + costs.context_switch
    )
    data = payload_bytes + HEADER_BYTES
    # Request (header only) + response (header + data) on the wire.
    wire = (2 * (HEADER_BYTES + 54) + data) * 8 / rate_bps
    byte_cpu = 2 * costs.protocol_per_byte * data
    return 2 * per_msg_cpu + byte_cpu + wire


def barrier_cost(platform: PlatformSpec, p: int, rate_bps: float = 10e6) -> float:
    """A p-party barrier: p request/response pairs through kernel 0,
    serialised at the coordinator's CPU and the bus."""
    if p <= 1:
        return 0.0
    return p * message_cost(platform, 0, rate_bps) * 0.6  # replies overlap


def predict_gauss_seidel(
    platform: PlatformSpec,
    n: int,
    sweeps: int,
    procs: Sequence[int],
    machines: int = 6,
    rate_bps: float = 10e6,
) -> Dict[int, float]:
    """Predicted execution time of the parallel block Gauss-Seidel."""
    cpu = platform.cpu
    # One sweep of the full system (flops + streamed memory traffic).
    sweep_compute = (2.0 * n * n + n) / (cpu.mflops * 1e6) + (n * n) / (
        cpu.mmemops * 1e6
    )
    out: Dict[int, float] = {}
    for p in procs:
        if p == 1:
            out[p] = sweeps * sweep_compute
            continue
        compute = sweep_compute / p * colocation_factor(p, machines, platform)
        # Each worker reads p-1 remote blocks of ~n/p words per sweep.
        block_bytes = (n / p) * WORD_BYTES
        per_worker_comm = (p - 1) * message_cost(platform, block_bytes, rate_bps)
        # The shared bus serialises the total volume: p workers x (p-1) blocks.
        bus = p * (p - 1) * (block_bytes + HEADER_BYTES + 54) * 8 / rate_bps
        comm = max(per_worker_comm, bus)
        # Two barriers per sweep: one separating the gather from the
        # writes (race-freedom, see gauss_seidel_worker) and the
        # end-of-sweep barrier.
        out[p] = sweeps * (
            compute + comm + 2 * barrier_cost(platform, p, rate_bps)
        )
    return out
