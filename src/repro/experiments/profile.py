"""Post-mortem run profiling: where the time and the messages went.

The paper explains its curves via overheads — system calls, protocol
processing, communication frequency, machine load, bus collisions.  This
module turns a finished :class:`~repro.dse.runtime.RunResult` into the
per-kernel / per-machine / fabric breakdown that makes those explanations
visible for *any* workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..dse.runtime import RunResult
from ..errors import ConfigurationError
from ..util.tables import Table

__all__ = ["RunProfile", "profile_result"]


@dataclass
class RunProfile:
    """Structured breakdown of one run."""

    elapsed: float
    kernels: List[Dict[str, float]] = field(default_factory=list)
    machines: List[Dict[str, float]] = field(default_factory=list)
    fabric: Dict[str, float] = field(default_factory=dict)
    #: span name -> (count, total seconds), from the cross-layer causal
    #: trace (empty unless the run had ClusterConfig(obs_trace=True))
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: engine cost of the run: events dispatched by the event loop
    events_processed: int = 0
    #: events lazily cancelled (superseded timers) and never dispatched
    events_cancelled: int = 0

    # -- aggregates ---------------------------------------------------------
    @property
    def total_remote_requests(self) -> float:
        return sum(k["requests_sent"] for k in self.kernels)

    @property
    def total_local_calls(self) -> float:
        return sum(k["local_calls"] for k in self.kernels)

    @property
    def locality_ratio(self) -> float:
        """Fraction of DSE operations resolved without leaving the node."""
        total = self.total_remote_requests + self.total_local_calls
        return self.total_local_calls / total if total else 1.0

    def render(self) -> str:
        parts = []
        kt = Table(
            ["kernel", "host", "reqs_out", "local", "served", "gm_remote", "gm_local", "bytes_out"],
            title=f"per-kernel profile (elapsed {self.elapsed:.4g}s)",
        )
        for k in self.kernels:
            kt.add(
                f"k{int(k['kernel_id'])}",
                k["hostname"],
                k["requests_sent"],
                k["local_calls"],
                k["requests_served"],
                k["gm_remote"],
                k["gm_local"],
                k["bytes_out"],
            )
        parts.append(kt.render())
        mt = Table(
            ["machine", "cpu_util", "loadavg", "msgs_out", "msgs_in", "syscalls"],
            title="per-machine profile",
        )
        for m in self.machines:
            mt.add(
                m["hostname"],
                round(m["cpu_utilization"], 3),
                round(m["load_average"], 2),
                m["msgs_sent"],
                m["msgs_received"],
                m["syscalls"],
            )
        parts.append(mt.render())
        ft = Table(["fabric counter", "value"], title="fabric")
        for key, value in self.fabric.items():
            ft.add(key, value)
        parts.append(ft.render())
        if self.spans:
            st = Table(["span", "count", "total (s)"], title="causal spans")
            for name, agg in sorted(
                self.spans.items(), key=lambda kv: -kv[1]["total"]
            ):
                st.add(name, int(agg["count"]), f"{agg['total']:.6g}")
            parts.append(st.render())
        parts.append(
            f"engine: {self.events_processed} events processed, "
            f"{self.events_cancelled} lazily cancelled"
        )
        return "\n\n".join(parts)


def profile_result(result: RunResult) -> RunProfile:
    """Build a :class:`RunProfile` from a finished run (needs the cluster)."""
    cluster = result.cluster
    if cluster is None:
        raise ConfigurationError(
            "profile_result needs RunResult.cluster (produced by run_master/run_parallel)"
        )
    profile = RunProfile(
        elapsed=result.elapsed,
        events_processed=cluster.sim.events_processed,
        events_cancelled=cluster.sim.events_cancelled,
    )
    for kernel in cluster.kernels:
        ex, gm = kernel.exchange.stats, kernel.gmem.stats
        profile.kernels.append(
            {
                "kernel_id": kernel.kernel_id,
                "hostname": kernel.machine.hostname,
                "requests_sent": ex.counter("requests_sent").value,
                "local_calls": ex.counter("local_calls").value,
                "requests_served": kernel.stats.counter("requests_served").value,
                "gm_remote": gm.counter("remote_reads").value
                + gm.counter("remote_writes").value,
                "gm_local": gm.counter("local_reads").value
                + gm.counter("local_writes").value,
                "bytes_out": ex.counter("bytes_out").value,
            }
        )
    now = cluster.sim.now
    for machine in cluster.machines:
        profile.machines.append(
            {
                "hostname": machine.hostname,
                "cpu_utilization": machine.cpu.utilization(),
                "load_average": machine.load_average(),
                "msgs_sent": machine.stats.counter("msgs_sent").value,
                "msgs_received": machine.stats.counter("msgs_received").value,
                "syscalls": machine.stats.counter("syscalls").value,
            }
        )
    fabric = cluster.network.fabric
    profile.fabric = {
        "frames_sent": fabric.stats.counter("frames_sent").value,
        "frames_delivered": fabric.stats.counter("frames_delivered").value,
        "collisions": fabric.stats.counter("collisions").value,
        "bytes_sent": fabric.stats.counter("bytes_sent").value,
        "utilization": getattr(fabric, "utilization", None).average(now)
        if hasattr(fabric, "utilization")
        else 0.0,
    }
    for span in cluster.obs.spans:
        agg = profile.spans.setdefault(span.name, {"count": 0, "total": 0.0})
        agg["count"] += 1
        agg["total"] += span.duration
    return profile
