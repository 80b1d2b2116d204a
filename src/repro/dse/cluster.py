"""Cluster construction: machines, network, kernels, routing.

A :class:`Cluster` assembles the full simulated system from a
:class:`ClusterConfig` and owns the cross-cutting lookups (kernel routes,
rank placement, SSI information requests).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..errors import ConfigurationError
from ..hardware.node import NodeSpec
from ..osmodel.machine import Machine
from ..protocol.transport import make_transport
from ..sim.core import Event, Simulator
from ..sim.rng import RandomStreams
from ..network.topology import build_network
from .config import ClusterConfig
from .exchange import DSE_BASE_PORT
from .gmem import GlobalMemoryManager
from .kernel import DSEKernel
from .messages import DSEMessage

__all__ = ["Cluster"]


class Cluster:
    """One fully wired simulated DSE cluster."""

    def __init__(self, config: ClusterConfig, start_time: float = 0.0):
        # ``start_time`` restarts the simulated clock mid-history: the
        # replay debugger's snapshot-restore path builds a fresh cluster
        # whose clock begins at the checkpoint's commit time.
        self.config = config
        self.sim = Simulator(start_time=start_time)
        self.rng = RandomStreams(config.seed)
        from ..obs import MetricsSampler, SpanRecorder
        from ..sim.monitor import StatSet

        #: cross-layer span recorder; every layer below captures it from
        #: ``sim.obs`` at construction time, so it must exist before any
        #: network/machine component is built.
        self.obs = SpanRecorder(enabled=config.obs_trace, limit=config.obs_span_limit)
        self.sim.obs = self.obs
        #: dynamic sanitizers (race/deadlock detection; repro.sanitize).
        #: Must exist before the kernels — gmem and sync capture it at
        #: construction time.
        from ..sanitize import Sanitizer

        self.sanitizer = Sanitizer(
            modes=config.sanitize_modes,
            world=config.n_processors,
            block_words=config.block_words,
            obs=self.obs,
        )
        #: resilience manager (None when config.resilience is None).  Must
        #: exist before the kernels — exchange/gmem/sync/kernel capture the
        #: reference at construction time (the ``is not None`` pattern).
        self.resilience = None
        if config.resilience is not None:
            from ..resilience.manager import ResilienceManager

            self.resilience = ResilienceManager(self, config.resilience)
        #: checkpoint observability (size / write latency / ring churn);
        #: always present so hook sites need no existence checks
        self.ckpt_stats = StatSet("ckpt")
        #: record/replay recorder (None when config.replay is None).  Must
        #: exist before the kernels — gmem and kernel capture the reference
        #: at construction time (the ``is not None`` pattern).
        self.replay = None
        if config.replay is not None:
            from ..replay.recorder import ReplayRecorder

            self.replay = ReplayRecorder(self, config.replay)

        n_machines = config.machines_used
        self.network = build_network(self.sim, self.rng, n_machines, config.fabric)
        self.machines: List[Machine] = []
        for m in range(n_machines):
            nic = self.network.nic(m)
            transport = make_transport(self.sim, nic, config.transport)
            node = NodeSpec(node_id=m, platform=config.platform_of_machine(m))
            self.machines.append(Machine(self.sim, node, nic, transport))

        self.kernels: List[DSEKernel] = [
            DSEKernel(k, self.machines[config.machine_of(k)], self)
            for k in range(config.n_processors)
        ]
        # Full routing mesh: every kernel can reach every kernel.
        for a in self.kernels:
            for b in self.kernels:
                a.exchange.add_route(
                    b.kernel_id, b.machine.station_id, DSE_BASE_PORT + b.kernel_id
                )

        if self.resilience is not None:
            # Kernels and routes exist: install the RES_* services, the
            # heartbeat agents, and the monitor.
            self.resilience.wire()

        #: periodic StatSet/gauge sampler (None unless configured)
        self.metrics: Optional[MetricsSampler] = None
        if config.obs_metrics_interval > 0:
            self.metrics = MetricsSampler(self.sim, config.obs_metrics_interval)
            self._register_metrics_sources(self.metrics)
            self.metrics.start()

    def _register_metrics_sources(self, sampler) -> None:
        """Wire the explanatory levels + every subsystem StatSet."""
        fabric = self.network.fabric
        if self.sanitizer.enabled:
            sampler.register_statset("san", self.sanitizer.stats)
        if self.resilience is not None:
            sampler.register_statset("res", self.resilience.stats)
        if self.resilience is not None or self.replay is not None:
            sampler.register_statset("ckpt", self.ckpt_stats)
        if hasattr(fabric, "utilization"):
            sampler.register("bus.utilization", lambda: fabric.utilization.level)
        if hasattr(fabric, "collision_rate"):
            sampler.register("bus.collision_rate", fabric.collision_rate)
        sampler.register_statset("bus", fabric.stats)
        for machine in self.machines:
            host = machine.hostname
            cpu = machine.cpu
            sampler.register(f"{host}.run_queue", lambda c=cpu: c.run_queue.level)
            sampler.register(f"{host}.nic.tx_depth", lambda n=machine.nic: len(n.tx_queue))
            sampler.register_statset(host, machine.stats)
            sampler.register_statset(f"{host}.nic", machine.nic.stats)
            tstats = getattr(machine.transport, "stats", None)
            if tstats is not None:
                # Reliable/SR/dual transports: retransmissions, timeouts,
                # cwnd floor hits, SACKs... under ``<host>.tp``.
                sampler.register_statset(f"{host}.tp", tstats)
        for kernel in self.kernels:
            gm = kernel.gmem.stats
            sampler.register_statset(f"k{kernel.kernel_id}.gmem", gm)
            sampler.register_statset(f"k{kernel.kernel_id}.exchange", kernel.exchange.stats)

            def hit_ratio(stats=gm):
                local = stats.counter("local_reads").value
                remote = stats.counter("remote_reads").value
                # Under the caching policy "hits" replaces "local_reads".
                local += stats.counter("hits").value
                total = local + remote + stats.counter("misses").value
                return local / total if total else 1.0

            sampler.register(f"k{kernel.kernel_id}.gmem.hit_ratio", hit_ratio)

    # -- lookups ------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.config.n_processors

    def kernel(self, kernel_id: int) -> DSEKernel:
        try:
            return self.kernels[kernel_id]
        except IndexError:
            raise ConfigurationError(f"no kernel {kernel_id}") from None

    def placement(self, rank: int) -> int:
        """Kernel that runs DSE process ``rank`` (identity by default; the
        SSI layer installs smarter policies through this hook)."""
        if not (0 <= rank < self.size):
            raise ConfigurationError(f"rank {rank} out of range 0..{self.size - 1}")
        return rank

    def make_gmem(self, kernel: DSEKernel) -> GlobalMemoryManager:
        """Build the kernel's global-memory manager per the config policy."""
        if self.config.coherence == "home":
            return GlobalMemoryManager(
                kernel, self.config.total_gm_words, self.config.block_words
            )
        from .coherence import CachingGlobalMemory

        return CachingGlobalMemory(
            kernel, self.config.total_gm_words, self.config.block_words
        )

    # -- SSI support -----------------------------------------------------------
    def ssi_info_response(self, kernel: DSEKernel, msg: DSEMessage) -> DSEMessage:
        """Answer a cluster-information request (served by any kernel)."""
        info = {
            "hostname": kernel.machine.hostname,
            "kernel_id": kernel.kernel_id,
            "platform": kernel.machine.platform.name,
            "load_average": kernel.machine.load_average(),
            "live_processes": len(kernel.machine.live_processes),
        }
        return msg.make_response(data=info, extra_bytes=128)

    # -- teardown ----------------------------------------------------------
    def shutdown_from(self, kernel_id: int = 0) -> Generator[Event, Any, None]:
        """Stop every kernel's service loop (drive from a DSE process)."""
        origin = self.kernel(kernel_id)
        # Drain the origin's combined writes while every home still serves.
        yield from origin.gmem.flush()
        for k in range(self.size):
            if self.resilience is not None and not self.resilience.usable(k):
                continue  # crashed (and never restarted): nothing to stop
            yield from origin.request_shutdown_of(k)

    # -- aggregate statistics ---------------------------------------------------
    def stats_snapshot(self) -> Dict[str, float]:
        """Cluster-wide counters the experiment reports cite."""
        out: Dict[str, float] = {}
        fabric = self.network.fabric
        out["net.frames_sent"] = fabric.stats.counter("frames_sent").value
        out["net.collisions"] = fabric.stats.counter("collisions").value
        out["net.bytes_sent"] = fabric.stats.counter("bytes_sent").value
        out["net.collision_rate"] = fabric.collision_rate()
        out["msgs_sent"] = sum(
            m.stats.counter("msgs_sent").value for m in self.machines
        )
        # Transport-level health (zero for the plain datagram transport,
        # which keeps no such counters): how hard reliability had to work.
        transport_stats = [
            m.transport.stats
            for m in self.machines
            if getattr(m.transport, "stats", None) is not None
        ]
        for key in (
            "retransmissions",
            "timeouts",
            "fast_retransmits",
            "partial_ack_retransmits",
            "cwnd_floor_hits",
            "duplicates_dropped",
            "out_of_order_buffered",
            "unreliable_sent",
        ):
            out[f"net.{key}"] = float(
                sum(st.counter(key).value for st in transport_stats)
            )
        out["gm.remote_reads"] = sum(
            k.gmem.stats.counter("remote_reads").value for k in self.kernels
        )
        out["gm.remote_writes"] = sum(
            k.gmem.stats.counter("remote_writes").value for k in self.kernels
        )
        out["gm.local_reads"] = sum(
            k.gmem.stats.counter("local_reads").value for k in self.kernels
        )
        out["gm.local_writes"] = sum(
            k.gmem.stats.counter("local_writes").value for k in self.kernels
        )
        out["gm.combined_reads"] = sum(
            k.gmem.stats.counter("combined_reads").value for k in self.kernels
        )
        out["gm.batch_flushes"] = sum(
            k.gmem.stats.counter("batch_flushes").value for k in self.kernels
        )
        out["gm.batched_runs"] = sum(
            k.gmem.stats.counter("batched_runs").value for k in self.kernels
        )
        out["max_load_average"] = max(m.load_average() for m in self.machines)
        if self.sanitizer.enabled:
            san = self.sanitizer.stats
            for key in (
                "races",
                "lock_cycles",
                "barrier_faults",
                "lock_stalls",
                "accesses_checked",
                "sync_ops",
            ):
                out[f"san.{key}"] = san.counter(key).value
        if self.resilience is not None:
            res = self.resilience.stats
            for key in (
                "crashes",
                "restarts",
                "suspicions",
                "suspicions_cleared",
                "deaths",
                "joins",
                "heartbeats",
                "checkpoints",
                "rollbacks",
                "tasks_lost",
                "rpc_aborts",
                "locks_revoked",
                "barriers_reconfigured",
            ):
                out[f"res.{key}"] = res.counter(key).value
        if self.resilience is not None or self.replay is not None:
            ckpt = self.ckpt_stats
            out["ckpt.snapshots"] = ckpt.counter("snapshots").value
            out["ckpt.commits"] = ckpt.counter("commits").value
            out["ckpt.bytes"] = ckpt.tally("snapshot_bytes").total
        if self.replay is not None:
            out["ckpt.ring_retained"] = len(self.replay.ring)
            out["ckpt.ring_evictions"] = self.replay.ring.evictions
        return out
