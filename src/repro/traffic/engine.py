"""The traffic engine: open-loop multi-tenant load on an elastic cluster.

One :class:`TrafficEngine` run wires together:

* one arrival :class:`~repro.sim.core.Timer` per tenant, pacing that
  tenant's arrival process from its own RNG substream
  (``trf.arr.<tenant>``) and drawing service sizes from another
  (``trf.svc.<tenant>``) — tenants never share draws, so adding a tenant
  or switching the dispatch policy perturbs nobody else's sample path;
* admission control: a per-tenant :class:`~repro.traffic.tenants.TokenBucket`
  consulted at arrival, before any dispatch draw;
* a dispatch policy (:mod:`repro.traffic.policies`) fanning each admitted
  request out to 1 or ``d`` :class:`~repro.traffic.service.PSServer`
  clones, with cancel-on-first-complete;
* an optional elastic controller resizing the
  :class:`~repro.traffic.service.VirtualCluster` against the offered
  work rate, and an optional crash schedule (reusing the resilience
  layer's :class:`~repro.resilience.campaign.CrashPlan`) with orphaned
  requests *reassigned*, not lost;
* SLO accounting (:mod:`repro.traffic.slo`), ``trf`` stat counters, and
  optional sampled request spans / metrics series through ``repro.obs``.

Requests are **not** simulation processes, and neither are tenants: a
request is a tiny record, its lifecycle driven by the tenant's arrival
timer and the servers' departure timers.  A single-tenant run without
crashes or elasticity processes exactly two events per request (its
arrival and the departure of its first finished clone), and allocates no
timer per event, which is what makes 10^6-request runs routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..obs.metrics import MetricsSampler
from ..obs.spans import SpanRecorder
from ..resilience.campaign import CrashPlan
from ..sim.core import Simulator, Timer
from ..sim.monitor import LazyStat, StatSet
from ..sim.rng import RandomStreams
from ..ssi.endpoints import ServiceDirectory
from .policies import make_policy
from .service import Clone, VirtualCluster
from .slo import SLOTracker
from .tenants import TenantSpec, TokenBucket

__all__ = ["ElasticConfig", "TrafficConfig", "TrafficResult", "TrafficEngine", "run_traffic"]


@dataclass(frozen=True)
class ElasticConfig:
    """Autoscaler settings for the virtual cluster.

    Every ``interval`` simulated seconds the controller computes the
    offered work rate over the last window and resizes the active set to
    ``ceil(rate / (target_util * server_rate))``, clamped to
    [``min_servers``, ``max_servers``].  Purely deterministic — no RNG.
    """

    min_servers: int
    max_servers: int
    interval: float = 10.0
    target_util: float = 0.7

    def __post_init__(self) -> None:
        if self.min_servers < 1:
            raise ConfigurationError(
                f"elastic min_servers must be >= 1, got {self.min_servers}"
            )
        if self.max_servers < self.min_servers:
            raise ConfigurationError(
                f"elastic max_servers ({self.max_servers}) < "
                f"min_servers ({self.min_servers})"
            )
        if self.interval <= 0:
            raise ConfigurationError(
                f"elastic interval must be > 0, got {self.interval}"
            )
        if not 0.0 < self.target_util < 1.0:
            raise ConfigurationError(
                f"elastic target_util must be in (0, 1), got {self.target_util}"
            )


@dataclass(frozen=True)
class TrafficConfig:
    """One traffic run, fully specified (hashable for the result cache)."""

    tenants: Tuple[TenantSpec, ...]
    n_servers: int
    server_rate: float = 1.0
    policy: str = "random"
    seed: int = 0
    elastic: Optional[ElasticConfig] = None
    #: CrashPlan schedule; ``kernel_id`` is the server id (server 0 is the
    #: un-crashable anchor, mirroring the resilience layer's kernel 0)
    crashes: Tuple[CrashPlan, ...] = ()
    obs_trace: bool = False
    #: record one request span per this many admitted requests
    span_sample: int = 1000
    #: metrics sampling cadence in simulated seconds; 0 disables
    metrics_interval: float = 0.0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigurationError("a traffic run needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names: {names}")
        if self.n_servers < 1:
            raise ConfigurationError(
                f"n_servers must be >= 1, got {self.n_servers}"
            )
        if self.server_rate <= 0:
            raise ConfigurationError(
                f"server_rate must be > 0, got {self.server_rate}"
            )
        if self.span_sample < 1:
            raise ConfigurationError(
                f"span_sample must be >= 1, got {self.span_sample}"
            )
        if self.metrics_interval < 0:
            raise ConfigurationError(
                f"metrics_interval must be >= 0, got {self.metrics_interval}"
            )
        make_policy(self.policy)  # fail fast on a bad spelling


class _Request:
    """One in-flight request: tenant, birth time, and its clone set."""

    __slots__ = ("tenant", "t0", "clones", "done", "span")

    def __init__(self, tenant: str, t0: float):
        self.tenant = tenant
        self.t0 = t0
        self.clones: List[Clone] = []
        self.done = False
        self.span = None


@dataclass
class TrafficResult:
    """Everything one run produced, JSON-safe via :meth:`canonical`."""

    config_policy: str
    seed: int
    elapsed: float
    per_tenant: Dict[str, Dict[str, float]]
    overall: Dict[str, float]
    stats: Dict[str, float]
    sim_events: int
    servers_final: int
    utilisation: float
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    spans: Optional[SpanRecorder] = None

    @property
    def mean_response(self) -> float:
        return self.overall.get("mean", 0.0)

    def canonical(self) -> Dict[str, Any]:
        """A deterministic, JSON-safe dict (floats rounded to 9 places).

        Contains only simulated quantities — no wall-clock, no object
        ids — so two runs of the same config compare byte-identical
        after ``json.dumps(..., sort_keys=True)``.
        """
        def walk(value):
            if isinstance(value, float):
                if math.isinf(value) or math.isnan(value):
                    return str(value)
                return round(value, 9)
            if isinstance(value, dict):
                return {str(k): walk(v) for k, v in sorted(value.items())}
            if isinstance(value, (list, tuple)):
                return [walk(v) for v in value]
            return value

        return walk({
            "policy": self.config_policy,
            "seed": self.seed,
            "elapsed": self.elapsed,
            "per_tenant": self.per_tenant,
            "overall": self.overall,
            "stats": self.stats,
            "sim_events": self.sim_events,
            "servers_final": self.servers_final,
            "utilisation": self.utilisation,
        })


class TrafficEngine:
    """Builds and runs one traffic scenario on a fresh simulator."""

    # Hot ``trf`` stats, each looked up once per engine (see LazyStat).
    _c_offered = LazyStat("requests_offered")
    _c_admitted = LazyStat("requests_admitted")
    _c_rejected = LazyStat("requests_rejected")
    _c_cloned = LazyStat("requests_cloned")
    _c_completed = LazyStat("requests_completed")
    _c_dispatched = LazyStat("clones_dispatched")
    _c_cancelled = LazyStat("clones_cancelled")
    _t_work = LazyStat("request_work", kind="tally")
    _t_response = LazyStat("response_time", kind="tally")

    def __init__(self, config: TrafficConfig):
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.stats = StatSet("trf")
        self.directory = ServiceDirectory()
        self.policy = make_policy(config.policy)
        self.cluster = VirtualCluster(
            self.sim,
            config.n_servers,
            rate=config.server_rate,
            service_name="trf",
            directory=self.directory,
            stats=self.stats,
            max_servers=config.elastic.max_servers if config.elastic else None,
            on_complete=self._on_clone_complete,
        )
        if config.elastic and config.elastic.min_servers > config.n_servers:
            raise ConfigurationError(
                "elastic min_servers cannot exceed the starting n_servers"
            )
        if self.policy.n_clones > config.n_servers:
            raise ConfigurationError(
                f"policy {config.policy!r} needs {self.policy.n_clones} servers, "
                f"have {config.n_servers}"
            )
        if config.elastic and self.policy.n_clones > config.elastic.min_servers:
            raise ConfigurationError(
                f"policy {config.policy!r} needs elastic min_servers >= "
                f"{self.policy.n_clones}"
            )
        self.slo = SLOTracker([t.name for t in config.tenants])
        self.buckets: Dict[str, TokenBucket] = {}
        for spec in config.tenants:
            if spec.quota is not None:
                self.buckets[spec.name] = TokenBucket(spec.quota, self.sim.now)
        self._dispatch_rng = self.streams.stream("trf.dispatch")
        self.recorder = SpanRecorder(enabled=config.obs_trace)
        self.sampler: Optional[MetricsSampler] = None
        if config.metrics_interval > 0:
            self.sampler = MetricsSampler(self.sim, config.metrics_interval)
            self.sampler.register("trf.servers_active", lambda: self.cluster.n_active)
            self.sampler.register("trf.outstanding", lambda: float(self._outstanding))
            self.sampler.register("trf.queue_total", lambda: self.cluster.total_queue())
            self.sampler.register_statset("trf", self.stats)
        self._outstanding = 0
        self._tenants_live = 0
        self._admitted = 0
        self._t_done = 0.0
        #: offered work (seconds) since the last elastic window reset
        self._window_work = 0.0

    # -- request lifecycle ----------------------------------------------
    def _on_clone_complete(self, clone: Clone, now: float) -> None:
        request = clone.request
        if request.done:  # pragma: no cover - siblings are cancelled below
            return
        request.done = True
        clones = request.clones
        if len(clones) > 1:
            for sibling in clones:
                if sibling is not clone and sibling.alive and sibling.server is not None:
                    sibling.server.remove(sibling, now)
                    self._c_cancelled.increment()
        latency = now - request.t0
        self.slo.observe(request.tenant, latency)
        self._c_completed.increment()
        self._t_response.observe(latency)
        if request.span is not None:
            self.recorder.end(request.span, now)
        clones.clear()
        self._outstanding -= 1
        if self._outstanding == 0 and self._tenants_live == 0:
            self._t_done = now

    # -- tenants and processes --------------------------------------------
    def _start_tenant(self, spec: TenantSpec) -> None:
        """Arm one tenant's arrival timer.  Each firing offers a request,
        then sets the next gap, as a loop yielding a timeout would, so heap
        ties fall the same way.  The offer path binds its invariants once;
        each ``LazyStat`` is still first touched where it was, so stat keys
        enter ``snapshot()`` and the metrics series at the same moments."""
        name = spec.name
        next_gap = spec.arrivals.gaps(self.streams.stream(f"trf.arr.{name}"))
        svc_rng = self.streams.stream(f"trf.svc.{name}")
        sample = spec.service.sample
        bucket = self.buckets.get(name)
        offered, rejected = self.slo.offered, self.slo.rejected
        select, cluster, dispatch_rng = self.policy.select, self.cluster, self._dispatch_rng
        servers = cluster.servers  # grown in place by the elastic controller
        recorder = self.recorder
        span_sample = self.config.span_sample if recorder.enabled else 0
        sim = self.sim
        left = spec.n_requests

        def arrive(timer: Timer) -> None:
            nonlocal left
            now = sim.now
            self._c_offered.increment()
            offered[name] += 1
            if bucket is not None and not bucket.try_take(now):
                self._c_rejected.increment()
                rejected[name] += 1
            else:
                self._c_admitted.increment()
                self._admitted += 1
                request = _Request(name, now)
                targets = select(cluster, dispatch_rng, now)
                if span_sample and self._admitted % span_sample == 0:
                    request.span = recorder.begin(
                        now, f"trf.request.{name}", "request", pid=targets[0], tid=0,
                    )
                if len(targets) > 1:
                    self._c_cloned.increment()
                clones = request.clones
                for server_id in targets:
                    size = sample(svc_rng)
                    self._t_work.observe(size)
                    self._window_work += size
                    server = servers[server_id]
                    clone = Clone(request, size, server)
                    clones.append(clone)
                    self._c_dispatched.increment()
                    server.admit(clone, now)
                self._outstanding += 1
            left -= 1
            if left:
                timer.set(next_gap())
                return
            self._tenants_live -= 1
            if self._tenants_live == 0 and self._outstanding == 0:
                self._t_done = now

        Timer(sim, arrive, "trf.arrival").set(next_gap())

    def _elastic_proc(self, cfg: ElasticConfig) -> Generator:
        sim = self.sim
        while True:
            yield sim.timeout(cfg.interval, name="trf.elastic")
            if self._tenants_live == 0 and self._outstanding == 0:
                return
            rate = self._window_work / cfg.interval
            self._window_work = 0.0
            desired = math.ceil(
                rate / (cfg.target_util * self.config.server_rate)
            )
            floor = max(cfg.min_servers, self.policy.n_clones)
            desired = max(floor, min(cfg.max_servers, desired))
            current = self.cluster.n_active
            if desired > current:
                self.cluster.grow(desired - current)
            elif desired < current:
                self.cluster.shrink(current - desired)

    def _crash_proc(self) -> Generator:
        sim = self.sim
        for plan in sorted(self.config.crashes, key=lambda p: (p.at, p.kernel_id)):
            if plan.at > sim.now:
                yield sim.timeout(plan.at - sim.now, name="trf.crash")
            lost = self.cluster.crash(plan.kernel_id)
            self._reassign(lost, sim.now)
            if plan.restart_after is not None:
                sim.process(
                    self._restart_proc(plan.kernel_id, plan.restart_after),
                    name="trf.restart",
                )

    def _restart_proc(self, server_id: int, after: float) -> Generator:
        yield self.sim.timeout(after)
        self.cluster.restart(server_id)

    def _reassign(self, lost: List[Clone], now: float) -> None:
        """Re-dispatch requests whose every clone died with the server.

        A lost clone whose request still has a live sibling needs nothing:
        cancel-on-first-complete already treats it as cancelled.  A request
        left with *no* live clone is re-dispatched (same size, uniform
        random placement over the surviving active set) — open requests
        survive a crash campaign; only their latency pays.
        """
        stats = self.stats
        for clone in lost:
            request = clone.request
            if request.done:
                continue
            if any(c.alive for c in request.clones):
                continue
            active = self.cluster.active
            server_id = active[self._dispatch_rng.randrange(len(active))]
            server = self.cluster.servers[server_id]
            replacement = Clone(request, clone.size, server)
            request.clones.append(replacement)
            stats.counter("requests_reassigned").increment()
            self.slo.reassigned[request.tenant] += 1
            server.admit(replacement, now)

    # -- driving ---------------------------------------------------------
    def run(self) -> TrafficResult:
        config = self.config
        sim = self.sim
        self._tenants_live = len(config.tenants)
        for spec in config.tenants:
            self._start_tenant(spec)
        if config.elastic is not None:
            sim.process(self._elastic_proc(config.elastic), name="trf.elastic")
        if config.crashes:
            sim.process(self._crash_proc(), name="trf.crashes")
        if self.sampler is not None:
            self.sampler.start()
        sim.run()
        elapsed = self._t_done if self._t_done > 0 else sim.now
        per_tenant = {
            spec.name: self.slo.tenant_summary(spec.name, elapsed)
            for spec in config.tenants
        }
        overall = self.slo.overall.summary()
        series = {}
        if self.sampler is not None:
            series = {
                name: s.items() for name, s in sorted(self.sampler.series.items())
            }
        return TrafficResult(
            config_policy=config.policy,
            seed=config.seed,
            elapsed=elapsed,
            per_tenant=per_tenant,
            overall=overall,
            stats=self.stats.snapshot(),
            sim_events=sim.events_processed,
            servers_final=self.cluster.n_active,
            utilisation=self.cluster.utilisation(elapsed),
            series=series,
            spans=self.recorder if config.obs_trace else None,
        )


def run_traffic(config: TrafficConfig) -> TrafficResult:
    """Build a fresh engine for ``config``, run it to completion."""
    return TrafficEngine(config).run()
