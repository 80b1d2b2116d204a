"""Full-stack traffic mode: requests as real DSE processes on the cluster.

The engine in :mod:`repro.traffic.engine` abstracts servers as PS queues
so it can push 10^6 requests; this module is the complementary
*small-scale, full-stack* mode: every request is a real DSE process
invoked over the configured transport (datagram / reliable / sr / dual)
through the real NIC, fabric, and OS model — so transport-level effects
(Gilbert–Elliott burst loss, retransmission storms, dual-channel
separation) show up in request latency and goodput.

Two entry points:

* :func:`run_cluster_traffic` — a Poisson request stream paced by the
  master on kernel 0, dispatched open-loop through
  :class:`repro.dse.taskfarm.FarmStream` with round-robin or SSI
  least-loaded placement, optional burst loss armed on every NIC.
  Backs the ``sr`` vs ``dual`` burst-loss comparison in EXPERIMENTS.md.
* :func:`run_resilient_traffic` — the same request population pushed
  through the crash-tolerant ``farm_dynamic`` under a scripted
  :class:`~repro.resilience.campaign.FaultCampaign`, proving requests
  survive kernel crashes via retry/reassignment (requires the datagram
  transport, as all resilience runs do).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence

from ..dse.config import ClusterConfig
from ..dse.runtime import launch_master
from ..dse.taskfarm import FarmStream, farm_dynamic
from ..errors import ConfigurationError
from ..network.faults import BurstLossConfig, LossInjector
from ..resilience.campaign import CrashPlan, FaultCampaign
from ..resilience.config import ResilienceConfig
from ..sim.rng import RandomStreams
from ..ssi.remote_exec import pick_least_loaded
from .arrivals import make_arrivals, make_service
from .slo import LatencyHistogram

__all__ = ["run_cluster_traffic", "run_resilient_traffic"]


def _request_task(api, size: float) -> Generator:
    """One request: burn ``size`` seconds of CPU, report the finish time."""
    yield from api.compute_seconds(size)
    return api.now


def _request_task_payload(api, job) -> Generator:
    """A request with bulk data: fetch the payload from global memory,
    compute, write the result back.

    The GM read/write pairs are what a dual-channel transport routes
    over its *unreliable* lane (idempotent, app-level retry), while the
    invoke/complete RPCs stay on the reliable lane — so this task shape
    is what makes ``sr`` vs ``dual`` observable at the request level.
    """
    size, addr, nwords = job
    payload = yield from api.gm_read(addr, nwords)
    yield from api.compute_seconds(size)
    yield from api.gm_write(addr, payload)
    return api.now


def _summarise(arrived: List[float], finished: List[float],
               done_at: float) -> Dict[str, float]:
    hist = LatencyHistogram()
    for t0, t1 in zip(arrived, finished):
        hist.observe(t1 - t0)
    out = hist.summary()
    out["elapsed"] = done_at
    out["goodput_rps"] = len(finished) / done_at if done_at > 0 else 0.0
    return out


def run_cluster_traffic(
    n_kernels: int = 4,
    n_requests: int = 200,
    arrival_rate: float = 40.0,
    mean_service: float = 0.05,
    arrivals: str = "poisson",
    service: str = "exp",
    placement: str = "rr",
    transport: str = "datagram",
    p_enter_bad: float = 0.0,
    p_exit_bad: float = 0.25,
    payload_words: int = 0,
    seed: int = 1999,
) -> Dict[str, float]:
    """One open-loop request stream through the real cluster stack.

    The master on kernel 0 paces arrivals with ``api.sleep``, dispatches
    each request the moment it arrives (``FarmStream``), and drains at
    the end; request latency is finish time minus arrival time, so it
    includes invoke/completion RPCs over the (possibly lossy) fabric.
    ``placement`` is ``"rr"`` or ``"least-loaded"`` (the SSI view).

    With ``payload_words > 0`` every request also moves that much global
    memory (read on entry, write-back on exit) — the bulk-data class a
    ``dual`` transport carries on its unreliable lane.
    """
    if placement not in ("rr", "least-loaded"):
        raise ConfigurationError(
            f"placement must be 'rr' or 'least-loaded', got {placement!r}"
        )
    arrival_model = make_arrivals(arrivals, arrival_rate)
    service_model = make_service(service, mean_service)
    outcome: Dict[str, Any] = {}

    def master(api) -> Generator:
        streams = RandomStreams(seed)
        next_gap = arrival_model.gaps(streams.stream("trf.cb.arr"))
        svc_rng = streams.stream("trf.cb.svc")
        addr = 0
        if payload_words:
            addr = yield from api.gm_alloc(payload_words)
            task = _request_task_payload
        else:
            task = _request_task
        stream = FarmStream(api, task)
        arrived: List[float] = []
        for i in range(n_requests):
            yield from api.sleep(next_gap())
            size = service_model.sample(svc_rng)
            if placement == "least-loaded":
                target = pick_least_loaded(api)
            else:
                target = i % api.size
            arrived.append(api.now)
            item = (size, addr, payload_words) if payload_words else size
            yield from stream.dispatch(item, target)
        finished = yield from stream.drain()
        outcome["arrived"] = arrived
        outcome["finished"] = finished
        outcome["done_at"] = api.now
        return len(finished)

    config = ClusterConfig(
        n_processors=n_kernels,
        n_machines=n_kernels,
        transport=transport,
        seed=seed,
    )
    run = launch_master(config, master)
    if p_enter_bad > 0.0:
        burst = BurstLossConfig(p_enter_bad=p_enter_bad, p_exit_bad=p_exit_bad)
        for m in range(n_kernels):
            LossInjector(
                run.cluster.sim, run.cluster.network.nic(m),
                run.cluster.rng, burst=burst,
            ).arm()
    result = run.finish()
    summary = _summarise(outcome["arrived"], outcome["finished"], outcome["done_at"])
    summary["sim_events"] = result.sim_events
    summary["transport"] = transport
    return summary


def run_resilient_traffic(
    n_kernels: int = 4,
    n_requests: int = 120,
    arrival_rate: float = 30.0,
    mean_service: float = 0.05,
    crash_times: Sequence[float] = (0.2,),
    crash_victims: Optional[Sequence[int]] = None,
    restart_after: float = 0.3,
    seed: int = 1999,
) -> Dict[str, float]:
    """The crash-campaign variant: every request completes despite crashes.

    Requests are dispatched through the resilience-aware ``farm_dynamic``
    while a :class:`FaultCampaign` kills kernels mid-run; lost requests
    are retried on surviving kernels.  Returns the latency summary plus
    the farm's retry/waste accounting — the traffic-layer proof of the
    "requests survive crash campaigns via reassignment" claim.
    """
    victims = list(crash_victims) if crash_victims is not None else [
        1 + (i % max(1, n_kernels - 1)) for i in range(len(list(crash_times)))
    ]
    plans = [
        CrashPlan(kernel_id=victim, at=at, restart_after=restart_after)
        for victim, at in zip(victims, crash_times)
    ]
    arrival_model = make_arrivals("poisson", arrival_rate)
    service_model = make_service("exp", mean_service)
    outcome: Dict[str, Any] = {}

    def master(api) -> Generator:
        streams = RandomStreams(seed)
        next_gap = arrival_model.gaps(streams.stream("trf.cb.arr"))
        svc_rng = streams.stream("trf.cb.svc")
        sizes: List[float] = []
        start = api.now
        for _ in range(n_requests):
            sizes.append(service_model.sample(svc_rng))
        # farm_dynamic is closed-loop, so this mode trades open-loop
        # pacing for crash-tolerant dispatch: the fair comparison is
        # completion, not latency-under-load.
        finished = yield from farm_dynamic(api, _request_task, sizes)
        outcome["start"] = start
        outcome["finished"] = list(finished)
        outcome["attempts"] = finished.attempts
        outcome["retries"] = finished.retries
        outcome["wasted"] = finished.wasted_seconds
        outcome["done_at"] = api.now
        return len(finished)

    config = ClusterConfig(
        n_processors=n_kernels,
        n_machines=n_kernels,
        transport="datagram",
        seed=seed,
        resilience=ResilienceConfig(),
    )
    run = launch_master(config, master)
    campaign = FaultCampaign(crashes=plans)
    campaign.arm(run.cluster)
    result = run.finish()
    done_at = outcome["done_at"]
    completed = [f for f in outcome["finished"] if f is not None]
    return {
        "completed": len(completed),
        "retries": outcome["retries"],
        "wasted_seconds": outcome["wasted"],
        "elapsed": done_at,
        "goodput_rps": len(completed) / done_at if done_at > 0 else 0.0,
        "sim_events": result.sim_events,
    }
