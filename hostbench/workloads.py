"""The benchmark's workloads: inputs, one operation, its checks and counts.

Every workload drives ``repro`` through its public entry points by direct
calls (``run_parallel``, ``TrafficEngine``, ``run_cluster_traffic``); the
sweep runner and its on-disk result cache are never used.  An operation's
inputs come only from ``(seed, index)``; :meth:`Workload.check` compares
its output with a reference computed independently, after the timed
region; :meth:`Workload.counts` reads simulated counters from the public
result objects; :meth:`Workload.fingerprint` hashes every simulated
output, so equal inputs must give equal fingerprints.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.apps.dct2 import dct2_image_seq, dct2_worker, make_image
from repro.apps.gauss_seidel import gauss_seidel_seq, gauss_seidel_worker, make_system
from repro.apps.knights_tour import count_tours_seq, knights_tour_worker, knights_tour_workload
from repro.apps.othello import BLACK, best_move_seq, midgame_board, othello_worker, othello_workload
from repro.dse import ClusterConfig, run_parallel
from repro.dse.runtime import RunResult
from repro.hardware import get_platform
from repro.network.topology import FabricConfig
from repro.traffic import Pareto, PoissonArrivals, TenantSpec, TrafficConfig, TrafficEngine
from repro.traffic import cluster_backend
from repro.traffic.analytic import expected_ordering, random_dispatch_mean_response

__all__ = ["WORKLOADS", "Workload", "op_seed", "block_gauss_seidel"]


def op_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` of a run started with ``seed``."""
    digest = hashlib.sha256(f"hostbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def block_gauss_seidel(
    a: np.ndarray, b: np.ndarray, bounds: List[Tuple[int, int]], sweeps: int
) -> np.ndarray:
    """Block Gauss-Seidel: each row block sweeps its own rows in order
    against the previous sweep's values of every other block.  With a
    single block this is plain Gauss-Seidel."""
    diag = np.diag(a)
    x = np.zeros(len(b))
    for _ in range(sweeps):
        nxt = x.copy()
        for lo, hi in bounds:
            cur = x.copy()
            for i in range(lo, hi):
                cur[i] = (b[i] - (a[i] @ cur - diag[i] * cur[i])) / diag[i]
            nxt[lo:hi] = cur[lo:hi]
        x = nxt
    return x


class _Hasher:
    """sha256 over simulated outputs: floats exactly, arrays by bytes."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, value: Any) -> None:
        if isinstance(value, np.ndarray):
            self._h.update(np.ascontiguousarray(value, dtype=float).tobytes())
        elif isinstance(value, dict):
            for key in sorted(value, key=str):
                self._h.update(str(key).encode())
                self.add(value[key])
        elif isinstance(value, (list, tuple)):
            for item in value:
                self.add(item)
        elif isinstance(value, float):
            self._h.update(value.hex().encode())
        else:
            self._h.update(json.dumps(value).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _run_counts(results: List[RunResult]) -> Dict[str, float]:
    """Simulated counters of DSE runs, summed (run-queue length averaged)."""
    out: Dict[str, float] = {
        "sim.events": 0, "sim.cancelled": 0, "osmodel.bursts": 0,
        "dse.msgs": 0, "dse.gm_remote_reads": 0, "dse.gm_remote_writes": 0,
        "dse.gm_batch_flushes": 0, "network.frames": 0, "network.bytes": 0,
        "network.collisions": 0, "protocol.retransmissions": 0,
        "protocol.timeouts": 0,
    }
    runq: List[float] = []
    for res in results:
        stats, cluster = res.stats, res.cluster
        out["sim.events"] += res.sim_events
        out["sim.cancelled"] += cluster.sim.events_cancelled
        for machine in cluster.machines:
            out["osmodel.bursts"] += machine.cpu.stats.counter("bursts").value
            runq.append(machine.cpu.average_run_queue())
        out["dse.msgs"] += stats["msgs_sent"]
        out["dse.gm_remote_reads"] += stats["gm.remote_reads"]
        out["dse.gm_remote_writes"] += stats["gm.remote_writes"]
        out["dse.gm_batch_flushes"] += stats["gm.batch_flushes"]
        out["network.frames"] += stats["net.frames_sent"]
        out["network.bytes"] += stats["net.bytes_sent"]
        out["network.collisions"] += stats["net.collisions"]
        out["protocol.retransmissions"] += stats["net.retransmissions"]
        out["protocol.timeouts"] += stats["net.timeouts"]
    out["osmodel.runq_avg"] = sum(runq) / len(runq) if runq else 0.0
    return out


def _check_gs(res: RunResult, n: int, sweeps: int, gs_seed: int) -> List[str]:
    """Every rank holds the same x, equal to the independent reference."""
    a, b = make_system(n, gs_seed)
    outs = [res.returns[r] for r in sorted(res.returns)]
    bounds = [tuple(out["rows"]) for out in outs]
    errors = []
    if bounds[0][0] != 0 or bounds[-1][1] != n or any(
        p[1] != q[0] for p, q in zip(bounds, bounds[1:])
    ):
        errors.append(f"gs n={n}: row blocks {bounds} do not tile [0, {n})")
        return errors
    if len(bounds) == 1:
        want, _ = gauss_seidel_seq(a, b, sweeps)
    else:
        want = block_gauss_seidel(a, b, bounds, sweeps)
    for rank, out in enumerate(outs):
        if not np.allclose(out["x"], want, rtol=0.0, atol=1e-10):
            err = float(np.max(np.abs(out["x"] - want)))
            errors.append(f"gs n={n} p={len(outs)} rank {rank}: |x - ref| = {err:.3g}")
    return errors


class Workload:
    """One benchmark workload; subclasses fill in the four hooks."""

    name = ""

    def run(self, seed: int) -> Any:
        """One operation (the timed part)."""
        raise NotImplementedError

    def check(self, out: Any, seed: int) -> List[str]:
        """Failures of ``out`` against the independent references."""
        raise NotImplementedError

    def counts(self, out: Any) -> Dict[str, float]:
        """Simulated counters of ``out`` (per-layer work done)."""
        raise NotImplementedError

    def fingerprint(self, out: Any) -> str:
        raise NotImplementedError


class PaperBus(Workload):
    """The paper's four applications on its SunOS CSMA/CD bus cluster."""

    name = "paper_bus"
    PROCS = (1, 2, 4, 6, 8, 12)
    MACHINES = 6
    GS = (300, 10)  # order, sweeps
    DCT = (128, 4, 0.25)  # image side, block side, kept fraction
    OTHELLO_DEPTH = 5
    KT_JOBS = 128

    def __init__(self) -> None:
        self.platform = get_platform("sunos")

    def _apps(self, seed: int) -> List[Tuple[str, Callable, tuple]]:
        n, sweeps = self.GS
        size, block, keep = self.DCT
        return [
            ("gs", gauss_seidel_worker, (n, sweeps, seed, True)),
            ("dct", dct2_worker, (size, block, keep, seed, True)),
            ("othello", othello_worker, (self.OTHELLO_DEPTH,)),
            ("kt", knights_tour_worker, (self.KT_JOBS,)),
        ]

    def run(self, seed: int) -> Dict[Tuple[str, int], RunResult]:
        # The Othello and Knight's Tour job lists are memoised per process;
        # every operation builds them afresh, as one figure run would, also
        # the traced one that follows an untraced one in the same process.
        othello_workload.cache_clear()
        knights_tour_workload.cache_clear()
        out = {}
        for app, worker, args in self._apps(seed):
            for p in self.PROCS:
                config = ClusterConfig(
                    platform=self.platform,
                    n_processors=p,
                    n_machines=1 if p == 1 else self.MACHINES,
                    seed=seed,
                )
                out[(app, p)] = run_parallel(config, worker, args=args)
        return out

    def check(self, out: Dict[Tuple[str, int], RunResult], seed: int) -> List[str]:
        errors: List[str] = []
        apps = {app: args for app, _, args in self._apps(seed)}
        n, sweeps, gs_seed, _ = apps["gs"]
        size, block, keep, img_seed, _ = apps["dct"]
        want_coeffs = dct2_image_seq(make_image(size, img_seed), block, keep)
        want_move, want_value, _ = _othello_reference(self.OTHELLO_DEPTH)
        want_tours, _ = _tours_reference()
        for p in self.PROCS:
            errors += _check_gs(out[("gs", p)], n, sweeps, gs_seed)
            coeffs = out[("dct", p)].returns[0]["coeffs"]
            if not np.allclose(coeffs, want_coeffs, rtol=0.0, atol=1e-9):
                errors.append(f"dct p={p}: coefficients differ from dct2_image_seq")
            master = out[("othello", p)].returns[0]
            if (master["value"], master["best_move"]) != (want_value, want_move):
                errors.append(
                    f"othello p={p}: ({master['value']}, {master['best_move']}) "
                    f"!= best_move_seq ({want_value}, {want_move})"
                )
            tours = out[("kt", p)].returns[0]["tours"]
            if tours != want_tours:
                errors.append(f"knights tour p={p}: {tours} tours != {want_tours}")
        return errors

    def counts(self, out: Dict[Tuple[str, int], RunResult]) -> Dict[str, float]:
        return _run_counts([out[key] for key in sorted(out)])

    def fingerprint(self, out: Dict[Tuple[str, int], RunResult]) -> str:
        h = _Hasher()
        for key in sorted(out):
            res = out[key]
            h.add([key[0], key[1], res.elapsed, res.sim_events, res.stats, res.returns])
        return h.hexdigest()


@lru_cache(maxsize=None)
def _othello_reference(depth: int) -> Tuple[Any, int, int]:
    return best_move_seq(midgame_board(), BLACK, depth)


@lru_cache(maxsize=None)
def _tours_reference() -> Tuple[int, int]:
    return count_tours_seq()


class ScaleSwitch(Workload):
    """Gauss-Seidel on 64 nodes over the switched fabric with batching."""

    name = "scale_switch"
    NODES = 64
    GS = (256, 2)

    def __init__(self) -> None:
        self.platform = get_platform("linux")

    def run(self, seed: int) -> RunResult:
        config = ClusterConfig(
            platform=self.platform,
            n_processors=self.NODES,
            n_machines=self.NODES,
            fabric=FabricConfig(kind="switch"),
            gmem_batching=True,
            seed=seed,
        )
        n, sweeps = self.GS
        return run_parallel(config, gauss_seidel_worker, args=(n, sweeps, seed, True))

    def check(self, out: RunResult, seed: int) -> List[str]:
        n, sweeps = self.GS
        return _check_gs(out, n, sweeps, seed)

    def counts(self, out: RunResult) -> Dict[str, float]:
        return _run_counts([out])

    def fingerprint(self, out: RunResult) -> str:
        h = _Hasher()
        h.add([out.elapsed, out.sim_events, out.stats, out.returns])
        return h.hexdigest()


def _conservation(stats: Dict[str, float], offered: int, label: str) -> List[str]:
    got = {k: int(stats.get(k, 0)) for k in (
        "requests_offered", "requests_admitted", "requests_rejected", "requests_completed")}
    if not (
        got["requests_offered"] == offered
        and got["requests_admitted"] + got["requests_rejected"] == offered
        and got["requests_completed"] == got["requests_admitted"]
    ):
        return [f"{label}: request conservation broken: {got} (offered {offered})"]
    return []


class TrafficSweep(Workload):
    """10^5-request open-loop sweep over three dispatch policies."""

    name = "traffic_sweep"
    POLICIES = ("random", "jsq", "clone-2")
    N_SERVERS = 8
    RHO = 0.7
    REQUESTS = 100_000
    #: allowed |simulated - analytic| / analytic for random dispatch.
    #: Pareto(1.5) service has infinite variance, so a 10^5-request mean
    #: converges slowly (-12%..+7% over 20 seeds, one seed at +22%).
    MEAN_TOLERANCE = 0.35

    def __init__(self) -> None:
        self.service = Pareto(alpha=1.5, mean=1.0)
        self.rate = self.RHO * self.N_SERVERS / self.service.mean

    def run(self, seed: int) -> Dict[str, Tuple[Any, int]]:
        out = {}
        for policy in self.POLICIES:
            config = TrafficConfig(
                tenants=(TenantSpec("sweep", PoissonArrivals(self.rate), self.service,
                                    self.REQUESTS),),
                n_servers=self.N_SERVERS,
                policy=policy,
                seed=seed,
            )
            engine = TrafficEngine(config)
            result = engine.run()
            out[policy] = (result, engine.sim.events_cancelled)
        return out

    def check(self, out: Dict[str, Tuple[Any, int]], seed: int) -> List[str]:
        errors: List[str] = []
        for policy, (result, _) in out.items():
            errors += _conservation(result.stats, self.REQUESTS, policy)
            if result.overall["count"] != self.REQUESTS:
                errors.append(f"{policy}: {result.overall['count']} latencies recorded")
        want = random_dispatch_mean_response(self.service, self.rate, self.N_SERVERS)
        got = out["random"][0].overall["mean"]
        if abs(got - want) > self.MEAN_TOLERANCE * want:
            errors.append(f"random: mean response {got:.4f} vs M/G/1-PS {want:.4f}")
        winner = expected_ordering(self.service, self.rate, self.N_SERVERS, 2)
        clone, rand = out["clone-2"][0].overall["mean"], got
        if winner == "clone" and not clone < rand:
            errors.append(f"clone-2 mean {clone:.4f} not below random {rand:.4f}")
        return errors

    def counts(self, out: Dict[str, Tuple[Any, int]]) -> Dict[str, float]:
        counts = {"sim.events": 0, "sim.cancelled": 0, "traffic.requests": 0,
                  "traffic.clones_cancelled": 0, "traffic.clones_dispatched": 0}
        for result, cancelled in out.values():
            counts["sim.events"] += result.sim_events
            counts["sim.cancelled"] += cancelled
            counts["traffic.requests"] += result.stats["requests_offered"]
            counts["traffic.clones_cancelled"] += result.stats.get("clones_cancelled", 0)
            counts["traffic.clones_dispatched"] += result.stats["clones_dispatched"]
        return counts

    def fingerprint(self, out: Dict[str, Tuple[Any, int]]) -> str:
        h = _Hasher()
        for policy in sorted(out):
            result, cancelled = out[policy]
            h.add([policy, result.canonical(), cancelled])
        return h.hexdigest()


@contextlib.contextmanager
def _capture_runs() -> Iterator[List[Any]]:
    """Collect the launched run behind ``run_cluster_traffic``, whose
    return value is a latency summary without the cluster's counters."""
    launched: List[Any] = []
    original = cluster_backend.launch_master

    def launch(*args: Any, **kwargs: Any) -> Any:
        run = original(*args, **kwargs)
        launched.append(run)
        return run

    cluster_backend.launch_master = launch
    try:
        yield launched
    finally:
        cluster_backend.launch_master = original


class ClusterRequests(Workload):
    """Open-loop requests through real DSE kernels over a lossy link."""

    name = "cluster_requests"
    KERNELS = 8
    REQUESTS = 3000
    PARAMS = dict(placement="rr", transport="sr", payload_words=64, p_enter_bad=0.02)

    def run(self, seed: int) -> Tuple[Dict[str, Any], RunResult]:
        with _capture_runs() as launched:
            summary = cluster_backend.run_cluster_traffic(
                n_kernels=self.KERNELS, n_requests=self.REQUESTS, seed=seed, **self.PARAMS
            )
        return summary, launched[0].finish()

    def check(self, out: Tuple[Dict[str, Any], RunResult], seed: int) -> List[str]:
        summary, result = out
        errors = []
        # Offered = admitted (the stream admits every arrival) = completed.
        if summary["count"] != self.REQUESTS or result.returns[0] != self.REQUESTS:
            errors.append(
                f"{summary['count']} latencies / {result.returns[0]} completions "
                f"for {self.REQUESTS} offered requests"
            )
        if summary["sim_events"] != result.sim_events:
            errors.append("summary and run disagree on simulated events")
        return errors

    def counts(self, out: Tuple[Dict[str, Any], RunResult]) -> Dict[str, float]:
        summary, result = out
        counts = _run_counts([result])
        counts["traffic.requests"] = summary["count"]
        return counts

    def fingerprint(self, out: Tuple[Dict[str, Any], RunResult]) -> str:
        summary, result = out
        h = _Hasher()
        h.add([summary, result.elapsed, result.sim_events, result.stats])
        return h.hexdigest()


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (PaperBus, ScaleSwitch, TrafficSweep, ClusterRequests)
}
