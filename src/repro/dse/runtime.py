"""High-level runners: SPMD and master/worker execution on a DSE cluster.

``run_parallel`` is the one-call entry point the applications and the
experiment harness use: build the cluster, run one DSE process per kernel
(SPMD), collect return values, tear the kernels down, and report elapsed
*simulated* time plus the explanatory statistics.

``launch_master`` / ``launch_parallel`` expose the same runs *undrained*:
a :class:`LaunchedRun` holds the wired cluster with the driver process
scheduled but the event loop not yet run, so a caller can advance
simulated time incrementally (``run_to``, ``step``) and inspect the live
cluster between advances.  This is the seek engine of the time-travel
debugger (:mod:`repro.replay`); ``run_master``/``run_parallel`` are the
drain-to-completion wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

from ..errors import DSEError
from ..sim.core import Event
from .api import ParallelAPI
from .cluster import Cluster
from .config import ClusterConfig

__all__ = [
    "RunResult",
    "LaunchedRun",
    "launch_master",
    "launch_parallel",
    "run_parallel",
    "run_master",
]


@dataclass
class RunResult:
    """Outcome of one parallel run."""

    elapsed: float  # simulated seconds, master start -> all workers done
    returns: Dict[int, Any]  # rank -> return value
    stats: Dict[str, float] = field(default_factory=dict)
    sim_events: int = 0
    config: Optional[ClusterConfig] = None
    #: the (finished) cluster, for post-mortem inspection/profiling
    cluster: Optional[Cluster] = None

    @property
    def master_return(self) -> Any:
        return self.returns.get(0)


class LaunchedRun:
    """A master-driven parallel run that has not consumed its event queue.

    The cluster is fully built and the driver process is scheduled; nothing
    has executed yet (``now`` equals the cluster's start time).  Drive it
    with :meth:`run_to` / :meth:`step`, or drain it with :meth:`finish`,
    which returns the same :class:`RunResult` the one-shot runners do.
    """

    def __init__(
        self,
        config: ClusterConfig,
        master: Callable[..., Generator],
        args: tuple = (),
        start_time: float = 0.0,
        unwrap_spmd: bool = False,
    ):
        self.config = config
        self.cluster = Cluster(config, start_time=start_time)
        self._unwrap_spmd = unwrap_spmd
        self._outcome: Dict[str, Any] = {}
        rec = self.cluster.replay
        outcome = self._outcome
        cluster = self.cluster

        def driver() -> Generator[Event, Any, None]:
            api = ParallelAPI(cluster.kernel(0), 0)
            start = api.now
            if rec is not None:
                rec.note(
                    "run.start",
                    {"master": getattr(master, "__name__", "master")},
                )
            value = yield from master(api, *args)
            outcome["elapsed"] = api.now - start
            outcome["returns"] = {0: value}
            if rec is not None:
                rec.note("run.done", {"elapsed": outcome["elapsed"]})
            yield from cluster.shutdown_from(0)

        cluster.sim.process(driver(), name="dse-master")

    # -- state ---------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.cluster.sim.now

    @property
    def done(self) -> bool:
        """Has the master completed (return values are available)?"""
        return "returns" in self._outcome

    # -- incremental driving -------------------------------------------------
    def run_to(self, until: float) -> float:
        """Advance simulated time to ``until`` (inclusive); returns ``now``.

        Events stamped exactly ``until`` are processed, so the state seen
        afterwards is "after everything at or before ``until``"."""
        self.cluster.sim.run(until=until)
        return self.cluster.sim.now

    def step(self, n: int = 1) -> int:
        """Process up to ``n`` events; returns how many actually ran."""
        sim = self.cluster.sim
        done = 0
        for _ in range(n):
            if sim.peek() == float("inf"):
                break
            sim.step()
            done += 1
        return done

    # -- completion ----------------------------------------------------------
    def finish(self) -> RunResult:
        """Drain the remaining events and build the run's result."""
        cluster = self.cluster
        cluster.sim.run_all()
        # End-of-run sanitizer analyses (stuck barriers, stalled lock
        # waiters) run on success AND on drain — a hung run is exactly when
        # they matter.
        sanitizer = cluster.sanitizer
        if sanitizer.enabled:
            sanitizer.finalize(cluster.sim.now)
        if "returns" not in self._outcome:
            detail = "master did not complete (deadlock or early drain)"
            if sanitizer.enabled and not sanitizer.report.clean:
                detail = f"{detail}\n{sanitizer.report.format()}"
            error = DSEError(detail)
            error.cluster = cluster  # post-mortem inspection (reports, stats)
            raise error
        returns = self._outcome["returns"]
        if self._unwrap_spmd:
            returns = returns[0]
        return RunResult(
            elapsed=self._outcome["elapsed"],
            returns=returns,
            stats=cluster.stats_snapshot(),
            sim_events=cluster.sim.events_processed,
            config=self.config,
            cluster=cluster,
        )


def launch_master(
    config: ClusterConfig,
    master: Callable[[ParallelAPI], Generator],
    args: tuple = (),
    start_time: float = 0.0,
) -> LaunchedRun:
    """Schedule ``master(api, *args)`` on kernel 0 without running anything.

    The master is responsible for spawning workers itself (via
    ``api.spawn_workers``); its return value appears as rank 0's.
    """
    return LaunchedRun(config, master, args, start_time=start_time)


def _spmd_master(
    worker: Callable[..., Generator],
    args: tuple,
    args_of: Optional[Callable[[int], tuple]],
) -> Callable[[ParallelAPI], Generator]:
    def master(api: ParallelAPI) -> Generator[Event, Any, Dict[int, Any]]:
        handles = yield from api.spawn_workers(
            worker, args_of=args_of if args_of else (lambda rank: args)
        )
        my_value = yield from worker(api, *(args_of(0) if args_of else args))
        results = yield from api.wait_workers(handles)
        results[0] = my_value
        return results

    master.__name__ = getattr(worker, "__name__", "worker")
    return master


def launch_parallel(
    config: ClusterConfig,
    worker: Callable[..., Generator],
    args: tuple = (),
    args_of: Optional[Callable[[int], tuple]] = None,
    start_time: float = 0.0,
) -> LaunchedRun:
    """SPMD :func:`launch_master`: ``worker(api, *args)`` on every kernel."""
    return LaunchedRun(
        config,
        _spmd_master(worker, args, args_of),
        start_time=start_time,
        unwrap_spmd=True,
    )


def run_master(
    config: ClusterConfig,
    master: Callable[[ParallelAPI], Generator],
    args: tuple = (),
) -> RunResult:
    """Run ``master(api, *args)`` as the parallel application on kernel 0."""
    return launch_master(config, master, args).finish()


def run_parallel(
    config: ClusterConfig,
    worker: Callable[..., Generator],
    args: tuple = (),
    args_of: Optional[Callable[[int], tuple]] = None,
) -> RunResult:
    """SPMD execution: ``worker(api, *args)`` runs once on every kernel.

    ``args_of(rank)`` overrides ``args`` per rank when given.  Returns the
    per-rank return values and cluster statistics.
    """
    return launch_parallel(config, worker, args, args_of).finish()
