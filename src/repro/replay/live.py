"""Live mode: stream a running simulation's vitals as they happen.

``dse-experiments live`` drives a workload in bounded simulated-time
increments (via :class:`~repro.dse.runtime.LaunchedRun`) and, after each
increment, emits one JSON line — cluster metrics, checkpoint-ring state,
and a span summary — to a JSONL file (tail it with ``tail -f``) and/or to
every TCP client connected to a local port.  The stream is driven purely
by *simulated* time; no wall-clock reads anywhere (the determinism lint
enforces this for the whole package).

Line types:

* ``topology`` — once, first: machines, platforms, kernel placement, fabric
* ``sample``   — per increment: simulated time + ``stats_snapshot()`` +
  span/checkpoint summaries
* ``final``    — once, last: elapsed simulated time and outcome summary
"""

from __future__ import annotations

import json
import socket
from typing import Any, Callable, Dict, List, Optional, TextIO

from ..dse.config import ClusterConfig
from ..dse.runtime import RunResult, launch_parallel
from ..errors import ReplayError

__all__ = ["LiveSink", "live_run"]


class LiveSink:
    """Fan one JSON-line stream out to a file and/or TCP clients.

    The TCP side is strictly non-blocking and best-effort: clients are
    accepted opportunistically at each emit, and a client that stalls or
    disconnects is dropped — a slow consumer must never stall the
    simulation."""

    def __init__(self, path: Optional[str] = None, port: Optional[int] = None):
        self._file: Optional[TextIO] = open(path, "w") if path else None
        self._server: Optional[socket.socket] = None
        self._clients: List[socket.socket] = []
        self.lines = 0
        self.port: Optional[int] = None
        if port is not None:
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind(("127.0.0.1", port))
            server.listen(8)
            server.setblocking(False)
            self._server = server
            self.port = server.getsockname()[1]

    def _accept(self) -> None:
        if self._server is None:
            return
        while True:
            try:
                client, _addr = self._server.accept()
            except (BlockingIOError, OSError):
                return
            client.setblocking(False)
            self._clients.append(client)

    def emit(self, obj: Dict[str, Any]) -> None:
        line = json.dumps(obj, default=repr) + "\n"
        self.lines += 1
        if self._file is not None:
            self._file.write(line)
            self._file.flush()
        self._accept()
        if self._clients:
            payload = line.encode()
            alive = []
            for client in self._clients:
                try:
                    client.sendall(payload)
                    alive.append(client)
                except OSError:
                    client.close()
            self._clients = alive

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        for client in self._clients:
            client.close()
        self._clients = []
        if self._server is not None:
            self._server.close()
            self._server = None


def _span_summary(obs, limit: int = 5) -> Dict[str, Any]:
    counts = {name: agg["count"] for name, agg in obs.totals().items()}
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    return {"total": sum(counts.values()), "dropped": obs.dropped, "top": dict(top)}


def _topology_line(cluster) -> Dict[str, Any]:
    config = cluster.config
    return {
        "type": "topology",
        "machines": [
            {
                "hostname": m.hostname,
                "platform": m.platform.name,
                "kernels": config.kernels_on(idx),
            }
            for idx, m in enumerate(cluster.machines)
        ],
        "n_processors": config.n_processors,
        "fabric": {
            "kind": config.fabric.kind,
            "rate_bps": config.fabric.rate_bps,
        },
        "transport": config.transport,
        "coherence": config.coherence,
        "seed": config.seed,
    }


def live_run(
    config: ClusterConfig,
    worker: Callable,
    args: tuple = (),
    sink: Optional[LiveSink] = None,
    every: float = 0.05,
) -> RunResult:
    """Run ``worker`` SPMD, emitting a sample every ``every`` simulated
    seconds; returns the ordinary :class:`RunResult`.

    The increments advance the same event loop a plain run uses — only the
    observation points differ — so the return values and the elapsed
    simulated time are identical to an unstreamed run of the same config
    (the final clock may rest up to one sample interval past the last
    event, because the last increment's horizon is a deadline).
    """
    if every <= 0:
        raise ReplayError("live sample interval must be positive")
    if sink is None:
        sink = LiveSink()
    launched = launch_parallel(config, worker, args=args)
    cluster = launched.cluster
    sim = cluster.sim
    sink.emit(_topology_line(cluster))
    while not launched.done:
        pending = sim.peek()
        if pending == float("inf"):
            break
        # Advance at least one event horizon: never overshoot past the
        # final event (that would leave the clock beyond the run's end).
        target = max(launched.now + every, pending)
        launched.run_to(target)
        sample: Dict[str, Any] = {
            "type": "sample",
            "time": sim.now,
            "stats": cluster.stats_snapshot(),
            "spans": _span_summary(cluster.obs),
        }
        rec = cluster.replay
        if rec is not None:
            sample["ckpt"] = {
                "commits": rec.commits,
                "retained": len(rec.ring),
                "evictions": rec.ring.evictions,
            }
        sink.emit(sample)
    result = launched.finish()
    sink.emit(
        {
            "type": "final",
            "time": sim.now,
            "elapsed": result.elapsed,
            "sim_events": result.sim_events,
            "ranks": sorted(result.returns),
        }
    )
    return result
