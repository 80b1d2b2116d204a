"""The recording artifact: what a recorded run leaves behind.

A :class:`Recording` bundles everything the debugger needs to time-travel:

* the exact :class:`~repro.dse.config.ClusterConfig` (runs are pure
  functions of it — this *is* the replay's source of truth),
* the workload identity (:class:`WorkloadSpec`), so a manifest loaded in a
  fresh process can re-launch the same application,
* the checkpoint ring's retained slots and the full waypoint history,
* the event-log tail, the recorded spans, and the final outcome
  (simulated end time, elapsed, and a fingerprint of the return values).

Recordings round-trip through a JSON manifest (:meth:`Recording.save` /
:meth:`Recording.load`): float timestamps survive exactly (JSON uses
``repr``-faithful shortest-roundtrip formatting) and snapshot arrays are
base64 of their raw float64 bytes.
"""

from __future__ import annotations

import base64
import hashlib
import importlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..dse.config import ClusterConfig
from ..dse.runtime import RunResult, run_parallel
from ..errors import ReplayError
from ..network.topology import FabricConfig
from .config import ReplayConfig
from .ring import RingSlot

__all__ = [
    "WorkloadSpec",
    "ReplayAnchor",
    "Recording",
    "record",
    "fingerprint_returns",
]

_MANIFEST_FORMAT = "repro-replay-1"


# -- final-state fingerprinting ---------------------------------------------
def _feed(h, value: Any) -> None:
    if isinstance(value, np.ndarray):
        h.update(b"nd")
        h.update(repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value, key=repr):
            h.update(repr(key).encode())
            h.update(b"=")
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(value).encode())


def fingerprint_returns(value: Any) -> str:
    """sha256 over a run's return values (ndarray-aware, order-stable)."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


# -- workload identity -------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Importable identity of the recorded application.

    ``ck_style`` marks the resilient-workload calling convention
    ``worker(api, ck, *args)`` — the recorder's snapshot-restore path can
    only fast-jump workloads that know how to resume from a checkpoint
    state, exactly like :func:`repro.resilience.runner.run_resilient`.
    """

    module: str
    attr: str
    args: tuple = ()
    ck_style: bool = False
    label: str = ""

    def resolve(self) -> Callable:
        mod = importlib.import_module(self.module)
        try:
            return getattr(mod, self.attr)
        except AttributeError:
            raise ReplayError(
                f"workload {self.module}.{self.attr} not found"
            ) from None

    def make_entry(self, ck: Any = None) -> Callable:
        """The SPMD entry for this workload, binding ``ck`` when ck-style."""
        fn = self.resolve()
        if not self.ck_style:
            return fn

        def entry(api, *args):
            return (yield from fn(api, ck, *args))

        entry.__name__ = getattr(fn, "__name__", self.attr)
        return entry


@dataclass(frozen=True)
class ReplayAnchor:
    """Where a span lives in replay coordinates: (snapshot, offset)."""

    span_id: int
    name: str
    time: float               #: the span's start in simulated seconds
    slot_seq: Optional[int]   #: nearest retained snapshot at or before it
    offset: float             #: seconds from that snapshot to the span


# -- config (de)serialisation -------------------------------------------------
def config_to_dict(config: ClusterConfig) -> dict:
    from ..resilience.config import ResilienceConfig  # noqa: F401 (doc link)

    return {
        "platform": config.platform.name,
        "platforms": (
            [p.name for p in config.platforms]
            if config.platforms is not None
            else None
        ),
        "n_processors": config.n_processors,
        "n_machines": config.n_machines,
        "fabric": {
            "kind": config.fabric.kind,
            "rate_bps": config.fabric.rate_bps,
            "cut_through": config.fabric.cut_through,
            "forward_latency": config.fabric.forward_latency,
        },
        "transport": config.transport,
        "coherence": config.coherence,
        "total_gm_words": config.total_gm_words,
        "block_words": config.block_words,
        "gmem_batching": config.gmem_batching,
        "seed": config.seed,
        "obs_trace": config.obs_trace,
        "obs_metrics_interval": config.obs_metrics_interval,
        "obs_span_limit": config.obs_span_limit,
        "sanitize": (
            list(config.sanitize)
            if isinstance(config.sanitize, tuple)
            else config.sanitize
        ),
        "resilience": (
            asdict(config.resilience) if config.resilience is not None else None
        ),
        "replay": asdict(config.replay) if config.replay is not None else None,
    }


def config_from_dict(d: dict) -> ClusterConfig:
    from ..hardware.platforms import get_platform

    resilience = None
    if d.get("resilience") is not None:
        from ..resilience.config import ResilienceConfig

        resilience = ResilienceConfig(**d["resilience"])
    replay = None
    if d.get("replay") is not None:
        replay = ReplayConfig(**d["replay"])
    sanitize = d.get("sanitize", False)
    if isinstance(sanitize, list):
        sanitize = tuple(sanitize)
    return ClusterConfig(
        platform=get_platform(d["platform"]),
        platforms=(
            tuple(get_platform(name) for name in d["platforms"])
            if d.get("platforms")
            else None
        ),
        n_processors=d["n_processors"],
        n_machines=d["n_machines"],
        fabric=FabricConfig(**d["fabric"]),
        transport=d["transport"],
        coherence=d["coherence"],
        total_gm_words=d["total_gm_words"],
        block_words=d["block_words"],
        gmem_batching=d["gmem_batching"],
        seed=d["seed"],
        obs_trace=d["obs_trace"],
        obs_metrics_interval=d["obs_metrics_interval"],
        obs_span_limit=d["obs_span_limit"],
        sanitize=sanitize,
        resilience=resilience,
        replay=replay,
    )


# -- the recording ------------------------------------------------------------
class Recording:
    """A finished recorded run (see module docs)."""

    def __init__(
        self,
        config: ClusterConfig,
        spec: Optional[WorkloadSpec],
        slots: List[RingSlot],
        waypoints: List[dict],
        evictions: int,
        tail: List[dict],
        tail_dropped: int,
        spans: List[dict],
        spans_dropped: int,
        final: dict,
        ckpt_stats: Dict[str, float],
        returns: Any = None,
    ):
        self.config = config
        self.spec = spec
        self.slots = slots
        self.waypoints = waypoints
        self.evictions = evictions
        self.tail = tail
        self.tail_dropped = tail_dropped
        self.spans = spans
        self.spans_dropped = spans_dropped
        self.final = final
        self.ckpt_stats = ckpt_stats
        #: in-memory only (not saved): the original run's return values
        self.returns = returns

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_run(cls, result: RunResult, spec: Optional[WorkloadSpec]) -> "Recording":
        cluster = result.cluster
        rec = getattr(cluster, "replay", None)
        if rec is None:
            raise ReplayError(
                "run was not recorded — pass ClusterConfig(replay=ReplayConfig(...))"
            )
        spans = [
            {
                "id": s.ctx.span_id,
                "trace": s.ctx.trace_id,
                "parent": s.parent_id,
                "name": s.name,
                "cat": s.cat,
                "pid": s.pid,
                "tid": s.tid,
                "start": s.start,
                "end": s.end,
                "phase": s.phase,
            }
            for s in cluster.obs.spans
        ]
        final = {
            "elapsed": result.elapsed,
            "end_time": cluster.sim.now,
            "sim_events": result.sim_events,
            "fingerprint": fingerprint_returns(result.returns),
        }
        return cls(
            config=result.config,
            spec=spec,
            slots=list(rec.ring.slots),
            waypoints=list(rec.ring.waypoints),
            evictions=rec.ring.evictions,
            tail=list(rec.tail),
            tail_dropped=rec.tail_dropped,
            spans=spans,
            spans_dropped=cluster.obs.dropped,
            final=final,
            ckpt_stats=cluster.ckpt_stats.snapshot(),
            returns=result.returns,
        )

    # -- queries --------------------------------------------------------------
    @property
    def end_time(self) -> float:
        return self.final["end_time"]

    def nearest_slot(self, time: float) -> Optional[RingSlot]:
        """Latest retained snapshot committed at or before ``time``."""
        best = None
        for slot in self.slots:
            if slot.time <= time:
                best = slot
        return best

    def span(self, span_id: int) -> dict:
        for s in self.spans:
            if s["id"] == span_id:
                return s
        raise ReplayError(
            f"span {span_id} is not in the recording "
            f"({len(self.spans)} spans; was obs_trace=True set?)"
        )

    def worst_span(self, name: str) -> dict:
        """The longest recorded span with ``name`` (the p999-outlier jump)."""
        matches = [s for s in self.spans if s["name"] == name]
        if not matches:
            names = sorted({s["name"] for s in self.spans})
            raise ReplayError(
                f"no spans named {name!r} in the recording; recorded names: "
                f"{', '.join(names[:12]) or '(none — was obs_trace=True set?)'}"
            )
        def duration(s):
            end = s["end"] if s["end"] is not None else s["start"]
            return end - s["start"]
        return max(matches, key=duration)

    def anchor(self, span_id: int) -> ReplayAnchor:
        """Replay coordinates for a span: nearest snapshot + time offset."""
        s = self.span(span_id)
        t = s["start"]
        slot = self.nearest_slot(t)
        return ReplayAnchor(
            span_id=span_id,
            name=s["name"],
            time=t,
            slot_seq=slot.seq if slot is not None else None,
            offset=t - slot.time if slot is not None else t,
        )

    # -- persistence ----------------------------------------------------------
    def save(self, path) -> None:
        """Write the manifest (JSON; arrays as base64 float64 bytes)."""
        slots = [
            {
                "seq": slot.seq,
                "version": slot.version,
                "time": slot.time,
                "fingerprint": slot.fingerprint,
                "states": {str(r): slot.states[r] for r in sorted(slot.states)},
                "slices": {
                    str(r): base64.b64encode(
                        np.ascontiguousarray(slot.slices[r]).tobytes()
                    ).decode("ascii")
                    for r in sorted(slot.slices)
                },
            }
            for slot in self.slots
        ]
        doc = {
            "format": _MANIFEST_FORMAT,
            "config": config_to_dict(self.config),
            "spec": asdict(self.spec) if self.spec is not None else None,
            "waypoints": self.waypoints,
            "evictions": self.evictions,
            "slots": slots,
            "tail": self.tail,
            "tail_dropped": self.tail_dropped,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "final": self.final,
            "ckpt_stats": self.ckpt_stats,
        }
        Path(path).write_text(json.dumps(doc, default=repr) + "\n")

    @classmethod
    def load(cls, path) -> "Recording":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ReplayError(f"{path}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise ReplayError(f"{path}: not a replay manifest ({exc})") from exc
        if doc.get("format") != _MANIFEST_FORMAT:
            raise ReplayError(
                f"{path}: not a replay manifest (format={doc.get('format')!r})"
            )
        spec = None
        if doc.get("spec") is not None:
            d = dict(doc["spec"])
            d["args"] = tuple(d.get("args", ()))
            spec = WorkloadSpec(**d)
        slots = [
            RingSlot(
                seq=s["seq"],
                version=s["version"],
                time=s["time"],
                states={int(r): v for r, v in s["states"].items()},
                slices={
                    int(r): np.frombuffer(
                        base64.b64decode(b), dtype=np.float64
                    ).copy()
                    for r, b in s["slices"].items()
                },
                fingerprint=s["fingerprint"],
            )
            for s in doc["slots"]
        ]
        return cls(
            config=config_from_dict(doc["config"]),
            spec=spec,
            slots=slots,
            waypoints=doc["waypoints"],
            evictions=doc["evictions"],
            tail=doc["tail"],
            tail_dropped=doc["tail_dropped"],
            spans=doc["spans"],
            spans_dropped=doc["spans_dropped"],
            final=doc["final"],
            ckpt_stats=doc["ckpt_stats"],
        )


def record(
    config: ClusterConfig,
    spec: Optional[WorkloadSpec] = None,
    worker: Optional[Callable] = None,
    args: tuple = (),
) -> Recording:
    """Run a workload to completion under recording; returns the Recording.

    Pass either a :class:`WorkloadSpec` (replayable from a manifest) or a
    bare ``worker`` generator function (in-memory replay only).
    """
    if config.replay is None:
        raise ReplayError(
            "recording needs ClusterConfig(replay=ReplayConfig(...)); "
            "pass --record to dse-experiments replay, or set replay= in code"
        )
    if spec is not None:
        entry = spec.make_entry(None)
        args = spec.args
    elif worker is not None:
        entry = worker
    else:
        raise ReplayError("record() needs a WorkloadSpec or a worker callable")
    result = run_parallel(config, entry, args=args)
    return Recording.from_run(result, spec)
