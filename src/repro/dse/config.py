"""Cluster configuration.

Captures everything a run of the paper's experiments varies: which Table-1
platform, how many DSE kernels (processors), how many physical machines
(six, per the paper — more kernels than machines means kernels double up,
the *virtual cluster*), the network fabric, the transport, and the DSM
coherence policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..errors import ConfigurationError
from ..hardware.platform import PlatformSpec
from ..hardware.platforms import LINUX_PCAT
from ..network.topology import FabricConfig
from ..protocol.transport import TRANSPORT_KINDS

__all__ = ["ClusterConfig", "DEFAULT_MACHINES"]

#: the paper's experiments used six physical machines per platform
DEFAULT_MACHINES = 6

_COHERENCE_POLICIES = ("home", "cache")


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of one simulated DSE cluster."""

    platform: PlatformSpec = LINUX_PCAT
    n_processors: int = 4  # number of DSE kernels
    n_machines: int = DEFAULT_MACHINES  # physical machines available
    #: optional heterogeneous cluster: machine *i* uses ``platforms[i]``
    #: (cycled if shorter than n_machines); overrides ``platform``.  The
    #: paper targets exactly this — one environment across mixed UNIX boxes.
    platforms: Optional[Tuple[PlatformSpec, ...]] = None
    fabric: FabricConfig = field(default_factory=FabricConfig)
    transport: str = "datagram"
    coherence: str = "home"
    total_gm_words: int = 1 << 22  # 32 MiB of global memory
    block_words: int = 128  # 1 KiB blocks
    #: global-memory message batching (the large-cluster scaling layer):
    #: remote writes are combined per home and flushed as one wire message
    #: at synchronisation points, concurrent identical remote reads share
    #: one fetch, and (under the caching policy) contiguous missing blocks
    #: are fetched with one multi-block message.  Data values are unchanged
    #: for data-race-free programs; the simulated clock differs because
    #: fewer, larger messages hit the wire (see docs/scaling.md).
    gmem_batching: bool = False
    seed: int = 1999
    #: record causal spans across all layers, plus one untraced record per
    #: DSE message (see repro.obs, repro.experiments.timeline); adds no
    #: simulation events, so virtual-time results are unchanged
    obs_trace: bool = False
    #: sampling period (simulated seconds) for the metrics time-series;
    #: 0 disables the sampler entirely
    obs_metrics_interval: float = 0.0
    #: cap on retained spans (None = unbounded); drops are counted
    obs_span_limit: Optional[int] = None
    #: dynamic sanitizers (see repro.sanitize / docs/sanitizers.md):
    #: ``False`` off, ``True``/``"all"`` everything, or any combination of
    #: ``"race"`` (lockset + happens-before data-race detection) and
    #: ``"deadlock"`` (lock-cycle + barrier-fault detection) as a string
    #: ("race,deadlock") or tuple.  Sanitizers observe only — simulated
    #: time is bit-identical with them on or off.
    sanitize: Any = False
    #: resilience subsystem (see repro.resilience / docs/resilience.md):
    #: ``None`` off (the default path adds no events, no RNG draws, and is
    #: bit-identical in simulated time), or a
    #: :class:`repro.resilience.ResilienceConfig` to enable heartbeat
    #: failure detection, crash/partition campaigns, and checkpoint/restart
    #: recovery.  Requires the datagram transport and home coherence.
    resilience: Any = None
    #: record/replay debugger (see repro.replay / docs/debugging.md):
    #: ``None`` off (the hooks cost one cached ``is not None`` guard and
    #: simulated time is bit-identical), or a
    #: :class:`repro.replay.ReplayConfig` to record a bounded checkpoint
    #: ring + event-log tail that ``dse-experiments replay`` can seek
    #: into.  Requires the home coherence policy (snapshots copy home
    #: slices, like resilience checkpoints).
    replay: Any = None

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ConfigurationError("need at least one processor")
        if self.n_machines < 1:
            raise ConfigurationError("need at least one machine")
        if self.transport not in TRANSPORT_KINDS:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; expected {TRANSPORT_KINDS}"
            )
        if self.coherence not in _COHERENCE_POLICIES:
            raise ConfigurationError(
                f"unknown coherence policy {self.coherence!r}; expected {_COHERENCE_POLICIES}"
            )
        if self.total_gm_words <= 0 or self.block_words <= 0:
            raise ConfigurationError("memory sizes must be positive")
        if self.block_words > self.total_gm_words:
            raise ConfigurationError("block_words cannot exceed total_gm_words")
        if self.platforms is not None and len(self.platforms) == 0:
            raise ConfigurationError("platforms tuple cannot be empty")
        if self.obs_metrics_interval < 0:
            raise ConfigurationError("obs_metrics_interval cannot be negative")
        if self.obs_span_limit is not None and self.obs_span_limit < 0:
            raise ConfigurationError("obs_span_limit cannot be negative")
        if isinstance(self.sanitize, list):
            # Keep the frozen dataclass hashable for sweep helpers.
            object.__setattr__(self, "sanitize", tuple(self.sanitize))
        try:
            self.sanitize_modes
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if self.resilience is not None:
            from ..resilience.config import ResilienceConfig

            if not isinstance(self.resilience, ResilienceConfig):
                raise ConfigurationError(
                    "resilience must be None or a ResilienceConfig, "
                    f"got {type(self.resilience).__name__}"
                )
            if self.transport != "datagram":
                # Reliable transports retransmit to dead kernels forever —
                # the resilience layer needs sends to crashed nodes to be
                # silently dropped (datagram semantics).
                raise ConfigurationError(
                    "resilience requires the datagram transport "
                    f"(configured: {self.transport!r})"
                )
            if self.coherence != "home":
                raise ConfigurationError(
                    "resilience requires the home coherence policy "
                    f"(configured: {self.coherence!r})"
                )
        if self.replay is not None:
            from ..replay.config import ReplayConfig

            if not isinstance(self.replay, ReplayConfig):
                raise ConfigurationError(
                    "replay must be None or a ReplayConfig, "
                    f"got {type(self.replay).__name__}"
                )
            if self.coherence != "home":
                raise ConfigurationError(
                    "replay recording requires the home coherence policy "
                    f"(configured: {self.coherence!r})"
                )
            self.replay.validate()

    @property
    def sanitize_modes(self) -> frozenset:
        """The requested sanitizers as a frozenset of mode names."""
        from ..sanitize import normalize_modes

        return normalize_modes(self.sanitize)

    # -- placement -----------------------------------------------------------
    @property
    def machines_used(self) -> int:
        """Physical machines actually built for this processor count."""
        return min(self.n_processors, self.n_machines)

    def machine_of(self, kernel_id: int) -> int:
        """Round-robin kernel placement; beyond ``n_machines`` kernels start
        doubling up — the paper's virtual cluster construction."""
        if not (0 <= kernel_id < self.n_processors):
            raise ConfigurationError(f"kernel id {kernel_id} out of range")
        return kernel_id % self.machines_used

    def kernels_on(self, machine_id: int) -> List[int]:
        return [
            k for k in range(self.n_processors) if self.machine_of(k) == machine_id
        ]

    def max_colocation(self) -> int:
        """Largest number of kernels sharing one machine."""
        return max(len(self.kernels_on(m)) for m in range(self.machines_used))

    def platform_of_machine(self, machine_id: int) -> PlatformSpec:
        """The platform of one physical machine (heterogeneous-aware)."""
        if not (0 <= machine_id < self.machines_used):
            raise ConfigurationError(f"machine id {machine_id} out of range")
        if self.platforms is None:
            return self.platform
        return self.platforms[machine_id % len(self.platforms)]

    def with_processors(self, n: int) -> "ClusterConfig":
        """Copy with a different processor count (sweep helper)."""
        from dataclasses import replace

        return replace(self, n_processors=n)
