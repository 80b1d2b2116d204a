"""Seed-deterministic arrival processes and service-time distributions.

The traffic layer is *open-loop*: tenants offer requests on their own
clock regardless of how the cluster is coping — exactly the regime the
PS request-cloning reproducibility report (Pellegrini 2020) models and
the regime that exposes overload behaviour (closed-loop load generators
self-throttle and hide it).

Every stochastic draw flows through a caller-supplied ``random.Random``
stream from :class:`repro.sim.rng.RandomStreams`, so a tenant's arrival
sequence is a pure function of (master seed, tenant name) — independent
of every other tenant, of the dispatch policy, and of how the run is
partitioned across worker processes.

Arrival processes
    * :class:`PoissonArrivals` — memoryless, rate ``lam``.
    * :class:`MMPPArrivals` — Markov-modulated Poisson: the rate
      switches between phases (e.g. calm/burst) after exponential
      dwells; the classic model for flash-crowd traffic.

Service distributions
    * :class:`Exponential` — SCV 1, the M/M baseline.
    * :class:`Pareto` — heavy-tailed (Lomax-free, plain Pareto-I);
      ``min`` of ``d`` i.i.d. copies is again Pareto with shape
      ``d*alpha``, which is what makes request cloning analytically
      tractable (see :mod:`repro.traffic.analytic`).
    * :class:`Deterministic` — SCV 0, the distribution where cloning
      can only ever waste capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError

__all__ = [
    "PoissonArrivals",
    "MMPPArrivals",
    "Exponential",
    "Pareto",
    "Deterministic",
    "make_arrivals",
    "make_service",
]


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonArrivals:
    """Poisson arrivals: i.i.d. exponential gaps at ``rate`` per second."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"arrival rate must be > 0, got {self.rate}")

    @property
    def mean_rate(self) -> float:
        return self.rate

    def gaps(self, rng):
        """State for one run: returns a ``next_gap()`` callable."""
        expovariate = rng.expovariate
        rate = self.rate

        def next_gap() -> float:
            return expovariate(rate)

        return next_gap


@dataclass(frozen=True)
class MMPPArrivals:
    """Markov-modulated Poisson process cycling through ``rates``.

    The process dwells in phase ``i`` for an exponential time with mean
    ``dwells[i]`` seconds, emitting Poisson arrivals at ``rates[i]``,
    then moves to the next phase (cyclically).  Sampling is exact: a
    candidate gap that overruns the remaining dwell is *discarded* and
    redrawn at the new phase's rate — valid because the exponential is
    memoryless.
    """

    rates: Tuple[float, ...]
    dwells: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.rates) < 2:
            raise ConfigurationError("MMPP needs at least two phases")
        if len(self.rates) != len(self.dwells):
            raise ConfigurationError(
                f"MMPP rates/dwells length mismatch: "
                f"{len(self.rates)} != {len(self.dwells)}"
            )
        if any(r <= 0 for r in self.rates) or any(d <= 0 for d in self.dwells):
            raise ConfigurationError("MMPP rates and dwells must all be > 0")

    @property
    def mean_rate(self) -> float:
        """Long-run arrival rate (dwell-weighted average of the phases)."""
        total = sum(self.dwells)
        return sum(r * d for r, d in zip(self.rates, self.dwells)) / total

    def gaps(self, rng):
        expovariate = rng.expovariate
        rates, dwells = self.rates, self.dwells
        state = {"phase": 0, "left": expovariate(1.0 / dwells[0])}

        def next_gap() -> float:
            elapsed = 0.0
            while True:
                gap = expovariate(rates[state["phase"]])
                if gap <= state["left"]:
                    state["left"] -= gap
                    return elapsed + gap
                # Phase expires before the candidate arrival: advance to
                # the phase boundary and redraw (memorylessness makes the
                # discarded candidate statistically free).
                elapsed += state["left"]
                state["phase"] = (state["phase"] + 1) % len(rates)
                state["left"] = expovariate(1.0 / dwells[state["phase"]])

        return next_gap


# ---------------------------------------------------------------------------
# service-time distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exponential:
    """Exponential service times with the given ``mean`` (seconds of work)."""

    mean: float

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ConfigurationError(f"service mean must be > 0, got {self.mean}")

    @property
    def scv(self) -> float:
        """Squared coefficient of variation (variance / mean^2)."""
        return 1.0

    def sample(self, rng) -> float:
        return rng.expovariate(1.0 / self.mean)

    def min_of_mean(self, d: int) -> float:
        """E[min of d i.i.d. copies] — exponential min is exponential."""
        return self.mean / d


@dataclass(frozen=True)
class Pareto:
    """Pareto-I service times: ``P(X > x) = (xm/x)^alpha`` for ``x >= xm``.

    Parameterised by ``alpha`` and the desired ``mean``; the scale is
    derived (``xm = mean*(alpha-1)/alpha``).  ``alpha`` must exceed 1
    (finite mean); an ``alpha`` in (1, 2] has infinite variance — the
    heavy-tail regime where cloning pays the most.
    """

    alpha: float
    mean: float

    def __post_init__(self) -> None:
        if self.alpha <= 1.0:
            raise ConfigurationError(
                f"Pareto alpha must be > 1 for a finite mean, got {self.alpha}"
            )
        if self.mean <= 0:
            raise ConfigurationError(f"service mean must be > 0, got {self.mean}")

    @property
    def xm(self) -> float:
        return self.mean * (self.alpha - 1.0) / self.alpha

    @property
    def scv(self) -> float:
        if self.alpha <= 2.0:
            return float("inf")
        return 1.0 / (self.alpha * (self.alpha - 2.0))

    def sample(self, rng) -> float:
        # Inverse-CDF: xm * U^(-1/alpha); use 1-U so U=0 cannot blow up.
        # ``xm`` is spelled out inline: the same expression, one call fewer.
        alpha = self.alpha
        return self.mean * (alpha - 1.0) / alpha * (1.0 - rng.random()) ** (-1.0 / alpha)

    def min_of_mean(self, d: int) -> float:
        """min of d i.i.d. Pareto(alpha, xm) is Pareto(d*alpha, xm)."""
        da = d * self.alpha
        return da * self.xm / (da - 1.0)


@dataclass(frozen=True)
class Deterministic:
    """Constant service times — zero variability, cloning's worst case."""

    mean: float

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ConfigurationError(f"service mean must be > 0, got {self.mean}")

    @property
    def scv(self) -> float:
        return 0.0

    def sample(self, rng) -> float:
        return self.mean

    def min_of_mean(self, d: int) -> float:
        return self.mean


# ---------------------------------------------------------------------------
# string factories (CLI / sweep parameter dicts)
# ---------------------------------------------------------------------------

def make_arrivals(spec: str, rate: float):
    """Build an arrival process from a CLI spec string.

    ``"poisson"`` — Poisson at ``rate``; ``"mmpp"`` — a two-phase
    calm/burst MMPP whose *long-run* rate equals ``rate`` (burst phase
    4x the calm phase, 10%% of the time in burst).
    """
    if spec == "poisson":
        return PoissonArrivals(rate)
    if spec == "mmpp":
        # calm 90% of the time, burst (4x calm) 10%: solve the dwell
        # weighting so the long-run mean equals the requested rate.
        calm = rate / 1.3
        return MMPPArrivals(rates=(calm, 4.0 * calm), dwells=(9.0, 1.0))
    raise ConfigurationError(f"unknown arrival spec {spec!r} (poisson, mmpp)")


def make_service(spec: str, mean: float):
    """Build a service distribution from a CLI spec string.

    ``"exp"``, ``"det"``, or ``"pareto[:alpha]"`` (default alpha 2.2).
    """
    if spec == "exp":
        return Exponential(mean)
    if spec == "det":
        return Deterministic(mean)
    if spec == "pareto" or spec.startswith("pareto:"):
        _, _, alpha = spec.partition(":")
        return Pareto(alpha=float(alpha) if alpha else 2.2, mean=mean)
    raise ConfigurationError(
        f"unknown service spec {spec!r} (exp, det, pareto[:alpha])"
    )
