"""Canonical traffic scenarios (shared by tools, benchmarks, CI).

The matrix runs the single-tenant configurations the PS request-cloning
report solves exactly (:mod:`repro.traffic.analytic`), so every point
carries both its simulated outcome *and* the closed-form prediction:

* ``<policy>@<rho>`` — Pareto(alpha 1.5) service at per-server load
  ``rho`` for each policy.  Alpha 1.5 is the boundary where clone-2 is
  exactly load-neutral (``2 * E[min of 2] == E[S]``), so cloning wins
  at *every* load — the report's headline curve.
* ``<policy>@det<rho>`` — deterministic service: zero variability, so
  cloning only multiplies load and must *lose* — the report's negative
  control.

Every field is simulated and therefore machine-independent;
``tools/check_bench.py --suite traffic`` compares the committed
``BENCH_traffic.json`` trajectory exactly and additionally gates

1. the clone-2 < random ordering on the heavy tail at every load,
2. the random < clone-2 ordering on the deterministic control, and
3. |simulated - analytic| / analytic within tolerance where a closed
   form exists (random and clone-2; JSQ has none).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .analytic import clone_mean_response, random_dispatch_mean_response
from .arrivals import Deterministic, Pareto, PoissonArrivals
from .engine import TrafficConfig, run_traffic
from .tenants import TenantSpec

__all__ = [
    "BENCH_POLICIES",
    "BENCH_LOADS",
    "CANONICAL",
    "run_point",
    "run_bench_matrix",
    "check_gates",
]

#: policies in the committed matrix (jsq has no closed form — no tolerance
#: gate, but its trajectory is still compared exactly)
BENCH_POLICIES = ("random", "jsq", "clone-2")

#: per-server loads of the heavy-tail sweep
BENCH_LOADS = (0.3, 0.5, 0.7)

#: the deterministic-service negative control: both policies stable, but
#: clone-2's doubled load costs ~5x in mean response
DET_LOAD = 0.45

CANONICAL = {
    "n_servers": 8,
    "n_requests": 60_000,
    "alpha": 1.5,
    "mean_service": 1.0,
    "seed": 2020,
}


def run_point(
    policy: str,
    rho: float,
    service_kind: str = "pareto",
    n_servers: int = CANONICAL["n_servers"],
    n_requests: int = CANONICAL["n_requests"],
    seed: int = CANONICAL["seed"],
) -> Dict[str, float]:
    """One canonical single-tenant point; everything returned is simulated
    (plus the closed-form prediction where one exists)."""
    if service_kind == "pareto":
        service = Pareto(alpha=CANONICAL["alpha"], mean=CANONICAL["mean_service"])
    else:
        service = Deterministic(CANONICAL["mean_service"])
    lam = rho * n_servers
    config = TrafficConfig(
        tenants=(TenantSpec("bench", PoissonArrivals(lam), service, n_requests),),
        n_servers=n_servers,
        policy=policy,
        seed=seed,
    )
    result = run_traffic(config)
    out = {
        "count": result.overall["count"],
        "mean": round(result.overall["mean"], 9),
        "p50": round(result.overall["p50"], 9),
        "p99": round(result.overall["p99"], 9),
        "p999": round(result.overall["p999"], 9),
        "elapsed": round(result.elapsed, 9),
        "utilisation": round(result.utilisation, 9),
        "sim_events": result.sim_events,
        "clones_cancelled": int(result.stats.get("clones_cancelled", 0)),
    }
    if policy == "random":
        out["analytic"] = round(
            random_dispatch_mean_response(service, lam, n_servers), 9
        )
    elif policy.startswith("clone-"):
        d = int(policy.partition("-")[2])
        out["analytic"] = round(
            clone_mean_response(service, lam, n_servers, d), 9
        )
    return out


def run_bench_matrix(n_requests: int = CANONICAL["n_requests"]) -> Dict[str, Dict[str, float]]:
    """The full canonical matrix, keyed ``"<policy>@<rho>"`` /
    ``"<policy>@det<rho>"``."""
    results = {}
    for policy in BENCH_POLICIES:
        for rho in BENCH_LOADS:
            results[f"{policy}@{rho:g}"] = run_point(
                policy, rho, "pareto", n_requests=n_requests
            )
    for policy in ("random", "clone-2"):
        results[f"{policy}@det{DET_LOAD:g}"] = run_point(
            policy, DET_LOAD, "det",
            # The unstable-ish det clone point grows with run length;
            # half the requests keeps it quick without losing the gate.
            n_requests=n_requests // 2,
        )
    return results


def check_gates(
    results: Dict[str, Dict[str, float]], tolerance: float = 0.15,
    closed_forms: bool = True,
) -> List[Tuple[str, bool]]:
    """The report-reproduction gates over one matrix; (description, ok).

    ``closed_forms=False`` keeps only the orderings and drops the
    sim-vs-analytic error checks, whose ``tolerance`` assumes the full
    request count.
    """
    checks: List[Tuple[str, bool]] = []
    for rho in BENCH_LOADS:
        clone = results[f"clone-2@{rho:g}"]["mean"]
        rand = results[f"random@{rho:g}"]["mean"]
        checks.append((
            f"heavy tail @ rho={rho:g}: clone-2 mean {clone:.4f} "
            f"< random {rand:.4f}",
            clone < rand,
        ))
    det_clone = results[f"clone-2@det{DET_LOAD:g}"]["mean"]
    det_rand = results[f"random@det{DET_LOAD:g}"]["mean"]
    checks.append((
        f"deterministic control @ rho={DET_LOAD:g}: random mean "
        f"{det_rand:.4f} < clone-2 {det_clone:.4f}",
        det_rand < det_clone,
    ))
    if not closed_forms:
        return checks
    for key, outcome in sorted(results.items()):
        analytic = outcome.get("analytic")
        if analytic is None or "det" in key:
            # No closed form (jsq), or the control point where clone-2
            # sits near saturation and the finite-run mean keeps growing.
            continue
        err = abs(outcome["mean"] - analytic) / analytic
        checks.append((
            f"{key}: sim {outcome['mean']:.4f} vs analytic {analytic:.4f} "
            f"(err {err * 100:.1f}% <= {tolerance * 100:g}%)",
            err <= tolerance,
        ))
    return checks
