"""SLO metrics: deterministic latency percentiles, goodput, queue series.

Response-time percentiles (p50/p99/p999) over millions of requests
cannot keep every sample, so :class:`LatencyHistogram` buckets samples
geometrically.  The bucket index is computed from ``math.frexp`` —
*exact* float decomposition, no ``log`` — so two runs (or two worker
processes in a ``--jobs N`` sweep) bucket identically on any libm, and
the committed ``BENCH_traffic.json`` trajectory can be compared
bit-for-bit across machines.

Resolution: ``SUBDIV`` sub-buckets per power of two, i.e. a relative
bucket width of ``2**(1/SUBDIV) - 1`` (~4.4%% at the default 16) —
plenty for SLO curves, and histograms merge by plain counter addition.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

__all__ = ["LatencyHistogram", "SLOTracker"]

#: sub-buckets per power of two (relative resolution ~4.4%)
SUBDIV = 16

#: quantiles every summary reports, with their JSON key names
QUANTILES = ((0.50, "p50"), (0.99, "p99"), (0.999, "p999"))


class LatencyHistogram:
    """Geometric histogram over positive latencies, exactly mergeable."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    @staticmethod
    def bucket_of(value: float) -> int:
        """Exact geometric bucket index of a positive float.

        ``frexp`` gives ``value = m * 2**e`` with ``m`` in [0.5, 1); the
        bucket is ``e * SUBDIV`` plus which of the SUBDIV equal mantissa
        slices ``m`` falls in.  All operations are exact in IEEE-754.
        """
        m, e = math.frexp(value)
        return e * SUBDIV + int((m - 0.5) * 2.0 * SUBDIV)

    @staticmethod
    def bucket_bounds(index: int) -> Tuple[float, float]:
        """The [lo, hi) latency range of one bucket index."""
        e, sub = divmod(index, SUBDIV)
        lo = math.ldexp(0.5 + sub / (2.0 * SUBDIV), e)
        hi = math.ldexp(0.5 + (sub + 1) / (2.0 * SUBDIV), e)
        return lo, hi

    def observe(self, value: float) -> None:
        if value <= 0.0:
            # Zero-latency requests (an empty service sample rounded off)
            # land in the smallest representable bucket.
            value = 5e-324
        self._add(self.bucket_of(value), value)

    def _add(self, index: int, value: float) -> None:
        """Count an already floored ``value`` into bucket ``index``."""
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "LatencyHistogram") -> None:
        for index, n in sorted(other.buckets.items()):
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile as the midpoint of the covering bucket.

        Deterministic and exactly reproducible; accurate to the bucket
        resolution (~4.4%).  Returns 0.0 on an empty histogram.
        """
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                lo, hi = self.bucket_bounds(index)
                return (lo + hi) / 2.0
        lo, hi = self.bucket_bounds(max(self.buckets))
        return (lo + hi) / 2.0  # pragma: no cover - float-edge fallback

    def summary(self) -> Dict[str, float]:
        """The JSON-safe percentile summary (keys sorted by the caller)."""
        out = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }
        for q, key in QUANTILES:
            out[key] = self.quantile(q)
        return out


class SLOTracker:
    """Per-tenant and overall SLO bookkeeping for one traffic run."""

    __slots__ = ("tenants", "overall", "offered", "rejected", "completed", "reassigned")

    def __init__(self, tenant_names: List[str]):
        self.tenants: Dict[str, LatencyHistogram] = {
            name: LatencyHistogram() for name in tenant_names
        }
        self.overall = LatencyHistogram()
        self.offered: Dict[str, int] = {name: 0 for name in tenant_names}
        self.rejected: Dict[str, int] = {name: 0 for name in tenant_names}
        self.completed: Dict[str, int] = {name: 0 for name in tenant_names}
        self.reassigned: Dict[str, int] = {name: 0 for name in tenant_names}

    def observe(self, tenant: str, latency: float) -> None:
        # One bucket computation feeds both histograms: the same floor and
        # the same index LatencyHistogram.observe would compute for each.
        if latency <= 0.0:
            latency = 5e-324
        index = LatencyHistogram.bucket_of(latency)
        self.tenants[tenant]._add(index, latency)
        self.overall._add(index, latency)
        self.completed[tenant] += 1

    def goodput(self, tenant: str, elapsed: float) -> float:
        """Completed requests per simulated second for one tenant."""
        return self.completed[tenant] / elapsed if elapsed > 0 else 0.0

    def tenant_summary(self, tenant: str, elapsed: float) -> Dict[str, float]:
        out = self.tenants[tenant].summary()
        out["offered"] = self.offered[tenant]
        out["rejected"] = self.rejected[tenant]
        out["reassigned"] = self.reassigned[tenant]
        out["goodput_rps"] = self.goodput(tenant, elapsed)
        return out
