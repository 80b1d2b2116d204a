"""Multicore experiment runner with a content-addressed result cache.

Sweep points (scale grid cells, figure workloads) are *independent
simulations*, so the experiment layer can fan them across a
:mod:`multiprocessing` pool — each worker process runs its own event loop —
and merge the results deterministically.  Two properties make this safe:

* **Determinism**: every point is a pure function of its parameters (all
  randomness is seeded), so where/when a point runs cannot change its
  result — only its wall-clock.  Merged output is byte-identical for
  ``--jobs 1``, ``--jobs N``, and a warm cache (asserted by tests).
* **Content addressing**: a point's cache key is the SHA-256 of its
  canonical parameters plus a fingerprint of the entire ``repro`` source
  tree, so editing *any* model code invalidates every cached result — no
  stale-cache hazards, at the cost of over-invalidation (acceptable: the
  cache is a convenience, correctness never depends on it).

Cached values must be JSON-serialisable; keep wall-clock fields out of
anything you compare across runs (they are the one nondeterministic part).

The cache lives under ``$REPRO_CACHE_DIR`` (default ``.repro_cache/`` in
the current directory); writes are atomic (write-then-rename), so parallel
writers — even across concurrent sweeps — cannot tear an entry.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

__all__ = [
    "code_fingerprint",
    "canonical_params",
    "cache_key",
    "ResultCache",
    "run_tasks",
]

#: package root of the ``repro`` source tree (fingerprinted wholesale)
_PKG_ROOT = Path(__file__).resolve().parents[1]

_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Computed once per process: simulation results depend only on the model
    code and the parameters, so this plus the canonical parameters is a
    sound cache key.  Any edit anywhere in ``repro`` invalidates everything.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        digest = hashlib.sha256()
        for path in sorted(_PKG_ROOT.rglob("*.py")):
            digest.update(str(path.relative_to(_PKG_ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


def canonical_params(params: Any) -> str:
    """Canonical JSON for a parameter object (sorted keys, no whitespace)."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)


def cache_key(namespace: str, params: Any, fingerprint: Optional[str] = None) -> str:
    """Content address of one task: namespace + params + code fingerprint."""
    if fingerprint is None:
        fingerprint = code_fingerprint()
    payload = f"{namespace}\0{canonical_params(params)}\0{fingerprint}"
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """On-disk JSON store addressed by :func:`cache_key` digests."""

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or ".repro_cache"
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for ``key``, or ``None`` (counts hit/miss)."""
        try:
            payload = json.loads(self._path(key).read_text())
        except (OSError, json.JSONDecodeError):
            # Missing or torn entry: treat as a miss; a fresh put repairs it.
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` atomically (write to a temp file, then rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def summary(self) -> str:
        return f"cache: {self.hits} hit(s), {self.misses} miss(es) at {self.root}"


def run_tasks(
    func: Callable[[Any], Any],
    params: Sequence[Any],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    namespace: str = "task",
) -> List[Any]:
    """Run ``func`` over ``params``, fanning uncached points across a pool.

    Results come back in ``params`` order regardless of completion order
    (``Pool.map`` preserves input order), so merged output is independent
    of scheduling.  ``func`` must be a module-level callable (fork pickles
    it by reference) and, when caching, must return JSON-serialisable
    values.  ``jobs <= 1`` runs everything in-process.
    """
    results: List[Any] = [None] * len(params)
    pending: List[int] = []
    fingerprint = code_fingerprint() if cache is not None else None
    for i, p in enumerate(params):
        if cache is not None:
            hit = cache.get(cache_key(namespace, p, fingerprint))
            if hit is not None:
                results[i] = hit["value"]
                continue
        pending.append(i)

    if pending:
        todo = [params[i] for i in pending]
        if jobs > 1 and len(todo) > 1:
            with multiprocessing.Pool(processes=min(jobs, len(todo))) as pool:
                fresh = pool.map(func, todo)
        else:
            fresh = [func(p) for p in todo]
        for i, value in zip(pending, fresh):
            results[i] = value
            if cache is not None:
                cache.put(cache_key(namespace, params[i], fingerprint), {"value": value})
    return results
