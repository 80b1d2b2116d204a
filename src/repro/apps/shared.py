"""One host copy of each deterministic, read-only application input.

Every simulated rank of a run lives in this one host process, so ranks
that generate the same input (the Gauss-Seidel system, the matmul
operands) can share one copy the way co-located UNIX processes share
read-only pages.  The copy is memoised by weak reference only: it lives
while some rank still holds it and is freed with the last holder, so
nothing outlives the run.  Its arrays are flagged read-only, so a rank
that tried to write the shared input would raise ``ValueError`` instead
of corrupting its neighbours.

Generating an input is uncharged host work; the simulated cost of the
applications comes from their ``Work`` models, so sharing changes no
simulated output.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, Tuple

import numpy as np

__all__ = ["shared_pair"]

#: (key, index) -> live read-only array; entries vanish with their array
_LIVE: "weakref.WeakValueDictionary[Tuple[Hashable, int], np.ndarray]" = (
    weakref.WeakValueDictionary()
)


def shared_pair(
    key: Hashable, build: Callable[[], Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray]:
    """The live read-only pair memoised under ``key``, built if needed.

    ``build`` must be deterministic in ``key``.  Each array is its own weak
    entry, so if one of the pair was freed only that one is replaced and
    the survivor is still the copy every holder shares.
    """
    a, b = _LIVE.get((key, 0)), _LIVE.get((key, 1))
    if a is None or b is None:
        fresh = build()
        for arr in fresh:
            arr.flags.writeable = False
        a = _LIVE.setdefault((key, 0), fresh[0])
        b = _LIVE.setdefault((key, 1), fresh[1])
    return a, b
