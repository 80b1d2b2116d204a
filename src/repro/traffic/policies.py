"""Pluggable dispatch policies: where does the next request go?

A policy maps one admitted request to one or more target servers out of
the cluster's *active* set.  The menu reproduces the comparison in the
PS request-cloning report:

========================  ==================================================
``random``                uniform over active servers — the baseline
``rr``                    round-robin over active servers
``jsq``                   join-shortest-queue (fewest resident jobs,
                          lowest id breaks ties)
``lwl``                   least-work-left (smallest unfinished work,
                          lowest id breaks ties) — JSQ with size info
``clone-<d>``             clone-to-d with cancel-on-first-complete,
                          *cluster-split* variant: the active servers are
                          partitioned into groups of ``d``; a request
                          picks a group uniformly and runs one clone on
                          every member.  Synchronized clones on PS
                          servers make the group behave as M/G/1-PS fed
                          by ``min`` of ``d`` service draws — the case
                          the report solves exactly.
========================  ==================================================

Policies are deterministic given the dispatch RNG stream: ``random``
and ``clone-<d>`` draw exactly one ``randrange`` per request, the
others draw none, so switching policies never perturbs the arrival or
service streams (common-random-numbers comparisons stay paired).
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigurationError

__all__ = ["DispatchPolicy", "make_policy", "POLICY_NAMES"]

#: the policy spellings ``make_policy`` accepts (``clone-<d>`` for any d >= 2)
POLICY_NAMES = ("random", "rr", "jsq", "lwl", "clone-<d>")


class DispatchPolicy:
    """Base: picks target server ids for each request."""

    #: how many clones each request fans out to
    n_clones = 1

    name = "base"

    def select(self, cluster, rng, now: float) -> List[int]:
        raise NotImplementedError


class RandomPolicy(DispatchPolicy):
    """Uniform random over active servers."""

    name = "random"

    def select(self, cluster, rng, now: float) -> List[int]:
        active = cluster.active
        return [active[rng.randrange(len(active))]]


class RoundRobinPolicy(DispatchPolicy):
    """Cycle through the active list; position survives elasticity."""

    name = "rr"

    def __init__(self):
        self._next = 0

    def select(self, cluster, rng, now: float) -> List[int]:
        active = cluster.active
        index = self._next % len(active)
        self._next = index + 1
        return [active[index]]


class JSQPolicy(DispatchPolicy):
    """Join-shortest-queue: fewest resident jobs wins, lowest id tiebreak."""

    name = "jsq"

    def select(self, cluster, rng, now: float) -> List[int]:
        # min() by (queue_len, id), written as a loop: no key call per server.
        servers = cluster.servers
        best = -1
        best_len = 0
        for i in cluster.active:
            n = len(servers[i].jobs)
            if best < 0 or n < best_len or (n == best_len and i < best):
                best = i
                best_len = n
        return [best]


class LWLPolicy(DispatchPolicy):
    """Least-work-left: smallest unfinished work, lowest id tiebreak."""

    name = "lwl"

    def select(self, cluster, rng, now: float) -> List[int]:
        servers = cluster.servers
        best = min(cluster.active, key=lambda i: (servers[i].work_left(now), i))
        return [best]


class ClonePolicy(DispatchPolicy):
    """Cluster-split clone-to-d with cancel-on-first-complete.

    The active list (ascending ids) is partitioned into consecutive
    groups of ``d``; a trailing remainder short of ``d`` servers is left
    out of the rotation (logged by the engine as unused capacity).  One
    uniform draw picks the group; the engine places one clone per
    member and cancels the laggards when the first finishes.
    """

    def __init__(self, d: int):
        if d < 2:
            raise ConfigurationError(f"clone-to-d needs d >= 2, got {d}")
        self.d = d
        self.n_clones = d
        self.name = f"clone-{d}"

    def select(self, cluster, rng, now: float) -> List[int]:
        active = cluster.active
        n_groups = len(active) // self.d
        if n_groups < 1:
            raise ConfigurationError(
                f"{self.name} needs at least {self.d} active servers, "
                f"have {len(active)}"
            )
        group = rng.randrange(n_groups)
        start = group * self.d
        return active[start:start + self.d]


def make_policy(name: str) -> DispatchPolicy:
    """Build a policy from its CLI spelling (see :data:`POLICY_NAMES`)."""
    if name == "random":
        return RandomPolicy()
    if name == "rr":
        return RoundRobinPolicy()
    if name == "jsq":
        return JSQPolicy()
    if name == "lwl":
        return LWLPolicy()
    if name.startswith("clone-"):
        _, _, suffix = name.partition("-")
        try:
            d = int(suffix)
        except ValueError:
            raise ConfigurationError(f"bad clone policy spec {name!r}")
        return ClonePolicy(d)
    raise ConfigurationError(
        f"unknown dispatch policy {name!r} (one of: {', '.join(POLICY_NAMES)})"
    )
