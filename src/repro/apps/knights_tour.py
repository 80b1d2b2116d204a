"""Parallel Knight's Tour search (paper §4.4).

"Knight's Tour problem is also a search problem whose task is to find the
route which a knight passes all [squares] on the surface of an N×N chess
board only once."  The paper varies the **computation granularity** — the
number of jobs the search is divided into — and observes that a middling
job count is most efficient, the largest count is least efficient
(communication frequency + Ethernet collisions), and the smallest count
cannot use the processors at all.

We reproduce exactly that: the search tree is split at a prefix depth into
``n_jobs`` (or slightly more) independent subtree jobs; each job's *real*
node count and tour count come from enumerating its whole subtree (cached),
once per symmetry orbit: a board symmetry that fixes the start square maps
one prefix's subtree onto another's, so both have the same counts.  The
enumeration walks the subtrees of all orbits at once on visited-square
bitmasks in numpy and counts exactly the nodes and tours that the
recursive backtracking search (``count_tours_seq``) visits.  Processors
then pull jobs from the shared queue, and the simulated cost per job is
its measured node count times the per-node work.

The sequential reference counts all complete tours from a fixed start
square; the parallel result must match it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from ..dse.api import ParallelAPI
from ..errors import ApplicationError
from ..hardware.cpu import Work
from ..sim.core import Event

__all__ = [
    "knight_moves",
    "count_tours_seq",
    "TourJob",
    "KnightsTourWorkload",
    "knights_tour_workload",
    "knights_tour_worker",
    "NODE_WORK",
    "DEFAULT_BOARD",
    "DEFAULT_START",
]

#: the paper's board (reconstruction): 5×5, start in the corner
DEFAULT_BOARD = 5
DEFAULT_START = 0

#: charged cost of one search node (move iteration + visited bookkeeping);
#: the board is cache-resident, so pure integer work — a few microseconds
#: per node on the Table-1 CPUs
NODE_WORK = Work(iops=450.0)

#: words per job-descriptor slot in the central work table
JOB_STRIDE = 28

_KNIGHT_DELTAS = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))


@lru_cache(maxsize=None)
def knight_moves(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Per-square tuples of knight-move destinations on an n×n board."""
    if n < 3:
        raise ApplicationError(f"board must be at least 3x3, got {n}")
    moves = []
    for sq in range(n * n):
        r, c = divmod(sq, n)
        dests = []
        for dr, dc in _KNIGHT_DELTAS:
            rr, cc = r + dr, c + dc
            if 0 <= rr < n and 0 <= cc < n:
                dests.append(rr * n + cc)
        moves.append(tuple(dests))
    return tuple(moves)


@lru_cache(maxsize=None)
def _stabiliser(n: int, start: int) -> Tuple[Tuple[int, ...], ...]:
    """The symmetries of the n×n board that fix ``start``, as square maps.

    Each of the board's 8 symmetries maps knight moves to knight moves, so
    it maps the search subtree below a path prefix onto the subtree below
    the image prefix: both have the same node and tour counts.  Those that
    fix the start square map the job frontier onto itself.
    """
    last = n - 1
    maps = []
    for transpose in (False, True):
        for flip_rows in (False, True):
            for flip_cols in (False, True):
                perm = []
                for sq in range(n * n):
                    r, c = divmod(sq, n)
                    if transpose:
                        r, c = c, r
                    if flip_rows:
                        r = last - r
                    if flip_cols:
                        c = last - c
                    perm.append(r * n + c)
                if perm[start] == start:
                    maps.append(tuple(perm))
    return tuple(maps)


class _Search:
    """Backtracking tour search with node counting."""

    __slots__ = ("n", "moves", "visited", "nodes", "tours", "total")

    def __init__(self, n: int):
        self.n = n
        self.moves = knight_moves(n)
        self.total = n * n
        self.visited = [False] * self.total
        self.nodes = 0
        self.tours = 0

    def run_from(self, path: Tuple[int, ...]) -> None:
        """Search all completions of ``path`` (marks/unmarks internally)."""
        for sq in path:
            if self.visited[sq]:
                raise ApplicationError(f"prefix revisits square {sq}")
            self.visited[sq] = True
        self._dfs(path[-1], len(path))
        for sq in path:
            self.visited[sq] = False

    def _dfs(self, square: int, placed: int) -> None:
        self.nodes += 1
        if placed == self.total:
            self.tours += 1
            return
        visited = self.visited
        for nxt in self.moves[square]:
            if not visited[nxt]:
                visited[nxt] = True
                self._dfs(nxt, placed + 1)
                visited[nxt] = False


def count_tours_seq(n: int = DEFAULT_BOARD, start: int = DEFAULT_START) -> Tuple[int, int]:
    """Sequential reference: (number of complete tours, nodes visited)."""
    search = _Search(n)
    search.run_from((start,))
    return search.tours, search.nodes


#: search states expanded per numpy step of :func:`_subtree_counts`; the
#: pending states wait on a stack in pieces of at most this many, so the
#: enumeration holds a few pieces per search depth: 0.40 MiB at its peak for
#: the 5x5 board's 128 jobs, where smaller pieces cost more numpy steps
_CHUNK = 2048


def _subtree_counts(
    board: int, prefixes: List[Tuple[int, ...]], chunk: int = _CHUNK
) -> Tuple[np.ndarray, np.ndarray]:
    """(nodes, tours) of the search subtree below each prefix, as
    ``_Search.run_from`` counts them, for all prefixes in one enumeration.

    A search state is its visited squares (an ``int32`` bitmask), its
    current square (``int8``) and the index of the prefix it descends
    from.  Each step pops a piece of states of one depth off a stack,
    counts them as nodes of their prefixes and pushes their children, one
    per unvisited knight move.  Bit ``board²`` of every mask is a sentinel
    that is always set: the padded successor slots of squares with fewer
    than eight moves point at it, so they never yield a child.  A state at
    depth ``board²`` is a complete tour.
    """
    squares = board * board
    if squares + 1 > 31:
        raise ApplicationError(
            f"a {board}x{board} board needs {squares + 1} mask bits, "
            f"more than the 31 of an int32 mask"
        )
    succ = np.full((squares, len(_KNIGHT_DELTAS)), squares, dtype=np.int8)
    for sq, dests in enumerate(knight_moves(board)):
        succ[sq, : len(dests)] = dests
    succ_bits = np.array([[1 << int(d) for d in row] for row in succ], dtype=np.int32)
    count = len(prefixes)
    nodes = np.zeros(count, dtype=np.int64)
    tours = np.zeros(count, dtype=np.int64)

    by_depth: Dict[int, List[int]] = {}
    for k, path in enumerate(prefixes):
        by_depth.setdefault(len(path), []).append(k)
    stack = []
    for depth, ks in by_depth.items():
        for i in range(0, len(ks), chunk):
            part = [prefixes[k] for k in ks[i : i + chunk]]
            stack.append((
                depth,
                np.array([sum(1 << sq for sq in p) | 1 << squares for p in part], dtype=np.int32),
                np.array([p[-1] for p in part], dtype=np.int8),
                np.array(ks[i : i + chunk], dtype=np.int32),
            ))
    while stack:
        depth, mask, sq, own = stack.pop()
        nodes += np.bincount(own, minlength=count)
        if depth == squares:
            tours += np.bincount(own, minlength=count)
            continue
        rows = sq.astype(np.intp)
        free = succ_bits.take(rows, axis=0)
        free &= ~mask[:, None]
        # nonzero() has a fast path for bools: on the int32 array the
        # whole enumeration takes a third longer
        slots = np.flatnonzero(free.astype(bool))
        sq = succ.take(rows, axis=0).ravel().take(slots)
        rows = slots >> 3  # eight successor slots per state
        mask = mask.take(rows) | free.ravel().take(slots)
        own = own.take(rows)
        stack.extend(
            (depth + 1, mask[i : i + chunk], sq[i : i + chunk], own[i : i + chunk])
            for i in range(0, len(mask), chunk)
        )
    return nodes, tours


@dataclass(frozen=True)
class TourJob:
    """One subtree job: a path prefix with its measured cost and yield."""

    prefix: Tuple[int, ...]
    nodes: int
    tours: int


@dataclass(frozen=True)
class KnightsTourWorkload:
    """A pre-expanded job pool: the tour prefixes handed out to workers."""

    board: int
    start: int
    n_jobs_requested: int
    jobs: Tuple[TourJob, ...]
    total_tours: int
    total_nodes: int


@lru_cache(maxsize=None)
def knights_tour_workload(
    n_jobs: int, board: int = DEFAULT_BOARD, start: int = DEFAULT_START
) -> KnightsTourWorkload:
    """Split the search into >= ``n_jobs`` prefix jobs and measure each.

    Prefixes are grown breadth-first from the start square until the
    frontier is at least ``n_jobs`` wide (dead prefixes are kept: a real
    work-splitting implementation cannot tell them apart in advance, and
    they are exactly the near-empty jobs that make high job counts pay pure
    communication cost).  Each job keeps its own prefix; one prefix per
    orbit under the symmetries that fix ``start`` is measured, all of them
    in one enumeration (:func:`_subtree_counts`).
    """
    if n_jobs < 1:
        raise ApplicationError(f"n_jobs must be >= 1, got {n_jobs}")
    moves = knight_moves(board)
    frontier: List[Tuple[int, ...]] = [(start,)]
    while len(frontier) < n_jobs and any(len(p) < board * board for p in frontier):
        nxt: List[Tuple[int, ...]] = []
        for path in frontier:
            last = path[-1]
            children = [m for m in moves[last] if m not in path]
            if not children:
                nxt.append(path)  # dead or complete prefix stays a job
            else:
                nxt.extend(path + (m,) for m in children)
        if len(nxt) == len(frontier):
            break
        frontier = nxt

    symmetries = _stabiliser(board, start)
    orbits: Dict[Tuple[int, ...], int] = {}
    members: List[Tuple[int, ...]] = []  # one searched prefix per orbit
    of_job: List[int] = []
    for path in frontier:
        orbit = min(tuple(g[sq] for sq in path) for g in symmetries)
        if orbit not in orbits:
            orbits[orbit] = len(members)
            members.append(path)
        of_job.append(orbits[orbit])
    nodes, tours = _subtree_counts(board, members)
    jobs = [
        TourJob(prefix=path, nodes=int(nodes[k]), tours=int(tours[k]))
        for path, k in zip(frontier, of_job)
    ]
    return KnightsTourWorkload(
        board=board,
        start=start,
        n_jobs_requested=n_jobs,
        jobs=tuple(jobs),
        total_tours=sum(j.tours for j in jobs),
        total_nodes=sum(j.nodes for j in jobs),
    )


def knights_tour_worker(
    api: ParallelAPI,
    n_jobs: int,
    board: int = DEFAULT_BOARD,
    start: int = DEFAULT_START,
) -> Generator[Event, Any, Dict[str, Any]]:
    """DSE-parallel Knight's Tour (run under ``run_parallel``).

    The paper varies "the number of divisions in the problem": the search
    is divided *statically* — job *j* is processed by rank ``j % size``.
    The master keeps a central work table in its global-memory slice; each
    processor fetches every job descriptor it owns (one read), searches the
    subtree, and writes the tour count back (one write).  Many divisions
    therefore mean proportionally many messages converging on the master's
    node — the communication-frequency/collision effect of Figures 19-21 —
    while too few divisions cannot occupy the processors.
    """
    workload = knights_tour_workload(n_jobs, board, start)
    njobs = len(workload.jobs)
    table = 0  # central work table, homed at kernel 0
    results = table + njobs * JOB_STRIDE

    if api.rank == 0:
        # Publish the work table: [prefix length, squares...] per slot.
        slots = np.zeros(njobs * JOB_STRIDE)
        for j, job in enumerate(workload.jobs):
            if len(job.prefix) + 1 > JOB_STRIDE:
                raise ApplicationError(
                    f"prefix of {len(job.prefix)} squares overflows job slot"
                )
            slots[j * JOB_STRIDE] = len(job.prefix)
            for i, sq in enumerate(job.prefix):
                slots[j * JOB_STRIDE + 1 + i] = float(sq)
        yield from api.gm_write(table, slots)
        yield from api.gm_write(results, np.zeros(njobs))
    yield from api.barrier("kt:init")
    t0 = api.now

    mine: List[int] = []
    for j in range(api.rank, njobs, api.size):
        desc = yield from api.gm_read(table + j * JOB_STRIDE, JOB_STRIDE)
        plen = int(desc[0])
        prefix = tuple(int(v) for v in desc[1 : 1 + plen])
        job = workload.jobs[j]
        if prefix != job.prefix:
            raise ApplicationError(f"work table corrupted for job {j}")
        yield from api.compute(NODE_WORK.scaled(job.nodes))
        yield from api.gm_write_scalar(results + j, float(job.tours))
        mine.append(j)
    yield from api.barrier("kt:done")
    t1 = api.now

    result: Dict[str, Any] = {"jobs_done": len(mine), "t0": t0, "t1": t1}
    if api.rank == 0:
        tours = yield from api.gm_read(results, njobs)
        result["tours"] = int(tours.sum())
        result["expected_tours"] = workload.total_tours
        result["n_jobs_actual"] = njobs
    return result
