"""Parallel Othello game-tree search (paper §4.3).

"The Othello game is a typical search problem application common in
artificial intelligence research."  We implement the real game (8×8 board,
full flipping rules) and a minimax search with alpha-beta pruning, then
parallelise it the way the paper's speed-up curves imply:

* the first **two** plies of the tree are expanded into independent *jobs*
  (one per ``(move, counter-move)`` pair, plus degenerate cases);
* each job is searched to the remaining depth with a **full window**, so a
  job's cost and value are independent of which processor runs it and in
  which order (deterministic, schedule-independent — and exactly what a
  simple 1999 work-pool implementation did, at the price of losing
  cross-job pruning);
* processors pull jobs from a shared queue in global memory; the master
  recombines values minimax-style.

At shallow depths jobs are tiny and queue traffic dominates (no speed-up —
paper Figures 16–18, depths ≤ 4); at deeper depths each job carries real
search work and the pool scales.

The per-node simulation cost is charged from the *measured* node count of
the real search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..dse.api import ParallelAPI
from ..errors import ApplicationError
from ..hardware.cpu import Work
from ..sim.core import Event
from .jobqueue import collect_results, init_job_queue, job_queue_layout_words, work_job_queue

__all__ = [
    "initial_board",
    "midgame_board",
    "legal_moves",
    "apply_move",
    "evaluate",
    "alphabeta",
    "best_move_seq",
    "OthelloWorkload",
    "othello_workload",
    "othello_worker",
    "NODE_WORK",
    "BLACK",
    "WHITE",
    "EMPTY",
]

BLACK, WHITE, EMPTY = 1, -1, 0
INF = 10**9

#: charged cost of visiting one search node: legal-move generation over 8
#: rays per candidate square, flip application, and the static evaluation
#: (material + mobility + corners — mobility alone regenerates both sides'
#: move lists).  The board is cache-resident, so the cost is pure integer
#: work; ~10-45 us/node on the Table-1 CPUs, the throughput of a
#: straightforward 1999 C implementation.
NODE_WORK = Work(iops=2600.0)

# The search runs on bitboards: a position is a pair of 64-bit ints
# ``(own, opp)``, the discs of the side to move and of its opponent, where
# bit ``sq`` stands for square ``sq = 8 * row + col``.  The tuple boards of
# the public API are converted at the boundary.
_FULL = (1 << 64) - 1
#: every square off columns 0 and 7: a run of discs going sideways only
#: continues through these, so a shift never wraps from one row to the next
_INNER = 0x7E7E7E7E7E7E7E7E
_CORNERS = (1 << 0) | (1 << 7) | (1 << 56) | (1 << 63)
#: (shift, mask on the run) for the four lines: E-W, N-S and both diagonals
_LINES = ((1, _INNER), (8, _FULL), (7, _INNER), (9, _INNER))


def _build_rays() -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
    """Per square, the ray masks (of 2+ squares) towards higher squares and
    towards lower squares."""
    up: List[Tuple[int, ...]] = []
    down: List[Tuple[int, ...]] = []
    for sq in range(64):
        r, c = divmod(sq, 8)
        ups, downs = [], []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                ray, length = 0, 0
                rr, cc = r + dr, c + dc
                while 0 <= rr < 8 and 0 <= cc < 8:
                    ray |= 1 << (rr * 8 + cc)
                    length += 1
                    rr += dr
                    cc += dc
                if length >= 2:  # need at least opponent+own to flip
                    (ups if 8 * dr + dc > 0 else downs).append(ray)
        up.append(tuple(ups))
        down.append(tuple(downs))
    return tuple(up), tuple(down)


_UP_RAYS, _DOWN_RAYS = _build_rays()


def _moves(own: int, opp: int) -> int:
    """Mask of the legal squares for the side holding ``own``."""
    moves = 0
    for shift, mask in _LINES:
        run = opp & mask
        double = shift << 1
        # Runs of up to six opponent discs next to an own disc, grown one
        # square, then two at a time through squares whose neighbour is
        # also on the run; the square past a run is a candidate.
        pair = run & (run << shift)
        x = run & (own << shift)
        x |= run & (x << shift)
        x |= pair & (x << double)
        x |= pair & (x << double)
        moves |= x << shift
        pair = run & (run >> shift)
        x = run & (own >> shift)
        x |= run & (x >> shift)
        x |= pair & (x >> double)
        x |= pair & (x >> double)
        moves |= x >> shift
    return moves & ~(own | opp) & _FULL


def _flips(own: int, opp: int, square: int) -> int:
    """Mask of the discs flipped by the side holding ``own`` playing the
    empty ``square`` (0 when the move is illegal)."""
    flips = 0
    for ray in _UP_RAYS[square]:
        # the nearest square not held by the opponent ends the run: going
        # up that is the lowest one of the ray, going down the highest
        stop = ray & ~opp
        stop &= -stop
        if stop & own:
            flips |= ray & (stop - 1)
    for ray in _DOWN_RAYS[square]:
        stop = ray & ~opp
        if stop:
            stop = 1 << (stop.bit_length() - 1)
            if stop & own:
                flips |= ray & -(stop << 1)
    return flips


def _play(own: int, opp: int, square: int) -> Tuple[int, int]:
    """The position after a legal move, seen by the side to move next."""
    flips = _flips(own, opp, square)
    return opp ^ flips, own | flips | (1 << square)


def _evaluate(own: int, opp: int) -> int:
    """Material + mobility + corner control for the side holding ``own``."""
    material = own.bit_count() - opp.bit_count()
    mobility = _moves(own, opp).bit_count() - _moves(opp, own).bit_count()
    corners = (own & _CORNERS).bit_count() - (opp & _CORNERS).bit_count()
    return material + 4 * mobility + 25 * corners


def _squares(mask: int) -> List[int]:
    """The squares of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _to_bitboards(board: Tuple[int, ...], player: int) -> Tuple[int, int]:
    own = opp = 0
    for sq, v in enumerate(board):
        if v == player:
            own |= 1 << sq
        elif v == -player:
            opp |= 1 << sq
    return own, opp


def _to_board(own: int, opp: int, player: int) -> Tuple[int, ...]:
    return tuple(
        player if own >> sq & 1 else -player if opp >> sq & 1 else EMPTY
        for sq in range(64)
    )


def initial_board() -> Tuple[int, ...]:
    """The standard Othello starting position."""
    board = [EMPTY] * 64
    board[27], board[36] = WHITE, WHITE
    board[28], board[35] = BLACK, BLACK
    return tuple(board)


def midgame_board() -> Tuple[int, ...]:
    """A fixed, reproducible midgame position (deterministic self-play).

    Experiments search from here so every depth has a bushy tree.
    """
    own, opp = _to_bitboards(initial_board(), BLACK)
    player = BLACK
    # 8 plies of greedy self-play (most flips first, lowest index tiebreak).
    for _ in range(8):
        moves = _squares(_moves(own, opp))
        if moves:
            best = max(moves, key=lambda m: (_flips(own, opp, m).bit_count(), -m))
            own, opp = _play(own, opp, best)
        else:
            own, opp = opp, own
        player = -player
    return _to_board(own, opp, player)


def legal_moves(board: Tuple[int, ...], player: int) -> List[int]:
    """All legal squares for ``player`` (ascending order: deterministic)."""
    return _squares(_moves(*_to_bitboards(board, player)))


def apply_move(board: Tuple[int, ...], square: int, player: int) -> Tuple[int, ...]:
    own, opp = _to_bitboards(board, player)
    if not 0 <= square < 64 or (own | opp) >> square & 1 or not _flips(own, opp, square):
        raise ApplicationError(f"illegal move {square} for player {player}")
    after, mover = _play(own, opp, square)
    return _to_board(mover, after, player)


def evaluate(board: Tuple[int, ...], player: int) -> int:
    """Static evaluation from ``player``'s perspective: material +
    mobility + corner control (a standard lightweight 1999-era heuristic)."""
    return _evaluate(*_to_bitboards(board, player))


class _Counter:
    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes = 0


def _negamax(
    own: int,
    opp: int,
    depth: int,
    alpha: int,
    beta: int,
    counter: _Counter,
    passed: bool = False,
) -> int:
    counter.nodes += 1
    if depth == 0:
        return _evaluate(own, opp)
    moves = _moves(own, opp)
    if not moves:
        if passed:  # game over: exact disc difference dominates
            return 1000 * (own.bit_count() - opp.bit_count())
        return -_negamax(opp, own, depth - 1, -beta, -alpha, counter, True)
    value = -INF
    while moves:  # lowest square first: the move order fixes which nodes are cut
        low = moves & -moves
        moves ^= low
        flips = _flips(own, opp, low.bit_length() - 1)
        score = -_negamax(opp ^ flips, own | flips | low, depth - 1, -beta, -alpha, counter)
        if score > value:
            value = score
        if value > alpha:
            alpha = value
        if alpha >= beta:
            break
    return value


def _alphabeta(own: int, opp: int, depth: int) -> Tuple[int, int]:
    if depth < 0:
        raise ApplicationError(f"depth must be >= 0, got {depth}")
    counter = _Counter()
    value = _negamax(own, opp, depth, -INF, INF, counter)
    return value, counter.nodes


def alphabeta(
    board: Tuple[int, ...], player: int, depth: int
) -> Tuple[int, int]:
    """Full-window alpha-beta search; returns (value, nodes visited)."""
    return _alphabeta(*_to_bitboards(board, player), depth)


def best_move_seq(
    board: Tuple[int, ...], player: int, depth: int
) -> Tuple[Optional[int], int, int]:
    """Sequential root search with per-move full windows (the policy the
    parallel version also uses, so values match exactly).

    Returns (best move, value, total nodes).
    """
    own, opp = _to_bitboards(board, player)
    moves = _squares(_moves(own, opp))
    if not moves:
        return None, _evaluate(own, opp), 1
    best_move, best_value, total_nodes = None, -INF, 0
    for move in moves:
        value, nodes = _alphabeta(*_play(own, opp, move), depth - 1)
        value = -value
        total_nodes += nodes + 1
        if value > best_value:
            best_value, best_move = value, move
    return best_move, best_value, total_nodes


@dataclass(frozen=True)
class _Job:
    """One unit of parallel work: a 2-ply prefix of the root tree."""

    move1: int
    move2: int  # -1 when the job covers move1's whole subtree (depth<2 / pass)
    value: int  # negamax value *for the player to move at the root*
    nodes: int


@dataclass(frozen=True)
class OthelloWorkload:
    """Everything the parallel run needs, computed once from the real game."""

    depth: int
    player: int
    jobs: Tuple[_Job, ...]
    root_moves: Tuple[int, ...]
    best_value: int
    best_move: Optional[int]
    total_nodes: int


@lru_cache(maxsize=None)
def othello_workload(depth: int, use_midgame: bool = True) -> OthelloWorkload:
    """Build the job list for ``depth`` (cached: the real search runs once)."""
    if depth < 1:
        raise ApplicationError(f"search depth must be >= 1, got {depth}")
    board = midgame_board() if use_midgame else initial_board()
    player = BLACK
    own, opp = _to_bitboards(board, player)
    moves = _squares(_moves(own, opp))
    jobs: List[_Job] = []
    for m1 in moves:
        them, us = _play(own, opp, m1)  # the opponent is to move
        if depth < 2:
            jobs.append(_Job(m1, -1, _evaluate(us, them), 1))
            continue
        replies = _squares(_moves(them, us))
        if not replies:
            value, nodes = _alphabeta(them, us, depth - 1)
            jobs.append(_Job(m1, -1, -value, nodes + 1))
            continue
        for m2 in replies:
            value, nodes = _alphabeta(*_play(them, us, m2), depth - 2)
            # value is for `player`; job value stored from root perspective
            jobs.append(_Job(m1, m2, value, nodes + 1))
    workload = OthelloWorkload(
        depth=depth,
        player=player,
        jobs=tuple(jobs),
        root_moves=tuple(moves),
        best_value=_combine(jobs, moves),
        best_move=_best_of(jobs, moves),
        total_nodes=sum(j.nodes for j in jobs),
    )
    return workload


def _value_of_move(jobs: List[_Job], m1: int) -> int:
    """Root value of move ``m1``: min over opponent replies."""
    subtree = [j for j in jobs if j.move1 == m1]
    whole = [j for j in subtree if j.move2 == -1]
    if whole:
        return whole[0].value
    return min(j.value for j in subtree)


def _combine(jobs: List[_Job], moves: List[int]) -> int:
    if not moves:
        return 0
    return max(_value_of_move(jobs, m) for m in moves)


def _best_of(jobs: List[_Job], moves: List[int]) -> Optional[int]:
    if not moves:
        return None
    return max(moves, key=lambda m: (_value_of_move(jobs, m), -m))


def othello_worker(
    api: ParallelAPI, depth: int, use_midgame: bool = True
) -> Generator[Event, Any, Dict[str, Any]]:
    """DSE-parallel Othello search (run under ``run_parallel``)."""
    workload = othello_workload(depth, use_midgame)
    njobs = len(workload.jobs)
    base = 0  # queue in kernel 0's slice

    if api.rank == 0:
        yield from init_job_queue(api, base, njobs)
    yield from api.barrier("oth:init")
    t0 = api.now

    jobs_work = [NODE_WORK.scaled(job.nodes) for job in workload.jobs]
    mine = yield from work_job_queue(
        api, base, jobs_work, lambda j: float(workload.jobs[j].value)
    )
    yield from api.barrier("oth:done")
    t1 = api.now

    result: Dict[str, Any] = {"jobs_done": len(mine), "t0": t0, "t1": t1}
    if api.rank == 0:
        values = yield from collect_results(api, base, njobs)
        recombined = [
            _Job(j.move1, j.move2, int(values[i]), j.nodes)
            for i, j in enumerate(workload.jobs)
        ]
        result["value"] = _combine(recombined, list(workload.root_moves))
        result["best_move"] = _best_of(recombined, list(workload.root_moves))
        result["expected_value"] = workload.best_value
    return result
