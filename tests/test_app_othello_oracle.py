"""The bitboard Othello kernel against the 64-square array scan it replaced.

The oracle below is the original tuple-board implementation: per empty
square it walks the 8 rays, collects the opponent discs each run would
flip, and evaluates by regenerating both sides' move lists.  Positions come
from random legal play from the start and from the midgame position, so
they include passes and finished games.
"""

import random
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.othello import (
    BLACK,
    EMPTY,
    INF,
    _flips,
    _squares,
    _to_bitboards,
    alphabeta,
    apply_move,
    evaluate,
    initial_board,
    legal_moves,
    midgame_board,
)
from repro.errors import ApplicationError

Board = Tuple[int, ...]


# ------------------------------------------------------------- the oracle
def _build_rays() -> List[List[Tuple[int, ...]]]:
    rays: List[List[Tuple[int, ...]]] = []
    for sq in range(64):
        r, c = divmod(sq, 8)
        sq_rays = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                ray = []
                rr, cc = r + dr, c + dc
                while 0 <= rr < 8 and 0 <= cc < 8:
                    ray.append(rr * 8 + cc)
                    rr += dr
                    cc += dc
                if len(ray) >= 2:
                    sq_rays.append(tuple(ray))
        rays.append(sq_rays)
    return rays


_RAYS = _build_rays()
_CORNER_SQUARES = (0, 7, 56, 63)


def scan_flips(board: Board, square: int, player: int) -> List[int]:
    if board[square] != EMPTY:
        return []
    opponent = -player
    flips: List[int] = []
    for ray in _RAYS[square]:
        if board[ray[0]] != opponent:
            continue
        run = [ray[0]]
        for pos in ray[1:]:
            v = board[pos]
            if v == opponent:
                run.append(pos)
            elif v == player:
                flips.extend(run)
                break
            else:
                break
    return flips


def scan_legal_moves(board: Board, player: int) -> List[int]:
    return [sq for sq in range(64) if board[sq] == EMPTY and scan_flips(board, sq, player)]


def scan_apply_move(board: Board, square: int, player: int) -> Board:
    flips = scan_flips(board, square, player)
    assert flips, "the oracle only plays legal moves"
    new = list(board)
    new[square] = player
    for f in flips:
        new[f] = player
    return tuple(new)


def scan_evaluate(board: Board, player: int) -> int:
    material = sum(board) * player
    mobility = len(scan_legal_moves(board, player)) - len(scan_legal_moves(board, -player))
    corners = sum(player * board[c] for c in _CORNER_SQUARES)
    return material + 4 * mobility + 25 * corners


def scan_alphabeta(board: Board, player: int, depth: int) -> Tuple[int, int]:
    nodes = 0

    def search(board, player, depth, alpha, beta, passed=False):
        nonlocal nodes
        nodes += 1
        if depth == 0:
            return scan_evaluate(board, player)
        moves = scan_legal_moves(board, player)
        if not moves:
            if passed:
                return 1000 * sum(board) * player
            return -search(board, -player, depth - 1, -beta, -alpha, True)
        value = -INF
        for move in moves:
            child = scan_apply_move(board, move, player)
            score = -search(child, -player, depth - 1, -beta, -alpha)
            if score > value:
                value = score
            if value > alpha:
                alpha = value
            if alpha >= beta:
                break
        return value

    value = search(board, player, depth, -INF, INF)
    return value, nodes


# ------------------------------------------------------------- positions
def playout(seed: int, plies: int, from_midgame: bool) -> List[Tuple[Board, int]]:
    """Every position of a random legal game, (board, side to move); a
    side with no move passes, and the game ends when neither can move."""
    rng = random.Random(seed)
    board, player = (midgame_board() if from_midgame else initial_board()), BLACK
    seen = [(board, player)]
    for _ in range(plies):
        moves = scan_legal_moves(board, player)
        if not moves:
            if not scan_legal_moves(board, -player):
                break  # game over
            player = -player
        else:
            board = scan_apply_move(board, rng.choice(moves), player)
            player = -player
        seen.append((board, player))
    return seen


def assert_rules_agree(board: Board, player: int) -> None:
    for side in (player, -player):
        assert legal_moves(board, side) == scan_legal_moves(board, side)
        assert evaluate(board, side) == scan_evaluate(board, side)
        own, opp = _to_bitboards(board, side)
        for sq in range(64):
            want = scan_flips(board, sq, side)
            got = _flips(own, opp, sq) if board[sq] == EMPTY else 0
            assert _squares(got) == sorted(want), (board, side, sq)
            if want:
                assert apply_move(board, sq, side) == scan_apply_move(board, sq, side)
            else:
                with pytest.raises(ApplicationError):
                    apply_move(board, sq, side)


# ------------------------------------------------------------- properties
@given(seed=st.integers(0, 10_000), plies=st.integers(0, 70), from_midgame=st.booleans())
@settings(max_examples=60, deadline=None)
def test_bitboard_rules_equal_array_scan(seed, plies, from_midgame):
    board, player = playout(seed, plies, from_midgame)[-1]
    assert_rules_agree(board, player)


@given(
    seed=st.integers(0, 10_000),
    plies=st.integers(0, 70),
    from_midgame=st.booleans(),
    depth=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_bitboard_alphabeta_equals_array_scan(seed, plies, from_midgame, depth):
    board, player = playout(seed, plies, from_midgame)[-1]
    assert alphabeta(board, player, depth) == scan_alphabeta(board, player, depth)


def test_full_games_cover_passes_and_game_over():
    """Whole random games: every position agrees, and the games include
    positions where the side to move must pass and finished games."""
    passes = finished = 0
    for seed in range(12):
        for from_midgame in (False, True):
            for board, player in playout(seed, 70, from_midgame):
                if scan_legal_moves(board, player):
                    continue
                if scan_legal_moves(board, -player):
                    passes += 1
                else:
                    finished += 1
                assert_rules_agree(board, player)
                assert alphabeta(board, player, 2) == scan_alphabeta(board, player, 2)
    assert passes > 0 and finished > 0, (passes, finished)
