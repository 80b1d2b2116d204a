"""Tests for the Othello application: game rules, search, parallel run."""

import pytest

from repro.apps.othello import (
    BLACK,
    EMPTY,
    WHITE,
    alphabeta,
    apply_move,
    best_move_seq,
    evaluate,
    initial_board,
    legal_moves,
    midgame_board,
    othello_worker,
    othello_workload,
)
from repro.dse import ClusterConfig, run_parallel
from repro.errors import ApplicationError
from repro.hardware import get_platform


def cfg(p=4, **kw):
    kw.setdefault("platform", get_platform("linux"))
    return ClusterConfig(n_processors=p, **kw)


# ------------------------------------------------------------- game rules
def test_initial_board_setup():
    board = initial_board()
    assert board.count(EMPTY) == 60
    assert board[27] == WHITE and board[36] == WHITE
    assert board[28] == BLACK and board[35] == BLACK


def test_initial_black_moves_are_the_classic_four():
    assert legal_moves(initial_board(), BLACK) == [19, 26, 37, 44]


def test_apply_move_flips():
    board = initial_board()
    after = apply_move(board, 19, BLACK)  # d3: flips d4 (27)
    assert after[19] == BLACK
    assert after[27] == BLACK
    assert sum(1 for v in after if v == BLACK) == 4
    assert sum(1 for v in after if v == WHITE) == 1


def test_apply_move_does_not_mutate_input():
    board = initial_board()
    apply_move(board, 19, BLACK)
    assert board == initial_board()


def test_illegal_move_rejected():
    with pytest.raises(ApplicationError):
        apply_move(initial_board(), 0, BLACK)  # corner: no flips
    with pytest.raises(ApplicationError):
        apply_move(initial_board(), 27, BLACK)  # occupied
    for off_board in (-1, 64):
        with pytest.raises(ApplicationError):
            apply_move(initial_board(), off_board, BLACK)


def test_moves_are_symmetric_at_start():
    """Othello's start position is symmetric: both players have 4 moves."""
    board = initial_board()
    assert len(legal_moves(board, BLACK)) == len(legal_moves(board, WHITE)) == 4


def test_evaluate_antisymmetric():
    board = midgame_board()
    assert evaluate(board, BLACK) == -evaluate(board, WHITE)


def test_midgame_board_reproducible():
    b1, b2 = midgame_board(), midgame_board()
    assert b1 == b2
    assert sum(1 for v in b1 if v != EMPTY) > 8


# ------------------------------------------------------------- search
def test_alphabeta_depth0_is_static_eval():
    board = midgame_board()
    value, nodes = alphabeta(board, BLACK, 0)
    assert value == evaluate(board, BLACK)
    assert nodes == 1


def test_alphabeta_negative_depth_rejected():
    with pytest.raises(ApplicationError):
        alphabeta(initial_board(), BLACK, -1)


def test_alphabeta_equals_pure_minimax():
    """Alpha-beta pruning must not change the value (depth 3 exhaustive)."""

    def minimax(board, player, depth, passed=False):
        if depth == 0:
            return evaluate(board, player)
        moves = legal_moves(board, player)
        if not moves:
            if passed:
                return 1000 * sum(board) * player
            return -minimax(board, -player, depth - 1, True)
        return max(
            -minimax(apply_move(board, m, player), -player, depth - 1) for m in moves
        )

    board = midgame_board()
    for depth in (1, 2, 3):
        ab_value, _ = alphabeta(board, BLACK, depth)
        assert ab_value == minimax(board, BLACK, depth)


def test_alphabeta_node_count_grows_with_depth():
    board = midgame_board()
    counts = [alphabeta(board, BLACK, d)[1] for d in (1, 2, 3, 4)]
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_best_move_is_legal():
    board = midgame_board()
    move, value, nodes = best_move_seq(board, BLACK, 4)
    assert move in legal_moves(board, BLACK)
    assert nodes > 0


# ------------------------------------------------------------- workload
def test_workload_value_matches_sequential_search():
    for depth in (1, 2, 3, 4, 5):
        w = othello_workload(depth)
        _, seq_value, _ = best_move_seq(midgame_board(), BLACK, depth)
        assert w.best_value == seq_value, f"depth {depth}"


def test_workload_jobs_cover_all_root_moves():
    w = othello_workload(4)
    assert set(j.move1 for j in w.jobs) == set(w.root_moves)


def test_workload_cached():
    assert othello_workload(3) is othello_workload(3)


def test_workload_validation():
    with pytest.raises(ApplicationError):
        othello_workload(0)


# ------------------------------------------------------------- parallel
@pytest.mark.parametrize("depth", [1, 3, 5])
def test_parallel_value_matches_workload(depth):
    res = run_parallel(cfg(4), othello_worker, args=(depth,))
    out = res.returns[0]
    assert out["value"] == out["expected_value"]
    assert out["best_move"] in othello_workload(depth).root_moves


def test_parallel_all_jobs_processed_exactly_once():
    depth = 4
    res = run_parallel(cfg(5), othello_worker, args=(depth,))
    total = sum(out["jobs_done"] for out in res.returns.values())
    assert total == len(othello_workload(depth).jobs)


def test_parallel_deep_search_speeds_up():
    """Paper Figures 16-18: depth >= 7 shows clear speed-up at 6 procs."""
    plat = get_platform("sunos")
    r1 = run_parallel(cfg(1, n_machines=1, platform=plat), othello_worker, args=(7,))
    r6 = run_parallel(cfg(6, platform=plat), othello_worker, args=(7,))
    e1 = max(r["t1"] - r["t0"] for r in r1.returns.values())
    e6 = max(r["t1"] - r["t0"] for r in r6.returns.values())
    assert e1 / e6 > 2.5


def test_parallel_shallow_search_does_not_speed_up():
    plat = get_platform("sunos")
    r1 = run_parallel(cfg(1, n_machines=1, platform=plat), othello_worker, args=(2,))
    r6 = run_parallel(cfg(6, platform=plat), othello_worker, args=(2,))
    e1 = max(r["t1"] - r["t0"] for r in r1.returns.values())
    e6 = max(r["t1"] - r["t0"] for r in r6.returns.values())
    assert e6 > e1  # parallelising depth 2 is a net loss
