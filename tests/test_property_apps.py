"""Property-based tests for the applications and the network."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.dct2 import compress_block, dct2_block, idct2_block
from repro.apps.gauss_seidel import make_system, row_partition
from repro.apps.knights_tour import knights_tour_workload
from repro.apps.othello import (
    BLACK,
    apply_move,
    evaluate,
    initial_board,
    legal_moves,
)
from repro.network import BROADCAST, EthernetBus, EthernetFrame
from repro.sim import RandomStreams, Simulator
from repro.util.tables import render_table


# ------------------------------------------------------------- Othello
def _random_position(rng_seed: int, plies: int):
    """A reachable position: random legal playout from the start."""
    import random

    rng = random.Random(rng_seed)
    board, player = initial_board(), BLACK
    for _ in range(plies):
        moves = legal_moves(board, player)
        if not moves:
            player = -player
            moves = legal_moves(board, player)
            if not moves:
                break
        board = apply_move(board, rng.choice(moves), player)
        player = -player
    return board, player


@given(seed=st.integers(0, 500), plies=st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_othello_move_invariants(seed, plies):
    board, player = _random_position(seed, plies)
    before = sum(1 for v in board if v != 0)
    for move in legal_moves(board, player):
        after_board = apply_move(board, move, player)
        after = sum(1 for v in after_board if v != 0)
        # exactly one disc added; at least one disc flipped to player
        assert after == before + 1
        own_before = sum(1 for v in board if v == player)
        own_after = sum(1 for v in after_board if v == player)
        assert own_after >= own_before + 2


@given(seed=st.integers(0, 500), plies=st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_othello_evaluation_antisymmetric(seed, plies):
    board, _ = _random_position(seed, plies)
    assert evaluate(board, BLACK) == -evaluate(board, -BLACK)


@given(seed=st.integers(0, 100), plies=st.integers(0, 12))
@settings(max_examples=20, deadline=None)
def test_othello_alphabeta_equals_minimax(seed, plies):
    from repro.apps.othello import alphabeta

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

    board, player = _random_position(seed, plies)
    value, _nodes = alphabeta(board, player, 2)
    assert value == minimax(board, player, 2)


# ------------------------------------------------------------- Knight's Tour
@given(n_jobs=st.integers(min_value=1, max_value=400))
@settings(max_examples=12, deadline=None)
def test_knights_tour_split_preserves_totals(n_jobs):
    w = knights_tour_workload(n_jobs)
    assert w.total_tours == 304  # 5x5 corner constant
    # prefixes are a true partition: pairwise non-prefix of each other
    prefixes = [j.prefix for j in w.jobs]
    for i, a in enumerate(prefixes):
        for b in prefixes[i + 1 :]:
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            assert longer[: len(shorter)] != shorter or shorter == longer


# ------------------------------------------------------------- DCT
@given(
    data=st.lists(st.floats(min_value=-255, max_value=255), min_size=16, max_size=16),
)
@settings(max_examples=100)
def test_dct_roundtrip_property(data):
    block = np.array(data).reshape(4, 4)
    assert np.allclose(idct2_block(dct2_block(block)), block, atol=1e-8)


@given(
    data=st.lists(
        st.floats(min_value=-100, max_value=100), min_size=16, max_size=16
    ),
    keep=st.floats(min_value=0.1, max_value=1.0),
)
@settings(max_examples=100)
def test_compress_never_increases_energy(data, keep):
    coeffs = np.array(data).reshape(4, 4)
    out = compress_block(coeffs, keep)
    assert np.sum(out**2) <= np.sum(coeffs**2) + 1e-9
    # surviving coefficients are unchanged
    mask = out != 0
    assert np.array_equal(out[mask], coeffs[mask])


# ------------------------------------------------------------- Gauss-Seidel
@given(n=st.integers(2, 80), size=st.integers(1, 12))
@settings(max_examples=100)
def test_row_partition_properties(n, size):
    bounds = row_partition(n, size)
    assert len(bounds) == size
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    lengths = [hi - lo for lo, hi in bounds]
    assert sum(lengths) == n
    assert max(lengths) - min(lengths) <= 1  # balanced
    for (l1, h1), (l2, h2) in zip(bounds, bounds[1:]):
        assert h1 == l2  # contiguous


@given(n=st.integers(2, 40), seed=st.integers(0, 1000))
@settings(max_examples=50)
def test_made_systems_always_dominant(n, seed):
    a, _ = make_system(n, seed)
    diag = np.abs(np.diag(a))
    off = np.abs(a).sum(axis=1) - diag
    assert np.all(diag > off)


# ------------------------------------------------------------- network
@given(
    n_stations=st.integers(min_value=2, max_value=8),
    n_frames=st.integers(min_value=1, max_value=10),
    seed=st.integers(0, 1000),
)
@settings(max_examples=25, deadline=None)
def test_ethernet_delivers_everything_exactly_once(n_stations, n_frames, seed):
    sim = Simulator()
    bus = EthernetBus(sim, RandomStreams(seed))
    received = []
    for i in range(n_stations):
        bus.attach(i, received.append)

    sent = []

    def sender(src, k=0):
        # Each frame goes out from the last one's completion.
        if k < n_frames:
            dst = (src + 1) % n_stations
            frame = EthernetFrame(src=src, dst=dst, payload=(src, k), payload_bytes=64)
            sent.append((src, k))
            bus.transmit(frame, lambda _status: sender(src, k + 1))

    for i in range(n_stations):
        sender(i)
    sim.run_all()
    got = [f.payload for f in received]
    assert sorted(got) == sorted(sent)


# ------------------------------------------------------------- tables
@given(
    rows=st.lists(
        st.tuples(
            st.integers(),
            st.floats(allow_nan=False, allow_infinity=False),
            # single-line cells (multi-line content is not supported)
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=8,
            ),
        ),
        min_size=0,
        max_size=10,
    )
)
@settings(max_examples=50)
def test_render_table_rectangular(rows):
    text = render_table(["a", "b", "c"], rows)
    lines = text.splitlines()
    assert len(lines) == 2 + len(rows)
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # perfectly aligned
