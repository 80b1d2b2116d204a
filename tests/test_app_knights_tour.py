"""Tests for the Knight's Tour application."""

import pytest

from repro.apps.knights_tour import (
    DEFAULT_BOARD,
    DEFAULT_START,
    _Search,
    _stabiliser,
    count_tours_seq,
    knight_moves,
    knights_tour_worker,
    knights_tour_workload,
)
from repro.dse import ClusterConfig, run_parallel
from repro.errors import ApplicationError
from repro.hardware import get_platform


def cfg(p=4, **kw):
    kw.setdefault("platform", get_platform("linux"))
    return ClusterConfig(n_processors=p, **kw)


# ------------------------------------------------------------- moves
def test_knight_moves_counts():
    moves = knight_moves(5)
    # Corner has 2 moves, centre of 5x5 has 8.
    assert len(moves[0]) == 2
    assert len(moves[12]) == 8
    assert all(0 <= d < 25 for dests in moves for d in dests)


def test_knight_moves_symmetric():
    moves = knight_moves(6)
    for sq, dests in enumerate(moves):
        for d in dests:
            assert sq in moves[d]


def test_knight_moves_validation():
    with pytest.raises(ApplicationError):
        knight_moves(2)


# ------------------------------------------------------------- sequential
def test_count_tours_5x5_from_corner_is_304():
    """The known result: 304 open knight's tours start at a 5x5 corner."""
    tours, nodes = count_tours_seq(5, 0)
    assert tours == 304
    assert nodes > 100_000


def test_count_tours_5x5_from_center_square():
    """5x5 tours exist only from squares of the majority colour; the centre
    square is one of them."""
    tours, _ = count_tours_seq(5, 12)
    assert tours == 64


def test_count_tours_impossible_start():
    """From a minority-colour square of the 5x5 board no tour exists."""
    tours, _ = count_tours_seq(5, 1)
    assert tours == 0


def test_count_tours_4x4_has_none():
    tours, _ = count_tours_seq(4, 0)
    assert tours == 0


# ------------------------------------------------------------- workload
def test_workload_partitions_preserve_totals():
    seq_tours, seq_nodes = count_tours_seq()
    for req in (1, 8, 32, 128):
        w = knights_tour_workload(req)
        assert w.total_tours == seq_tours, f"req={req}"
        assert len(w.jobs) >= min(req, 2)


def test_workload_more_jobs_requested_gives_more_jobs():
    sizes = [len(knights_tour_workload(req).jobs) for req in (8, 32, 128, 512)]
    assert sizes == sorted(sizes)
    assert sizes[0] < sizes[-1]


def test_workload_prefixes_unique_and_valid():
    w = knights_tour_workload(32)
    prefixes = [j.prefix for j in w.jobs]
    assert len(set(prefixes)) == len(prefixes)
    moves = knight_moves(DEFAULT_BOARD)
    for prefix in prefixes:
        assert prefix[0] == DEFAULT_START
        assert len(set(prefix)) == len(prefix)  # no revisits
        for a, b in zip(prefix, prefix[1:]):
            assert b in moves[a]  # consecutive squares knight-connected


def test_workload_validation():
    with pytest.raises(ApplicationError):
        knights_tour_workload(0)


@pytest.mark.parametrize(
    "board,start",
    [(4, s) for s in range(16)] + [(5, 0), (5, 2), (5, 12)],
)
def test_orbit_measurement_equals_plain_search(board, start):
    """Each job measured once per symmetry orbit carries exactly what a
    plain search of its own prefix counts."""
    search = _Search(board)
    for n_jobs in (1, 8, 32, 128):
        for job in knights_tour_workload(n_jobs, board, start).jobs:
            search.nodes = search.tours = 0
            search.run_from(job.prefix)
            assert (job.nodes, job.tours) == (search.nodes, search.tours), job.prefix


def test_stabiliser_orders():
    """The symmetries fixing a 5x5 corner, edge midpoint and centre."""
    assert [len(_stabiliser(5, s)) for s in (0, 1, 2, 12)] == [2, 1, 2, 8]
    assert all(len(_stabiliser(4, s)) == 2 for s in (0, 5, 10, 15))
    assert all(len(_stabiliser(4, s)) == 1 for s in (1, 2, 4, 7))


def test_corner_frontier_pairs_up_under_transpose():
    """5x5 from the corner: the transpose maps the 258 prefixes of 128
    jobs onto themselves and fixes none, so they take 129 searches."""
    w = knights_tour_workload(128)
    assert len(w.jobs) == 258
    identity, transpose = _stabiliser(DEFAULT_BOARD, DEFAULT_START)
    assert identity == tuple(range(25))
    prefixes = {j.prefix for j in w.jobs}
    images = {p: tuple(transpose[sq] for sq in p) for p in prefixes}
    assert set(images.values()) == prefixes
    assert all(image != p for p, image in images.items())


# ------------------------------------------------------------- parallel
@pytest.mark.parametrize("n_jobs", [8, 32, 128])
def test_parallel_counts_all_tours(n_jobs):
    res = run_parallel(cfg(4), knights_tour_worker, args=(n_jobs,))
    out = res.returns[0]
    assert out["tours"] == 304
    assert out["tours"] == out["expected_tours"]


def test_parallel_every_job_processed():
    res = run_parallel(cfg(5), knights_tour_worker, args=(32,))
    total = sum(out["jobs_done"] for out in res.returns.values())
    assert total == res.returns[0]["n_jobs_actual"]


def test_parallel_static_assignment_is_cyclic():
    res = run_parallel(cfg(3), knights_tour_worker, args=(8,))
    njobs = res.returns[0]["n_jobs_actual"]
    for rank, out in res.returns.items():
        expected = len(range(rank, njobs, 3))
        assert out["jobs_done"] == expected


def test_parallel_midrange_jobs_beat_extremes_at_six_procs():
    """The paper's granularity result (Figures 19-21): at 6 processors a
    middling job count beats both very few and very many jobs."""
    plat = get_platform("sunos")

    def elapsed(n_jobs):
        res = run_parallel(cfg(6, platform=plat), knights_tour_worker, args=(n_jobs,))
        return max(r["t1"] - r["t0"] for r in res.returns.values())

    e_few, e_mid, e_many = elapsed(2), elapsed(32), elapsed(512)
    assert e_mid < e_few
    assert e_mid < e_many


def test_parallel_speedup_declines_past_six_processors():
    plat = get_platform("sunos")

    def elapsed(p):
        res = run_parallel(cfg(p, platform=plat), knights_tour_worker, args=(32,))
        return max(r["t1"] - r["t0"] for r in res.returns.values())

    assert elapsed(8) > elapsed(6)  # kernels double up beyond 6 machines
