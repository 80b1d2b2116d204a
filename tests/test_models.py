"""Model-vs-simulation validation for the analytic performance model."""

import pytest

from repro.apps import gauss_seidel_worker
from repro.experiments import sweep_processors
from repro.experiments.models import (
    barrier_cost,
    colocation_factor,
    message_cost,
    predict_gauss_seidel,
)
from repro.hardware import LINUX_PCAT, SUNOS_SPARCSTATION, get_platform

PROCS = (1, 2, 4, 6, 8, 12)


def test_colocation_factor_shape():
    assert colocation_factor(1, 6, LINUX_PCAT) == 1.0
    assert colocation_factor(6, 6, LINUX_PCAT) == 1.0
    f8 = colocation_factor(8, 6, LINUX_PCAT)
    f12 = colocation_factor(12, 6, LINUX_PCAT)
    assert f8 == f12 > 2.0  # two kernels per machine + tax
    assert colocation_factor(13, 6, LINUX_PCAT) > f12  # three on some machine


def test_message_cost_monotone_in_size_and_platform():
    small = message_cost(SUNOS_SPARCSTATION, 64)
    large = message_cost(SUNOS_SPARCSTATION, 8000)
    assert large > small
    assert message_cost(SUNOS_SPARCSTATION, 64) > message_cost(LINUX_PCAT, 64)


def test_message_cost_in_millisecond_ballpark():
    """1999 user-level UDP round trips were ~1-3 ms on SunOS."""
    rt = message_cost(SUNOS_SPARCSTATION, 64)
    assert 0.5e-3 < rt < 5e-3


def test_message_cost_reads_the_socket_syscall_weights(monkeypatch):
    """The analytic model charges the same sendto/recvfrom weights as the
    simulated socket, so re-weighting a syscall moves both."""
    from repro.osmodel.syscall import SYSCALL_WEIGHTS

    base = message_cost(SUNOS_SPARCSTATION, 64)
    monkeypatch.setitem(SYSCALL_WEIGHTS, "sendto", SYSCALL_WEIGHTS["sendto"] + 2.0)
    # Two messages per round trip, each paying one sendto.
    extra = 2 * SUNOS_SPARCSTATION.os_costs.syscall * 2.0
    assert message_cost(SUNOS_SPARCSTATION, 64) == pytest.approx(base + extra, rel=1e-12)


def test_barrier_cost_grows_with_parties():
    assert barrier_cost(LINUX_PCAT, 1) == 0.0
    assert barrier_cost(LINUX_PCAT, 12) > barrier_cost(LINUX_PCAT, 4)


@pytest.mark.parametrize("platform_key", ["sunos", "linux"])
@pytest.mark.parametrize("n", [100, 900])
def test_model_tracks_simulation(platform_key, n):
    """The closed-form prediction stays within 3x of the simulator at
    every point, and much closer where compute dominates."""
    platform = get_platform(platform_key)
    model = predict_gauss_seidel(platform, n, 5, PROCS)
    sim = {
        m.n_processors: m.elapsed
        for m in sweep_processors(
            platform, gauss_seidel_worker, (n, 5, 7, False), PROCS
        )
    }
    for p in PROCS:
        ratio = model[p] / sim[p]
        assert 1 / 3 < ratio < 3, (p, model[p], sim[p])
    # Sequential point: near-exact (the simulator adds small local
    # global-memory access costs the model omits).
    assert model[1] == pytest.approx(sim[1], rel=0.10)


def test_model_predicts_the_knee():
    """Both model and simulation put the N=900 optimum at 4-6 processors
    and agree that 12 is worse than the optimum."""
    platform = get_platform("sunos")
    model = predict_gauss_seidel(platform, 900, 5, PROCS)
    best = min(model, key=model.get)
    assert best in (4, 6)
    assert model[12] > model[best]


def test_model_predicts_small_n_collapse():
    platform = get_platform("linux")
    model = predict_gauss_seidel(platform, 100, 5, PROCS)
    assert model[6] > model[1]  # parallelising n=100 is a net loss
