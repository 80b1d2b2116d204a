"""Tests for the DCT-II application (sequential + DSE-parallel)."""

import numpy as np
import pytest
import scipy.fft

from repro.apps.dct2 import (
    block_work,
    blocks_per_side,
    compress_block,
    dct2_band,
    dct2_block,
    dct2_image_seq,
    dct2_worker,
    dct_matrix,
    idct2_block,
    make_image,
    sequential_work,
)
from repro.dse import ClusterConfig, run_parallel
from repro.errors import ApplicationError
from repro.hardware import get_platform


def cfg(p=4, **kw):
    kw.setdefault("platform", get_platform("linux"))
    return ClusterConfig(n_processors=p, **kw)


def test_dct_matrix_orthonormal():
    for n in (2, 4, 8, 16):
        c = dct_matrix(n)
        assert np.allclose(c @ c.T, np.eye(n), atol=1e-12)


def test_dct2_matches_scipy():
    rng = np.random.default_rng(0)
    for n in (2, 4, 8):
        block = rng.normal(size=(n, n))
        ours = dct2_block(block)
        scipys = scipy.fft.dctn(block, type=2, norm="ortho")
        assert np.allclose(ours, scipys, atol=1e-10)


def test_dct2_inverse_roundtrip():
    rng = np.random.default_rng(1)
    block = rng.normal(size=(8, 8))
    assert np.allclose(idct2_block(dct2_block(block)), block, atol=1e-10)


def test_compress_keeps_fraction():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=(8, 8))
    out = compress_block(coeffs, 0.25)
    assert np.count_nonzero(out) == 16
    # kept coefficients are the largest by magnitude
    kept = np.abs(out[out != 0])
    dropped = np.abs(coeffs[out == 0])
    assert kept.min() >= dropped.max()


def test_compress_keep_all():
    coeffs = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(compress_block(coeffs, 1.0), coeffs)


def test_compress_validation():
    with pytest.raises(ApplicationError):
        compress_block(np.zeros((2, 2)), 0.0)


def _per_block(band, block_size, keep):
    return np.hstack([
        compress_block(dct2_block(band[:, x : x + block_size]), keep)
        for x in range(0, band.shape[1], block_size)
    ])


@pytest.mark.parametrize("block_size", [2, 4, 8, 16])
@pytest.mark.parametrize("keep", [0.1, 0.25, 0.5, 1.0])
def test_band_kernel_is_byte_equal_to_per_block(block_size, keep):
    """One stacked product and one partition per band give the same bytes
    as the per-block reference, on every band of the image; a BLAS whose
    stacked product rounds differently fails here."""
    image = make_image(64, seed=3)
    for top in range(0, 64, block_size):
        band = image[top : top + block_size]
        assert dct2_band(band, block_size, keep).tobytes() == \
            _per_block(band, block_size, keep).tobytes()


def test_band_kernel_keeps_every_tie_at_the_threshold():
    """A lone top-left pixel in a 2x2 block has four coefficients of equal
    magnitude: with keep=0.25 (n_keep 1) all four tie at the threshold and
    all four are kept, by the band kernel as by compress_block."""
    band = np.array([[1.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    got = dct2_band(band, 2, 0.25)
    assert got.tobytes() == _per_block(band, 2, 0.25).tobytes()
    assert np.count_nonzero(got[:, :2]) == 4 and np.count_nonzero(got[:, 2:]) == 4
    assert len(set(np.abs(got[:, :2]).ravel())) == len(set(np.abs(got[:, 2:]).ravel())) == 1


def test_band_kernel_keep_all_and_validation():
    band = make_image(16)[:4]
    assert dct2_band(band, 4, 1.0).tobytes() == _per_block(band, 4, 1.0).tobytes()
    assert np.count_nonzero(dct2_band(band, 4, 1.0)) == band.size
    with pytest.raises(ApplicationError):
        dct2_band(band, 4, 0.0)


def test_make_image_deterministic_and_bounded():
    img = make_image(64)
    assert img.shape == (64, 64)
    assert img.min() >= 0 and img.max() <= 255
    assert np.array_equal(img, make_image(64))


def test_make_image_validation():
    with pytest.raises(ApplicationError):
        make_image(1)


def test_blocks_per_side_validation():
    assert blocks_per_side(64, 8) == 8
    with pytest.raises(ApplicationError):
        blocks_per_side(64, 7)


def test_seq_energy_preserved_under_full_keep():
    """Orthonormal DCT preserves total energy when nothing is dropped."""
    img = make_image(32)
    coeffs = dct2_image_seq(img, 8, keep=1.0)
    assert np.sum(img**2) == pytest.approx(np.sum(coeffs**2), rel=1e-10)


def test_seq_compression_reconstruction_quality():
    """25% of coefficients must reconstruct a smooth image well."""
    img = make_image(32)
    coeffs = dct2_image_seq(img, 8, keep=0.25)
    recon = np.empty_like(img)
    for by in range(0, 32, 8):
        for bx in range(0, 32, 8):
            recon[by : by + 8, bx : bx + 8] = idct2_block(coeffs[by : by + 8, bx : bx + 8])
    rel_err = np.linalg.norm(recon - img) / np.linalg.norm(img)
    assert rel_err < 0.05


def test_work_model_grows_with_block_size():
    per_pixel = {
        b: block_work(b).flops / (b * b) for b in (2, 4, 8)
    }
    assert per_pixel[2] < per_pixel[4] < per_pixel[8]
    total = sequential_work(64, 8)
    assert total.flops == pytest.approx(block_work(8).flops * 64)


@pytest.mark.parametrize("block_size", [2, 4, 8])
def test_parallel_matches_sequential(block_size):
    """The worker's per-band numbers equal the per-block reference in
    every bit."""
    res = run_parallel(cfg(3), dct2_worker, args=(32, block_size))
    expected = dct2_image_seq(make_image(32), block_size)
    assert res.returns[0]["coeffs"].tobytes() == expected.tobytes()


def test_parallel_block_counts_cover_image():
    res = run_parallel(cfg(4), dct2_worker, args=(64, 8))
    total_bands = sum(out["bands"] for out in res.returns.values())
    assert total_bands == 64 // 8


def test_parallel_rejects_bad_block_size():
    with pytest.raises(ApplicationError):
        run_parallel(cfg(2), dct2_worker, args=(64, 5))


def test_fine_blocks_slower_than_coarse_in_parallel():
    """The paper's granularity effect: at 6 processors, 2x2 blocks lose to
    8x8 blocks by far more than the pure flop ratio explains."""

    def elapsed(block):
        res = run_parallel(
            cfg(6, platform=get_platform("sunos")),
            dct2_worker,
            args=(64, block, 0.25, 11, False),
        )
        return max(r["t1"] - r["t0"] for r in res.returns.values())

    def seq_elapsed(block):
        res = run_parallel(
            cfg(1, n_machines=1, platform=get_platform("sunos")),
            dct2_worker,
            args=(64, block, 0.25, 11, False),
        )
        return max(r["t1"] - r["t0"] for r in res.returns.values())

    speedup_2 = seq_elapsed(2) / elapsed(2)
    speedup_8 = seq_elapsed(8) / elapsed(8)
    assert speedup_8 > 2.5
    assert speedup_2 < 2.0
    assert speedup_8 > speedup_2
