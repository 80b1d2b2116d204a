"""Two-dimensional Discrete Cosine Transform image compression (paper §4.2).

The source image is divided into independent N×N pixel blocks; every block
is DCT-transformed and compressed (only the largest fraction of coefficients
kept) — the classic JPEG-style pipeline the paper parallelises.

Parallel decomposition follows the paper: one *job* is one **block row**
(a band of N image rows holding a row of N×N blocks).  The source image
lives in the master's global-memory slice; bands are assigned cyclically,
and every job is one band read + the per-block transforms + one band
write back to the master's node.  An N×N block carries O(N⁴) transform
work but only N² pixels of traffic, so small blocks make each message
round-trip pay for almost no computation — the granularity effect that
flattens the 2×2 curve — while 4×4 and 8×8 blocks scale.

Cost model note: the numerical result is computed with the separable
matrix form (``C X Cᵀ``), but the *charged* operation count is the direct
evaluation of the DCT-II definition with on-the-fly cosine computation
(≈14 flops per coefficient-pixel term, ``14·N⁴`` per block), which is what
a straightforward 1999 implementation did.  The worker computes the
numbers one band at a time (:func:`dct2_band`: all of a band's blocks in
one stacked product and one threshold pass) but still charges the cost
block by block, one ``compute`` per block as the 1999 code ran it; the
band's coefficients are equal in every bit to the per-block
``compress_block(dct2_block(b), keep)``.  Tests verify the transform
itself against ``scipy``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Generator, Tuple

import numpy as np

from ..dse.api import ParallelAPI
from ..errors import ApplicationError
from ..hardware.cpu import Work
from ..sim.core import Event

__all__ = [
    "make_image",
    "dct_matrix",
    "dct2_block",
    "idct2_block",
    "compress_block",
    "dct2_band",
    "dct2_image_seq",
    "block_work",
    "sequential_work",
    "dct2_worker",
    "DEFAULT_KEEP",
]

#: fraction of coefficients kept ("25% compression rate" reconstruction)
DEFAULT_KEEP = 0.25


def make_image(size: int, seed: int = 11) -> np.ndarray:
    """A deterministic synthetic grayscale image: smooth field + texture."""
    if size < 2:
        raise ApplicationError(f"image size must be >= 2, got {size}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(float) / size
    smooth = 128 + 80 * np.sin(3.1 * xx) * np.cos(2.3 * yy) + 40 * xx * yy
    noise = rng.normal(0.0, 6.0, size=(size, size))
    return np.clip(smooth + noise, 0, 255)


@lru_cache(maxsize=None)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    c = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    c *= np.sqrt(2.0 / n)
    c[0] *= np.sqrt(0.5)
    return c


def dct2_block(block: np.ndarray) -> np.ndarray:
    """2-D DCT-II (orthonormal) of one square block."""
    c = dct_matrix(block.shape[0])
    return c @ block @ c.T


def idct2_block(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT (orthonormal), for round-trip tests."""
    c = dct_matrix(coeffs.shape[0])
    return c.T @ coeffs @ c


def compress_block(coeffs: np.ndarray, keep: float) -> np.ndarray:
    """Zero all but the ``keep`` fraction of largest-magnitude coefficients."""
    if not (0 < keep <= 1):
        raise ApplicationError(f"keep fraction must be in (0, 1], got {keep}")
    n_keep = max(1, int(round(keep * coeffs.size)))
    if n_keep >= coeffs.size:
        return coeffs.copy()
    flat = np.abs(coeffs).ravel()
    threshold = np.partition(flat, coeffs.size - n_keep)[coeffs.size - n_keep]
    out = np.where(np.abs(coeffs) >= threshold, coeffs, 0.0)
    return out


def dct2_band(band: np.ndarray, block_size: int, keep: float) -> np.ndarray:
    """Compressed DCT coefficients of a band of ``block_size`` image rows.

    Equal in every bit to ``compress_block(dct2_block(b), keep)`` on each
    B×B block ``b`` of the band: the stacked product runs the same matrix
    product per block, and the threshold is the same order statistic, taken
    per block along one axis, with the same rules for ``n_keep``, ties
    (every coefficient as large as the threshold is kept) and ``keep=1``.
    """
    if not (0 < keep <= 1):
        raise ApplicationError(f"keep fraction must be in (0, 1], got {keep}")
    b = block_size
    c = dct_matrix(b)
    blocks = band.reshape(b, -1, b).transpose(1, 0, 2)  # (blocks, B, B) view
    coeffs = c @ blocks @ c.T
    n_keep = max(1, int(round(keep * b * b)))
    if n_keep < b * b:
        mags = np.abs(coeffs)
        k = b * b - n_keep
        threshold = np.partition(mags.reshape(len(mags), -1), k, axis=1)[:, k]
        coeffs = np.where(mags >= threshold[:, None, None], coeffs, 0.0)
    return coeffs.transpose(1, 0, 2).reshape(band.shape)


def block_work(block_size: int) -> Work:
    """Charged cost of transforming+compressing one block.

    Direct DCT-II: B² output coefficients, each summing B² terms of
    ``pixel · cos(...) · cos(...)`` with the two cosines evaluated through
    libm in the loop (~12 flops each, plus the multiply-add: ~25 flops per
    term), plus the threshold compression pass.
    """
    b = block_size
    return Work(flops=25.0 * b**4 + 2.0 * b * b, mems=3.0 * b * b)


def sequential_work(size: int, block_size: int) -> Work:
    blocks = (size // block_size) ** 2
    return block_work(block_size).scaled(blocks)


def dct2_image_seq(
    image: np.ndarray, block_size: int, keep: float = DEFAULT_KEEP
) -> np.ndarray:
    """Sequential reference: compressed DCT coefficients of the image."""
    size = image.shape[0]
    if image.shape[0] != image.shape[1]:
        raise ApplicationError("image must be square")
    if size % block_size != 0:
        raise ApplicationError(
            f"block size {block_size} does not divide image size {size}"
        )
    out = np.empty_like(image, dtype=float)
    for by in range(0, size, block_size):
        for bx in range(0, size, block_size):
            block = image[by : by + block_size, bx : bx + block_size]
            out[by : by + block_size, bx : bx + block_size] = compress_block(
                dct2_block(block), keep
            )
    return out


def blocks_per_side(size: int, block_size: int) -> int:
    if size % block_size != 0:
        raise ApplicationError(
            f"block size {block_size} does not divide image size {size}"
        )
    return size // block_size


def dct2_worker(
    api: ParallelAPI,
    size: int,
    block_size: int,
    keep: float = DEFAULT_KEEP,
    seed: int = 11,
    verify: bool = True,
) -> Generator[Event, Any, Dict[str, Any]]:
    """DSE-parallel DCT-II compression (run under ``run_parallel``).

    Global-memory layout (all in the master's slice): band *j* — image
    rows ``j·B .. (j+1)·B`` — at ``j·B·size``, with the coefficient output
    area right after the image.  Band *j* is processed by rank
    ``j % size``.
    """
    n_bands = blocks_per_side(size, block_size)
    band_words = block_size * size
    in_base = 0
    out_base = in_base + n_bands * band_words

    # Distribution phase (untimed: before the start barrier): the master
    # loads the source image into its slice.
    if api.rank == 0:
        image = make_image(size, seed)
        yield from api.gm_write(in_base, image.ravel())
    yield from api.barrier("dct:loaded")
    t0 = api.now

    # Processing phase: one job per band, assigned cyclically.
    work = block_work(block_size)
    my_bands = 0
    for j in range(api.rank, n_bands, api.size):
        data = yield from api.gm_read(in_base + j * band_words, band_words)
        out = dct2_band(data.reshape(block_size, size), block_size, keep)
        for _ in range(0, size, block_size):  # one charge per block
            yield from api.compute(work)
        yield from api.gm_write(out_base + j * band_words, out.ravel())
        my_bands += 1
    yield from api.barrier("dct:done")
    t1 = api.now

    # Verification gather (rank 0 only): reassemble the coefficient image.
    result: Dict[str, Any] = {"bands": my_bands, "t0": t0, "t1": t1}
    if verify and api.rank == 0:
        data = yield from api.gm_read(out_base, n_bands * band_words)
        result["coeffs"] = data.reshape(size, size)
    return result
