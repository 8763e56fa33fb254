"""Spectrum construction and fractal self-similarity statistics.

All spectra live in the unshifted DFT layout (DC bin at index [0, 0]).  In
that layout, 2x zero-insertion upsampling tiles the spectrum exactly into a
2x2 block grid, so the four contiguous quadrants of an upsampled image's
spectrum are filtered copies of one another.  The statistics below quantify
that agreement.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError, ParameterError
from .fft import dft2
from .ops import elementwise_mul


def spectrum_of(image: np.ndarray) -> np.ndarray:
    """Per-channel magnitude spectrum of an (..., H, W) image, unshifted."""
    return np.abs(dft2(image))


def quadrant_split(spectrum: np.ndarray):
    """Split the trailing two axes into four contiguous (H/2, W/2) blocks.

    Returns (s00, s01, s10, s11) in index order: s00 covers rows [0, H/2) and
    columns [0, W/2), s01 the high columns, s10 the high rows, s11 both.
    """
    spectrum = np.asarray(spectrum)
    h, w = spectrum.shape[-2:]
    if h % 2 or w % 2:
        raise DimensionError(f"quadrant split needs even extents, got {h}x{w}")
    hh, hw = h // 2, w // 2
    return (
        spectrum[..., :hh, :hw],
        spectrum[..., :hh, hw:],
        spectrum[..., hh:, :hw],
        spectrum[..., hh:, hw:],
    )


def quadrant_average(s00, s01, s10, s11) -> np.ndarray:
    """Elementwise mean of four equally shaped branches."""
    blocks = [np.asarray(b) for b in (s00, s01, s10, s11)]
    shape = blocks[0].shape
    for b in blocks[1:]:
        if b.shape != shape:
            raise DimensionError(f"branch shape mismatch: {b.shape} vs {shape}")
    # Pairwise tree keeps the average of four identical blocks bit-exact.
    return ((blocks[0] + blocks[1]) + (blocks[2] + blocks[3])) / 4.0


def self_similarity(spectrum: np.ndarray) -> float:
    """Scalar agreement of the four spectrum quadrants.

    Each quadrant is first scaled to unit mean (an all-zero quadrant stays
    zero), so the statistic measures structural agreement rather than raw
    spectral energy and is invariant to image brightness and size.  The
    scaled quadrants are fused by elementwise multiplication, and the
    statistic is the mean of log(1 + product), which tames the heavy tail of
    magnitude products.
    """
    scaled = []
    for block in quadrant_split(spectrum):
        block = np.asarray(block, dtype=np.float64)
        m = block.mean()
        scaled.append(block / m if m > 0 else block)
    return float(np.mean(np.log1p(elementwise_mul(*scaled))))


def fractal_pyramid(spectrum: np.ndarray, n_levels: int) -> list:
    """Recursive quadrant-average decomposition of a spectrum.

    Returns ``n_levels + 1`` levels: the input spectrum, then for each
    halving the elementwise mean of the previous level's four quadrants.
    """
    spectrum = np.asarray(spectrum)
    if n_levels < 0:
        raise ParameterError(f"n_levels must be >= 0, got {n_levels}")
    h, w = spectrum.shape[-2:]
    div = 1 << n_levels
    if h % div or w % div:
        raise ParameterError(
            f"extents {h}x{w} not divisible by 2^{n_levels}; cannot split that deep"
        )
    if n_levels and min(h, w) // div < 2:
        raise ParameterError(
            f"{n_levels} levels would shrink {h}x{w} below a 2x2 coarsest level"
        )
    levels = [spectrum]
    for _ in range(n_levels):
        levels.append(quadrant_average(*quadrant_split(levels[-1])))
    return levels


def self_similarity_features(spectrum: np.ndarray, n_levels: int) -> np.ndarray:
    """Per-level self-similarity statistics S(0)..S(n_levels) of the pyramid.

    Every level, including the coarsest, is quadrant-split once more for its
    statistic, so the extents must be divisible by 2**(n_levels + 1).
    """
    return np.array([self_similarity(lv) for lv in fractal_pyramid(spectrum, n_levels)])


def average_spectrum(images) -> np.ndarray:
    """Elementwise mean of the magnitude spectra of equally sized images."""
    total = None
    count = 0
    for image in images:
        mag = spectrum_of(np.asarray(image, dtype=np.float64))
        if total is None:
            total = mag
        elif total.shape != mag.shape:
            raise DimensionError(
                f"corpus images disagree in size: {mag.shape} vs {total.shape}"
            )
        else:
            total += mag
        count += 1
    if count == 0:
        raise DataError("cannot average an empty corpus")
    return total / count


def quadrant_correlation(spectrum: np.ndarray) -> float:
    """Mean pairwise normalized cross-correlation of the four quadrants.

    1.0 means the quadrants are identical up to affine scaling; white-noise
    spectra score near 0.
    """
    blocks = [np.asarray(b, dtype=np.float64).ravel() for b in quadrant_split(spectrum)]
    coefs = []
    for i in range(4):
        for j in range(i + 1, 4):
            a = blocks[i] - blocks[i].mean()
            b = blocks[j] - blocks[j].mean()
            denom = np.linalg.norm(a) * np.linalg.norm(b)
            coefs.append(float(a @ b / denom) if denom > 0 else 0.0)
    return float(np.mean(coefs))


def export_view(spectrum: np.ndarray) -> np.ndarray:
    """Log-scaled, centered (DC in the middle), max-normalized copy of a spectrum in [0, 1]."""
    view = np.fft.fftshift(np.log1p(np.asarray(spectrum, dtype=np.float64)), axes=(-2, -1))
    peak = view.max()
    if peak > 0:
        view = view / peak
    return view
