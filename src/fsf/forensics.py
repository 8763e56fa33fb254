"""Preprocessing and robustness stack: residuals, distortions, augmentation.

The detector never sees raw pixels; it sees the noise residual (image minus
its median-blurred version), optionally after the standard robustness
distortions.  The augmentation policy gates each distortion independently
with 10% probability, then center-crops (reflect-padding when the image is
too small).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .ops import median_filter

# Standard 8x8 luminance quantization table (quality 50 reference).
JPEG_LUMA_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


def _graymap(image: np.ndarray) -> np.ndarray:
    """``image`` as a float64 (H, W) array; anything else is rejected."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ParameterError(f"expected an (H, W) graymap, got shape {image.shape}")
    return image


# ---------------------------------------------------------------------------
# Noise residual
# ---------------------------------------------------------------------------

def noise_residual(image: np.ndarray, k: int = 7) -> np.ndarray:
    """Graymap minus its median-blurred version."""
    image = _graymap(image)
    return image - median_filter(image, k)


# ---------------------------------------------------------------------------
# JPEG quantization round trip
# ---------------------------------------------------------------------------

def jpeg_quant_table(quality: int) -> np.ndarray:
    """Quality-scaled luminance quantization table (integer steps in [1, 255])."""
    if not 1 <= quality <= 100:
        raise ParameterError(f"quality must be in [1, 100], got {quality}")
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    table = np.floor((JPEG_LUMA_TABLE * scale + 50) / 100)
    return np.clip(table, 1, 255)


def _dct_matrix() -> np.ndarray:
    x = np.arange(8)
    mat = np.cos((2 * x[None, :] + 1) * x[:, None] * np.pi / 16)
    mat *= np.sqrt(2.0 / 8.0)
    mat[0] *= np.sqrt(0.5)
    return mat


_DCT = _dct_matrix()


def jpeg_distort(image: np.ndarray, quality: int) -> np.ndarray:
    """Block-DCT quantization round trip at the given quality.

    Covers the pixel-level effect of JPEG compression: 8x8 DCT, quality
    scaled quantization of the luminance table, dequantization, inverse DCT.
    Entropy coding is lossless and therefore omitted.
    """
    table = jpeg_quant_table(quality)
    image = _graymap(image)
    h, w = image.shape
    padded = np.pad(image, ((0, (-h) % 8), (0, (-w) % 8)), mode="reflect")
    ph, pw = padded.shape
    levels = padded * 255.0 - 128.0
    blocks = levels.reshape(ph // 8, 8, pw // 8, 8).transpose(0, 2, 1, 3)
    coefs = _DCT @ blocks @ _DCT.T
    coefs = np.rint(coefs / table) * table
    restored = _DCT.T @ coefs @ _DCT
    restored = restored.transpose(0, 2, 1, 3).reshape(ph, pw)
    return np.clip((restored[:h, :w] + 128.0) / 255.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Gaussian blur and bilinear downsampling
# ---------------------------------------------------------------------------

def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, kernel radius ceil(3*sigma), reflect borders."""
    if sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    image = _graymap(image)
    if sigma == 0:
        return image.copy()
    radius = int(np.ceil(3 * sigma))
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    taps /= taps.sum()

    def blur_rows(x):  # vertical pass; on the transpose it is the horizontal one
        xp = np.pad(x, ((radius, radius), (0, 0)), mode="reflect")
        out = np.zeros_like(x)
        for i, tap in enumerate(taps):
            out += tap * xp[i:i + len(x)]
        return out

    return blur_rows(blur_rows(image).T).T


def downsample(image: np.ndarray) -> np.ndarray:
    """Bilinear resampling to half size (half-pixel centers)."""
    image = _graymap(image)

    def axis_weights(n, n_out):
        src = (np.arange(n_out) + 0.5) * (n / n_out) - 0.5
        i0 = np.clip(np.floor(src).astype(int), 0, n - 1)
        i1 = np.minimum(i0 + 1, n - 1)
        frac = np.clip(src - i0, 0.0, 1.0)
        return i0, i1, frac

    h, w = image.shape
    r0, r1, rf = axis_weights(h, (h + 1) // 2)
    rows = image[r0] * (1 - rf)[:, None] + image[r1] * rf[:, None]
    c0, c1, cf = axis_weights(w, (w + 1) // 2)
    return rows[:, c0] * (1 - cf) + rows[:, c1] * cf


# ---------------------------------------------------------------------------
# Crop / pad
# ---------------------------------------------------------------------------

def center_crop_pad(image: np.ndarray, size: int = 224) -> np.ndarray:
    """Center crop to size x size; reflect-pad first when too small."""
    image = _graymap(image)
    h, w = image.shape
    pad_h = max(size - h, 0)
    pad_w = max(size - w, 0)
    if pad_h or pad_w:
        pads = ((pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2))
        image = np.pad(image, pads, mode="reflect")
        h, w = image.shape
    top = (h - size) // 2
    left = (w - size) // 2
    return image[top:top + size, left:left + size].copy()


# ---------------------------------------------------------------------------
# Distortion and augmentation policies
# ---------------------------------------------------------------------------

DISTORTION_KINDS = ("none", "jpeg", "downsample", "gaussian_blur")


@dataclass(frozen=True)
class DistortionConfig:
    """One evaluation-time distortion."""

    kind: str = "none"
    jpeg_quality: int = 95
    blur_sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in DISTORTION_KINDS:
            raise ParameterError(f"unknown distortion kind {self.kind!r}")
        if not 1 <= self.jpeg_quality <= 100:
            raise ParameterError(f"jpeg quality must be in 1..100, got {self.jpeg_quality}")
        if not 0 <= self.blur_sigma < np.inf:
            raise ParameterError(f"blur sigma must be finite and >= 0, got {self.blur_sigma}")

    @property
    def label(self) -> str:
        return {
            "none": "none",
            "jpeg": f"jpeg{self.jpeg_quality}",
            "downsample": "down0.5",
            "gaussian_blur": f"blur{self.blur_sigma:g}",
        }[self.kind]

    def apply(self, image: np.ndarray) -> np.ndarray:
        if self.kind == "jpeg":
            return jpeg_distort(image, self.jpeg_quality)
        if self.kind == "downsample":
            return downsample(image)
        if self.kind == "gaussian_blur":
            return gaussian_blur(image, self.blur_sigma)
        return np.asarray(image, dtype=np.float64)


@dataclass
class AugmentPolicy:
    """Training-time augmentation gates, each fired independently."""

    p_jpeg: float = 0.1
    p_blur: float = 0.1
    p_down: float = 0.1
    jpeg_quality_range: tuple = (70, 100)  # uniform integers, inclusive
    blur_sigma_range: tuple = (0.0, 1.0)
    crop: int = 224

    def __post_init__(self):
        for p in (self.p_jpeg, self.p_blur, self.p_down):
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"gate probability {p} outside [0, 1]")
        lo, hi = self.jpeg_quality_range
        if not (1 <= lo <= hi <= 100):
            raise ParameterError(f"bad jpeg quality range {self.jpeg_quality_range}")
        lo, hi = self.blur_sigma_range
        if not 0.0 <= lo <= hi < float("inf"):
            raise ParameterError(f"bad blur sigma range {self.blur_sigma_range}")
        if self.crop < 1:
            raise ParameterError(f"crop must be >= 1, got {self.crop}")


def draw_augment_plan(policy: AugmentPolicy | None, rng: np.random.Generator) -> tuple:
    """Sample the three independent gates (fixed draw order: jpeg, blur, down).

    Returns the distortions whose gates fired, in that order.  Without a
    policy the plan is empty and nothing is drawn from ``rng``.
    """
    if policy is None:
        return ()
    gates = rng.random(3)
    plan = []
    if gates[0] < policy.p_jpeg:
        lo, hi = policy.jpeg_quality_range
        plan.append(DistortionConfig("jpeg", jpeg_quality=int(rng.integers(lo, hi + 1))))
    if gates[1] < policy.p_blur:
        lo, hi = policy.blur_sigma_range
        plan.append(DistortionConfig("gaussian_blur", blur_sigma=float(lo + (hi - lo) * rng.random())))
    if gates[2] < policy.p_down:
        plan.append(DistortionConfig("downsample"))
    return tuple(plan)


def apply_augment_plan(image: np.ndarray, plan: tuple, size: int) -> np.ndarray:
    """Apply the plan's distortions in order, then center-crop/pad to ``size``."""
    out = np.asarray(image, dtype=np.float64)
    for distortion in plan:
        out = distortion.apply(out)
    return center_crop_pad(out, size)
