"""Synthetic generator pipelines and desk-scale corpus construction.

The "generated" class is produced by repeatedly 2x-upsampling a small random
base field, which imprints the characteristic tiled structure on the
spectrum.  Three upsampling families are available:

* ``zero_insert``  - samples on the even grid, zeros elsewhere; tiles the
  spectrum exactly.
* ``nearest``      - pixel duplication; tiling times a separable cosine
  envelope.
* ``tconv_conv``   - a seeded random 4x4 stride-2 transposed convolution
  followed by two 3x3 convolutions with a leaky-ReLU between them, the
  nonlinear filter bank common in learned generators.

The "real" class surrogate is a Gaussian random field with power-law
spectral decay, standing in for natural-image statistics so experiments
need no external data.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, ParameterError
from .fft import dft2, idft2
from .fileio import Manifest, ManifestEntry, write_manifest, write_pgm
from .ops import conv2d, leaky_relu, transposed_conv2d
from .parallel import parallel_map

UPSAMPLE_KINDS = ("zero_insert", "nearest", "tconv_conv")


# ---------------------------------------------------------------------------
# Single 2x upsampling stages
# ---------------------------------------------------------------------------

def upsample_zero(image: np.ndarray) -> np.ndarray:
    """Zero-insertion 2x upsampling: samples on the even grid, zeros elsewhere."""
    image = np.asarray(image)
    h, w = image.shape
    out = np.zeros((2 * h, 2 * w), dtype=image.dtype)
    out[::2, ::2] = image
    return out


def upsample_nearest(image: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x upsampling (pixel duplication)."""
    image = np.asarray(image)
    return np.repeat(np.repeat(image, 2, axis=0), 2, axis=1)


def upsample_tconv(image: np.ndarray, kernels) -> np.ndarray:
    """One learned-generator-style 2x stage; ``kernels`` is (tconv, conv1, conv2)."""
    tconv, conv1, conv2 = kernels
    x = leaky_relu(conv2d(transposed_conv2d(image, tconv), conv1), 0.2)
    return conv2d(x, conv2)


# ---------------------------------------------------------------------------
# Spectral watermarking (formation-process visualization)
# ---------------------------------------------------------------------------

def embed_spectral_watermark(image: np.ndarray, glyph_mask: np.ndarray, amplitude=None) -> np.ndarray:
    """Add a glyph to the magnitude spectrum and return the real image.

    ``glyph_mask`` covers the non-redundant half-plane, shape
    (H, W//2 + 1) with values in [0, 1].  The addition is mirrored onto the
    conjugate bins so the output stays real.  ``amplitude`` defaults to half
    the largest non-DC magnitude.
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if glyph_mask.shape != (h, w // 2 + 1):
        raise DimensionError(
            f"glyph mask must cover the half-plane (H, W//2+1) = ({h},{w // 2 + 1}), "
            f"got {glyph_mask.shape}"
        )
    full = np.zeros((h, w))
    full[:, : w // 2 + 1] = glyph_mask
    # mirror onto the conjugate bins: (u, v) -> (-u mod H, -v mod W)
    sym = np.maximum(full, np.roll(full[::-1, ::-1], (1, 1), axis=(0, 1)))

    spec = dft2(image)
    mag = np.abs(spec)
    if amplitude is None:
        off_dc = mag.copy()
        off_dc[0, 0] = 0.0
        amplitude = 0.5 * off_dc.max()
    phase = np.where(mag > 0, spec / np.maximum(mag, 1e-300), 1.0 + 0.0j)
    watermarked = phase * (mag + amplitude * sym)
    return idft2(watermarked).real


def letter_a_glyph(h: int, w_half: int) -> np.ndarray:
    """Rasterize a letter-'A' mask into an (h, w_half) half-plane array.

    The glyph sits at mid frequencies (away from the DC corner) so it stays
    visible after log scaling.
    """
    mask = np.zeros((h, w_half))
    gh = max(6, h // 3)
    gw = max(4, w_half // 3)
    top = h // 6
    left = w_half // 3
    apex = left + gw // 2
    for row in range(gh):
        t = row / max(gh - 1, 1)
        lx = apex - t * (gw / 2)
        rx = apex + t * (gw / 2)
        for x in (lx, rx):
            xi = int(round(x))
            if 0 <= top + row < h and 0 <= xi < w_half:
                mask[top + row, xi] = 1.0
    bar = top + (2 * gh) // 3
    for xi in range(int(apex - gw // 3), int(apex + gw // 3) + 1):
        if bar < h and 0 <= xi < w_half:
            mask[bar, xi] = 1.0
    return mask


# ---------------------------------------------------------------------------
# Image synthesis
# ---------------------------------------------------------------------------

def synth_real(seed: int, size: int, spectral_exponent: float = 1.0) -> np.ndarray:
    """Gaussian random field with |F| ~ f^(-exponent), min-max scaled to [0, 1].

    The surrogate for the "real" class: smooth power-law spectral decay,
    no periodic replication.  Deterministic per seed; ``size`` x ``size``.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((size, size))
    f = np.minimum(np.arange(size), size - np.arange(size)) / size
    freq = np.sqrt(f[:, None] ** 2 + f[None, :] ** 2)
    freq[0, 0] = 1.0
    envelope = freq ** (-spectral_exponent)
    envelope[0, 0] = 0.0  # zero-mean field; the mean re-enters via rescaling
    field = idft2(dft2(noise) * envelope).real
    lo, hi = field.min(), field.max()
    if hi - lo <= 0:
        return np.full((size, size), 0.5)
    return (field - lo) / (hi - lo)


@dataclass(frozen=True)
class PipelineConfig:
    """One synthetic generator: upsampling kind, depth, and seeding.

    ``kernel_scope`` controls how the transposed-conv filter banks are
    seeded: "pipeline" models a single fixed generator (every image shares
    the same kernels), "image" models a population of generator instances
    (kernels drawn per image, still a pure function of the image seed).
    """

    kind: str
    depth: int
    seed: int
    base_size: int
    kernel_scope: str = "pipeline"
    name: str = ""

    def __post_init__(self):
        if self.kind not in UPSAMPLE_KINDS:
            raise ParameterError(f"unknown upsampling kind {self.kind!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.depth <= 11:  # 2 << 11 is the 4096 cap below; bounds the shift
            raise ParameterError(f"depth must be in 1..11, got {self.depth}")
        if self.base_size < 2:
            raise ParameterError(f"base_size must be >= 2, got {self.base_size}")
        if self.final_size > 4096:
            raise ParameterError(f"pipeline would produce a {self.final_size} pixel image; refusing")
        if self.kernel_scope not in ("pipeline", "image"):
            raise ParameterError(f"kernel_scope must be pipeline|image, got {self.kernel_scope}")
        if not self.name:
            object.__setattr__(self, "name", f"{self.kind}_d{self.depth}")
        # the name becomes part of file names, next to the real class's
        if self.name == "real" or not re.fullmatch(r"[A-Za-z0-9_.-]+", self.name):
            raise ParameterError(f"pipeline name must match [A-Za-z0-9_.-]+ and not be 'real': {self.name!r}")

    @property
    def final_size(self) -> int:
        return self.base_size << self.depth

    def stage(self, index: int, image_seed=None) -> tuple:
        """(tconv 4x4, conv1 3x3, conv2 3x3) kernels for stage ``index``.

        With pipeline scope the bank depends only on the pipeline seed; with
        image scope it also folds in the image seed.
        """
        if self.kernel_scope == "image":
            if image_seed is None:
                raise ParameterError("image-scoped kernels need the image seed")
            rng = np.random.default_rng((self.seed, index, int(image_seed), 0xF5))
        else:
            rng = np.random.default_rng((self.seed, index, 0xF5))
        return tuple(rng.normal(0.0, 0.1, size=(k, k)) for k in (4, 3, 3))

    def upsample(self, image: np.ndarray, index: int, image_seed=None) -> np.ndarray:
        """Apply upsampling stage ``index`` of this pipeline to ``image``."""
        if self.kind == "zero_insert":
            return upsample_zero(image)
        if self.kind == "nearest":
            return upsample_nearest(image)
        return upsample_tconv(image, self.stage(index, image_seed))


def generate_fake(seed: int, pipeline: PipelineConfig, spectral_exponent: float = 1.0) -> np.ndarray:
    """Base field at base_size, then ``depth`` upsampling stages, clamped to [0, 1]."""
    image = synth_real(seed, pipeline.base_size, spectral_exponent)
    for stage_idx in range(pipeline.depth):
        image = pipeline.upsample(image, stage_idx, image_seed=seed)
    if pipeline.kind == "tconv_conv":
        # The random filter bank has arbitrary gain; rescale into range.
        # Zero/nearest outputs are left untouched so their spectral
        # identities stay exact.
        lo, hi = image.min(), image.max()
        if hi - lo > 0:
            image = (image - lo) / (hi - lo)
    return np.clip(image, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Corpus construction
# ---------------------------------------------------------------------------

@dataclass
class CorpusSpec:
    """Desk-scale dataset description: balanced real/generated splits.

    ``n_train_fake`` is split evenly across the non-holdout pipelines;
    ``n_test_fake`` is per pipeline (holdout pipelines appear only in the
    test split).  ``spectral_exponent`` is either one decay exponent for
    every base field or a (lo, hi) range sampled per image (deterministic in
    the image seed), which varies the population's smoothness the way real
    photographs do.
    """

    size: int
    seed: int
    pipelines: list
    n_train_real: int = 0
    n_train_fake: int = 0
    n_test_real: int = 0
    n_test_fake: int = 0
    holdout: tuple = ()
    spectral_exponent: object = 1.0
    sensor_noise: float = 0.0

    def exponent_for(self, image_seed: int) -> float:
        if np.isscalar(self.spectral_exponent):
            return float(self.spectral_exponent)
        lo, hi = self.spectral_exponent
        draw = np.random.default_rng((int(image_seed), 0xA1FA)).random()
        return float(lo + (hi - lo) * draw)

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.size < 2:
            raise ParameterError(f"size must be >= 2, got {self.size}")
        for name in ("n_train_real", "n_train_fake", "n_test_real", "n_test_fake"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.sensor_noise < np.inf:
            raise ParameterError(f"sensor_noise must be finite and >= 0, got {self.sensor_noise}")
        self.holdout = tuple(self.holdout)
        e = self.spectral_exponent
        lo, hi = (e, e) if np.isscalar(e) else e  # raises unless a number or a (lo, hi) pair
        if not -np.inf < float(lo) <= float(hi) < np.inf:
            raise ParameterError(f"spectral_exponent must be finite with lo <= hi, got {e}")
        names = [p.name for p in self.pipelines]
        if len(set(names)) != len(names):
            raise ParameterError(f"pipeline names must be unique, got {names}")
        for p in self.pipelines:
            if p.final_size != self.size:
                raise ParameterError(
                    f"pipeline {p.name}: base {p.base_size} x 2^{p.depth} = "
                    f"{p.final_size}, corpus wants {self.size}"
                )
        for name in self.holdout:
            if name not in names:
                raise ParameterError(f"holdout pipeline {name!r} not configured")
        if self.n_train_fake and not self.train_pipelines():
            raise ParameterError("all pipelines held out but n_train_fake > 0")

    def train_pipelines(self):
        return [p for p in self.pipelines if p.name not in self.holdout]


def build_corpus(spec: CorpusSpec, out_dir) -> dict:
    """Write images plus train/test manifests; returns {"train": ..., "test": ...}.

    Every image file is a deterministic function of (seed, pipeline), so
    rebuilding with the same spec reproduces the tree byte for byte.
    """
    out_dir = str(out_dir)
    images_dir = os.path.join(out_dir, "images")
    os.makedirs(images_dir, exist_ok=True)

    jobs = []  # (filename, label, pipeline_name, seed, split)

    def add(split: str, label: str, name: str, count: int):
        for i in range(count):
            seed = spec.seed * 1_000_000 + len(jobs) + 1
            jobs.append((f"{split}_{name}_{i:05d}.pgm", label, name, seed, split))

    add("train", "real", "real", spec.n_train_real)
    train_pipes = spec.train_pipelines()
    if spec.n_train_fake:
        share = spec.n_train_fake // len(train_pipes)
        extra = spec.n_train_fake - share * len(train_pipes)
        for idx, pipe in enumerate(train_pipes):
            add("train", "generated", pipe.name, share + (1 if idx < extra else 0))
    add("test", "real", "real", spec.n_test_real)
    for pipe in spec.pipelines:
        add("test", "generated", pipe.name, spec.n_test_fake)

    by_name = {p.name: p for p in spec.pipelines}

    def render(job):
        filename, label, pipe_name, seed, _split = job
        alpha = spec.exponent_for(seed)
        if label == "real":
            image = synth_real(seed, spec.size, alpha)
        else:
            image = generate_fake(seed, by_name[pipe_name], alpha)
        if spec.sensor_noise > 0:
            # same additive noise model for both classes: hardens the task
            # without creating a label shortcut
            noise_rng = np.random.default_rng((int(seed), 0x5E15))
            image = np.clip(
                image + noise_rng.normal(0.0, spec.sensor_noise, image.shape), 0.0, 1.0
            )
        try:
            write_pgm(os.path.join(images_dir, filename), image)
        except OSError as exc:
            raise DataError(f"cannot write {filename} under {images_dir}: {exc}") from exc
        return filename

    parallel_map(render, jobs)

    manifests = {}
    for split in ("train", "test"):
        entries = [
            ManifestEntry(os.path.join("images", f), label, pipe, seed)
            for (f, label, pipe, seed, s) in jobs
            if s == split
        ]
        manifest = Manifest(entries, root=out_dir)
        path = os.path.join(out_dir, f"manifest_{split}.csv")
        try:
            write_manifest(path, manifest)
        except OSError as exc:
            raise DataError(f"cannot write manifest {path}: {exc}") from exc
        manifests[split] = manifest
    return manifests
