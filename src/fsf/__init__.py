"""Spectral image forensics: upsampling fingerprints and self-similarity detection."""

__version__ = "0.1.0"

from .heap import keep_freed_memory

# Set once per process, at import; forked parallel_map workers inherit it.
heap_policy = keep_freed_memory()

from .checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    FsfError,
    NumericError,
    ParameterError,
)
from .fft import dft2, idft2
from .forensics import (
    AugmentPolicy,
    DistortionConfig,
    center_crop_pad,
    downsample,
    gaussian_blur,
    jpeg_distort,
    noise_residual,
)
from .model import FractalCNN, ModelConfig
from .simulate import (
    CorpusSpec,
    PipelineConfig,
    build_corpus,
    embed_spectral_watermark,
    generate_fake,
    synth_real,
    upsample_nearest,
    upsample_tconv,
    upsample_zero,
)
from .spectral import (
    average_spectrum,
    fractal_pyramid,
    quadrant_average,
    quadrant_correlation,
    quadrant_split,
    self_similarity,
    self_similarity_features,
    spectrum_of,
)
from .training import TrainConfig, ablate, auc_score, evaluate, train

__all__ = [
    "AugmentPolicy",
    "ConfigError",
    "CorpusSpec",
    "DataError",
    "DimensionError",
    "DistortionConfig",
    "FormatError",
    "FractalCNN",
    "FsfError",
    "ModelCheckpoint",
    "ModelConfig",
    "NumericError",
    "ParameterError",
    "PipelineConfig",
    "TrainConfig",
    "ablate",
    "auc_score",
    "average_spectrum",
    "build_corpus",
    "center_crop_pad",
    "dft2",
    "downsample",
    "embed_spectral_watermark",
    "evaluate",
    "fractal_pyramid",
    "gaussian_blur",
    "generate_fake",
    "idft2",
    "jpeg_distort",
    "load_checkpoint",
    "noise_residual",
    "quadrant_average",
    "quadrant_correlation",
    "quadrant_split",
    "save_checkpoint",
    "self_similarity",
    "self_similarity_features",
    "spectrum_of",
    "synth_real",
    "train",
    "upsample_nearest",
    "upsample_tconv",
    "upsample_zero",
]
