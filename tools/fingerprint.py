"""Bit-exactness fingerprint: one SHA-256 line for each checked fsf output.

Each line is ``<name> <sha256>``.  The outputs are the detector's logits,
features, ``predict`` logits and gradients for five model configurations in
float32 and float64, the noise residuals of the 224 px inputs (and of one
with NaNs), a 2-epoch 64 px training history with its checkpoint bytes, a
small corpus with its ``features_export`` and ``average_spectrum_report``
files, the distortion stack's pixels on a few corpus images, ``evaluate`` of
that checkpoint on the corpus under four distortions, and the tree that
``formation_grid`` writes (every upsampling kind, tconv included).  Two
commits compute the same floats exactly when their lines match:

    PYTHONPATH=src python3 tools/fingerprint.py > before.txt   # commit A
    git checkout B
    PYTHONPATH=src python3 tools/fingerprint.py > after.txt
    diff before.txt after.txt

BLAS may split a GEMM's sums differently for another thread count, so
compare runs made under the same ``OPENBLAS_NUM_THREADS``; the first line
records it.  ``--smoke`` runs every section at toy sizes in a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

import numpy as np

from fsf.checkpoint import load_checkpoint, save_checkpoint
from fsf.figures import average_spectrum_report, features_export, formation_grid
from fsf.fileio import read_image, read_manifest
from fsf.forensics import AugmentPolicy, DistortionConfig, center_crop_pad, noise_residual
from fsf.model import FractalCNN, ModelConfig, bce_with_logits
from fsf.simulate import CorpusSpec, PipelineConfig, build_corpus
from fsf.training import TrainConfig, evaluate, train

# (name, batch, ModelConfig fields); each runs in float32 and float64.
MODELS = [
    ("64px-b32", 32, dict(channels=32, n_units=2, input_size=64)),
    ("64px-b4", 4, dict(channels=32, n_units=2, input_size=64)),
    ("224px-b2", 2, dict(channels=32, n_units=2, input_size=224)),
    ("32px-n1", 4, dict(channels=16, n_units=1, input_size=32)),
    ("64px-n0", 4, dict(channels=32, n_units=0, input_size=64)),
]
SMOKE_MODELS = [
    ("16px-b2", 2, dict(channels=4, n_units=2, input_size=16, head_hidden=8)),
    ("12px-n0", 3, dict(channels=4, n_units=0, input_size=12, head_hidden=8)),
]

PIPELINES = [
    PipelineConfig("tconv_conv", 2, 301, 16, name="tconv_d2", kernel_scope="image"),
    PipelineConfig("nearest", 2, 302, 16, name="near_d2"),
    PipelineConfig("zero_insert", 2, 303, 16, name="zero_d2"),
]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _tree_digest(root) -> str:
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def model_lines(models):
    """Logits, features, ``predict`` logits and every gradient of a seeded
    forward/backward pass."""
    for name, batch, fields in models:
        for dtype in ("float32", "float64"):
            cfg = ModelConfig(dtype=dtype, **fields)
            model = FractalCNN(cfg, seed=17)
            rng = np.random.default_rng(23)
            size = cfg.input_size
            x = (0.2 * rng.standard_normal((batch, size, size, 1))).astype(dtype)
            labels = (np.arange(batch) % 2).astype(dtype)
            logits, cache = model.forward(x)
            _, dlogits = bce_with_logits(logits, labels)
            grads = model.backward(cache, dlogits)
            tag = f"model/{name}/{dtype}"
            yield f"{tag}/logits", _digest(logits.tobytes())
            yield f"{tag}/features", _digest(model.features(x).tobytes())
            yield f"{tag}/predict", _digest(model.predict(x).tobytes())
            yield f"{tag}/grads", _digest(*(k.encode() + grads[k].tobytes() for k in sorted(grads)))


def residual_lines(name, batch, size):
    """Noise residuals of one model configuration's inputs, in both dtypes,
    and of one of them with NaNs; at 224 px each median runs in several row
    bands."""
    for dtype in ("float32", "float64"):
        rng = np.random.default_rng(23)  # the inputs of ``model_lines``
        x = (0.2 * rng.standard_normal((batch, size, size, 1))).astype(dtype)
        yield f"residual/{name}/{dtype}", _digest(*(noise_residual(im[..., 0]).tobytes() for im in x))
    image = x[0, ..., 0].copy()
    image[size // 3::9, ::11] = np.nan
    image[size // 2, size // 5] = -np.nan
    yield f"residual/{name}/nan", _digest(noise_residual(image).tobytes())


def train_lines(work, size, per_class, model_fields):
    """History and checkpoint bytes of a 2-epoch run with augmentation on."""
    pipe = PipelineConfig("tconv_conv", 2, 301, size // 4, name="tconv_d2", kernel_scope="image")
    spec = CorpusSpec(size=size, seed=41, pipelines=[pipe],
                      n_train_real=per_class, n_train_fake=per_class, sensor_noise=0.02)
    manifest = build_corpus(spec, os.path.join(work, "train_corpus"))["train"]
    train_cfg = TrainConfig(seed=5, batch_size=8, max_epochs=2, patience=2,
                            val_fraction=0.2, augment=AugmentPolicy(crop=size))
    ckpt, history = train(manifest, ModelConfig(input_size=size, **model_fields), train_cfg)
    yield "train/history", _digest(*(repr(vars(h)) for h in history))
    path = os.path.join(work, "model.ckpt")
    save_checkpoint(path, ckpt)
    with open(path, "rb") as fh:
        yield "train/checkpoint", _digest(fh.read())


def corpus_lines(work, per_class):
    """Corpus files, the feature table and the average-spectrum report."""
    where = os.path.join(work, "corpus")
    spec = CorpusSpec(size=64, seed=43, pipelines=PIPELINES,
                      n_test_real=per_class, n_test_fake=per_class)
    build_corpus(spec, where)
    yield "corpus/tree", _tree_digest(where)
    manifest = read_manifest(os.path.join(where, "manifest_test.csv"))
    features = os.path.join(work, "features.csv")
    features_export(manifest, features, levels=2)
    with open(features, "rb") as fh:
        yield "corpus/features_export", _digest(fh.read())
    average_spectrum_report(manifest, os.path.join(work, "average"))
    yield "corpus/average_spectrum_report", _tree_digest(os.path.join(work, "average"))


DISTORTIONS = [
    DistortionConfig("none"),
    DistortionConfig("jpeg", jpeg_quality=95),
    DistortionConfig("downsample"),
    DistortionConfig("gaussian_blur", blur_sigma=1.0),
]


def distortion_lines(work, n_images):
    """Pixels of each distortion, crop/pad and the noise residual on corpus images."""
    manifest = read_manifest(os.path.join(work, "corpus", "manifest_test.csv"))
    entries = sorted(manifest.entries, key=lambda e: e.path)[:n_images]
    images = [read_image(manifest.resolve(e)) for e in entries]
    for distortion in DISTORTIONS:
        yield f"distort/{distortion.label}", _digest(*(distortion.apply(im).tobytes() for im in images))
    for size in (40, 80):  # the corpus images are 64 px: crop, then reflect-pad
        yield f"distort/crop{size}", _digest(*(center_crop_pad(im, size).tobytes() for im in images))
    yield "distort/residual", _digest(*(noise_residual(im).tobytes() for im in images))


def eval_lines(work):
    """``evaluate`` of the trained checkpoint on the corpus test manifest."""
    ckpt = load_checkpoint(os.path.join(work, "model.ckpt"))
    manifest = read_manifest(os.path.join(work, "corpus", "manifest_test.csv"))
    for distortion in DISTORTIONS:
        result = evaluate(ckpt, manifest, distortion)
        yield f"eval/{result.distortion}", _digest(
            repr(sorted(result.per_pipeline.items())), repr(result.overall), result.n_images
        )


def figure_lines(work, base_size):
    """The formation grid's spectra and captions, three stages from ``base_size``."""
    where = os.path.join(work, "formation_grid")
    formation_grid(where, 7, base_size, 3)
    yield "figures/formation_grid", _tree_digest(where)


def fingerprint(smoke: bool = False):
    """Yield (name, sha256) for every checked output."""
    with tempfile.TemporaryDirectory() as work:
        if smoke:
            yield from model_lines(SMOKE_MODELS)
            yield from residual_lines("16px-b2", 2, 16)
            yield from train_lines(work, 16, 6, dict(channels=4, n_units=1, head_hidden=8))
            yield from corpus_lines(work, 2)
            yield from distortion_lines(work, 2)
            yield from eval_lines(work)
            yield from figure_lines(work, 8)
        else:
            yield from model_lines(MODELS)
            yield from residual_lines("224px-b2", 2, 224)
            yield from train_lines(work, 64, 20, dict(channels=32, n_units=2))
            yield from corpus_lines(work, 10)
            yield from distortion_lines(work, 6)
            yield from eval_lines(work)
            yield from figure_lines(work, 28)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="toy sizes, a few seconds")
    args = parser.parse_args(argv)
    print(f"# OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '')} "
          f"numpy={np.__version__}")
    for name, digest in fingerprint(args.smoke):
        print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
