"""Adam training loop, evaluation tables, and the unit-count sweep.

Training is fully deterministic for a fixed seed: the validation split, the
per-epoch shuffle, the augmentation draws, and the parameter init all come
from generators derived from ``TrainConfig.seed``.  Early stopping keeps the
epoch with the lowest validation loss and halts after ``patience`` epochs
without improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import ModelCheckpoint
from .errors import DataError, NumericError, ParameterError
from .fileio import Manifest, read_image
from .forensics import AugmentPolicy, DistortionConfig, apply_augment_plan, draw_augment_plan, noise_residual
from .model import FractalCNN, ModelConfig, bce_with_logits
from .parallel import parallel_map


@dataclass
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 50
    val_fraction: float = 0.1
    patience: int = 2
    seed: int = 0
    augment: AugmentPolicy | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.lr < float("inf"):
            raise ParameterError(f"lr must be positive and finite, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ParameterError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.adam_eps < float("inf"):
            raise ParameterError(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ParameterError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.patience < 1:
            raise ParameterError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ParameterError("batch_size and max_epochs must be positive")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float

    @staticmethod
    def header():
        return ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]

    def row(self):
        return [
            self.epoch,
            f"{self.train_loss:.6f}",
            f"{self.train_acc:.4f}",
            f"{self.val_loss:.6f}",
            f"{self.val_acc:.4f}",
        ]


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------

def _load_raw(manifest: Manifest):
    """Read every manifest image; label 1 = generated."""
    if len(manifest) == 0:
        raise DataError("manifest is empty")
    images = parallel_map(lambda e: read_image(manifest.resolve(e)), manifest.entries)
    labels = np.array([1.0 if e.label == "generated" else 0.0 for e in manifest.entries])
    return images, labels


def detector_input(image, config: ModelConfig, distortions=()) -> np.ndarray:
    """What the detector of ``config`` sees of a graymap: the distortions in
    order, then crop/pad to its input size, then the noise residual with its
    window."""
    cropped = apply_augment_plan(image, distortions, config.input_size)
    return noise_residual(cropped, config.residual_kernel)


def train(
    manifest: Manifest,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
):
    """Fit a detector on a manifest. Returns (ModelCheckpoint, history)."""
    images, labels = _load_raw(manifest)
    if len(set(labels.tolist())) < 2:
        raise DataError("training manifest needs both real and generated images")
    if train_cfg.augment is not None and train_cfg.augment.crop != model_cfg.input_size:
        raise ParameterError(
            f"augment crop {train_cfg.augment.crop} != model input {model_cfg.input_size}"
        )

    split_rng = np.random.default_rng((train_cfg.seed, 0x5711))
    order = split_rng.permutation(len(images))
    n_val = max(1, int(round(train_cfg.val_fraction * len(images))))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        raise DataError("validation split consumed every image")

    val_x = np.stack([detector_input(images[i], model_cfg) for i in val_idx])[..., None]
    val_y = labels[val_idx]

    model = FractalCNN(model_cfg, seed=train_cfg.seed)
    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    steps = 0

    epoch_rng = np.random.default_rng((train_cfg.seed, 0xE90C))
    history: list = []
    best_loss = np.inf
    best_params = model.copy_params()
    best_epoch = 0
    stale = 0

    for epoch in range(1, train_cfg.max_epochs + 1):
        perm = epoch_rng.permutation(train_idx)
        epoch_loss = 0.0
        epoch_hits = 0
        for start in range(0, len(perm), train_cfg.batch_size):
            batch_idx = perm[start:start + train_cfg.batch_size]
            batch = []
            for i in batch_idx:
                plan = draw_augment_plan(train_cfg.augment, epoch_rng)
                batch.append(detector_input(images[i], model_cfg, plan))
            x = np.stack(batch)[..., None]
            y = labels[batch_idx]

            logits, cache = model.forward(x)
            loss, dlogits = bce_with_logits(logits, y)
            if not np.isfinite(loss):
                raise NumericError(f"training loss diverged at epoch {epoch}")
            grads = model.backward(cache, dlogits)
            del cache  # backward emptied it; nothing of this step outlives it

            steps += 1
            lr_t = train_cfg.lr * (
                np.sqrt(1.0 - train_cfg.beta2 ** steps) / (1.0 - train_cfg.beta1 ** steps)
            )
            for name, g in grads.items():
                adam_m[name] = train_cfg.beta1 * adam_m[name] + (1 - train_cfg.beta1) * g
                adam_v[name] = train_cfg.beta2 * adam_v[name] + (1 - train_cfg.beta2) * g * g
                model.params[name] -= (
                    lr_t * adam_m[name] / (np.sqrt(adam_v[name]) + train_cfg.adam_eps)
                ).astype(model.params[name].dtype)

            epoch_loss += loss * len(batch_idx)
            epoch_hits += int(np.sum((logits > 0) == (y > 0.5)))

        val_logits = _predict_batched(model, val_x, train_cfg.batch_size)
        val_loss, _ = bce_with_logits(val_logits, val_y)
        if not np.isfinite(val_loss):
            raise NumericError(f"validation loss diverged at epoch {epoch}")
        stats = EpochStats(
            epoch=epoch,
            train_loss=epoch_loss / len(perm),
            train_acc=epoch_hits / len(perm),
            val_loss=val_loss,
            val_acc=float(np.mean((val_logits > 0) == (val_y > 0.5))),
        )
        history.append(stats)

        if val_loss < best_loss:
            best_loss = val_loss
            best_params = model.copy_params()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= train_cfg.patience:
                break

    model.load_params(best_params)
    checkpoint = ModelCheckpoint(
        config=model_cfg,
        params=model.copy_params(),
        metadata={
            "epoch": best_epoch,
            "seed": train_cfg.seed,
            "val_loss": float(best_loss),
            "epochs_run": len(history),
        },
    )
    return checkpoint, history


def _predict_batched(model: FractalCNN, x: np.ndarray, batch_size: int) -> np.ndarray:
    out = []
    for start in range(0, len(x), batch_size):
        out.append(model.predict(x[start:start + batch_size]))
    return np.concatenate(out) if out else np.zeros(0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    distortion: str
    per_pipeline: dict
    overall: float
    n_images: int


def evaluate(
    checkpoint: ModelCheckpoint,
    manifest: Manifest,
    distortion: DistortionConfig | None = None,
    batch_size: int = 32,
) -> EvalResult:
    """Accuracy at threshold 0.5, per generator pipeline and overall.

    A pipeline's accuracy is measured over its generated images plus every
    real image in the manifest.  Entries are processed in path order, so the
    result is independent of manifest ordering.  The distortion (if any) is
    applied before crop/pad and residual extraction.  Images are read and
    prepared one ``batch_size`` slice at a time, so memory is O(batch).
    """
    if len(manifest) == 0:
        raise DataError("evaluation manifest is empty")
    distortion = distortion or DistortionConfig("none")
    model = checkpoint.build_model()
    entries = sorted(manifest.entries, key=lambda e: e.path)

    def prep(entry):
        image = read_image(manifest.resolve(entry))
        return detector_input(image, checkpoint.config, (distortion,))

    logits = np.concatenate([
        model.predict(np.stack(parallel_map(prep, entries[start:start + batch_size]))[..., None])
        for start in range(0, len(entries), batch_size)
    ])
    predicted = logits > 0
    actual = np.array([e.label == "generated" for e in entries])
    correct = predicted == actual

    real_mask = ~actual
    per_pipeline = {}
    for pipe in sorted({e.pipeline for e in entries if e.label == "generated"}):
        pipe_mask = np.array([e.pipeline == pipe and e.label == "generated" for e in entries])
        sel = pipe_mask | real_mask
        per_pipeline[pipe] = float(np.mean(correct[sel]))
    return EvalResult(
        distortion=distortion.label,
        per_pipeline=per_pipeline,
        overall=float(np.mean(correct)),
        n_images=len(entries),
    )


def ablate(
    train_manifest: Manifest,
    test_manifest: Manifest,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    n_list=(0, 1, 2, 3, 4),
):
    """Train one model per unit count on identical data and seed.

    Returns (results, checkpoints): ``results`` maps n -> EvalResult on the
    test manifest, so accuracy differences are attributable to the
    architecture alone.
    """
    results = {}
    checkpoints = {}
    for n in n_list:
        cfg_n = replace(model_cfg, n_units=n)
        ckpt, _history = train(train_manifest, cfg_n, train_cfg)
        results[n] = evaluate(ckpt, test_manifest)
        checkpoints[n] = ckpt
    return results, checkpoints


def accuracy_table(columns):
    """Header and rows of pipeline x column accuracy, plus an overall row.

    ``columns`` is a list of (column label, EvalResult) pairs, such as one
    per distortion or one per unit count.
    """
    pipelines = sorted({p for _, r in columns for p in r.per_pipeline})
    header = ["pipeline"] + [label for label, _ in columns]
    rows = [
        [pipe] + [f"{r.per_pipeline.get(pipe, float('nan')):.4f}" for _, r in columns]
        for pipe in pipelines
    ]
    rows.append(["overall"] + [f"{r.overall:.4f}" for _, r in columns])
    return header, rows


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def auc_score(positive_scores, negative_scores) -> float:
    """Rank-based AUC: probability a positive outranks a negative (ties 0.5)."""
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise DataError("AUC needs both positive and negative scores")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise NumericError("AUC scores must be finite")
    # twice the Mann-Whitney U: per positive, the negatives below it plus those not above it
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    return float((below + not_above).sum() / 2.0 / (pos.size * neg.size))
