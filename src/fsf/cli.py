"""Command-line surface: reproducible experiments from a JSON config.

Subcommands:

    simulate      build the synthetic corpus described by the config
    demo-fractal  emit the watermark replication grid (no config needed)
    spectrum      average-spectrum figures for a manifest
    features      per-image self-similarity statistics / learned vectors
    train         fit a detector on the corpus train manifest
    eval          accuracy grid (pipelines x distortions) on the test manifest
    ablate        one model per fractal-unit count, same data and seed

Every command takes --out.  Only simulate and demo-fractal take --seed:
simulate's overrides the config's top-level seed, and demo-fractal (no
config) has its own, default 0.  train and ablate draw from the train
section's seed; eval, spectrum and features draw nothing.  simulate --out is
the corpus dir; on train, eval and ablate --out moves what they write, while
the corpus they read stays at corpus.dir (or <config out_dir>/corpus).

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, heap_policy
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    FsfError,
    NumericError,
    ParameterError,
    build,
    check_type,
)
from .figures import average_spectrum_report, features_export, formation_grid
from .fileio import format_table, read_manifest, write_table
from .forensics import AugmentPolicy, parse_distortion
from .model import ModelConfig
from .parallel import worker_peak_mb
from .simulate import CorpusSpec, PipelineConfig, build_corpus
from .training import EpochStats, TrainConfig, ablate, accuracy_table, evaluate, train


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

_TOP_KEYS = {"seed", "out_dir", "corpus", "model", "train", "distortions", "ablate_n"}


@dataclass
class ExperimentConfig:
    seed: int
    out_dir: str
    corpus_dir: str
    corpus: CorpusSpec | None
    model: ModelConfig
    train: TrainConfig
    distortions: list
    ablate_n: list
    digest: str


def load_config(path: str, seed_override=None, out_override=None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        data = json.loads(raw)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    check_type(data, dict, "config root", ConfigError)
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in config root")

    for key in ("seed", "out_dir"):
        if key not in data:
            raise ConfigError(f"config is missing required key {key!r}")
    seed = data["seed"] if seed_override is None else seed_override
    if check_type(seed, int, "seed", ConfigError) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out_dir = check_type(data["out_dir"], str, "out_dir", ConfigError)
    # the default corpus dir is where simulate wrote it: under the config's out_dir, not --out
    corpus_dir = os.path.join(out_dir, "corpus")
    if out_override is not None:
        out_dir = out_override

    corpus = None
    if "corpus" in data:
        section = dict(check_type(data["corpus"], dict, "corpus", ConfigError))
        if "seed" in section:
            raise ConfigError("corpus.seed is not a key; the corpus uses the top-level seed")
        corpus_dir = check_type(section.pop("dir", corpus_dir), str, "corpus.dir", ConfigError)
        pipelines = check_type(section.get("pipelines", []), list, "corpus.pipelines", ConfigError)
        section["pipelines"] = [
            build(PipelineConfig, p, f"corpus.pipelines[{i}]", ConfigError)
            for i, p in enumerate(pipelines)
        ]
        corpus = build(CorpusSpec, {**section, "seed": seed}, "corpus", ConfigError)

    model = build(ModelConfig, data.get("model", {}), "model", ConfigError)

    train_section = dict(check_type(data.get("train", {}), dict, "train", ConfigError))
    if "train" in data and "seed" not in train_section:
        raise ConfigError("train section is missing an explicit seed")
    augment = check_type(train_section.pop("augment", False), bool, "train.augment", ConfigError)
    train_cfg = build(TrainConfig, train_section, "train", ConfigError)
    if augment:
        train_cfg.augment = AugmentPolicy(crop=model.input_size)

    distortions = check_type(data.get("distortions", ["none"]), list, "distortions", ConfigError)
    distortions = [parse_distortion(d) for d in distortions]
    ablate_n = check_type(data.get("ablate_n", [0, 1, 2, 3, 4]), list, "ablate_n", ConfigError)
    for n in ablate_n:
        if not 0 <= check_type(n, int, "ablate_n entry", ConfigError) <= 4:
            raise ConfigError(f"ablate_n entries must be in 0..4, got {n}")
    # each entry is one column of the eval or ablation table
    for key, items in (("distortions", [d.label for d in distortions]), ("ablate_n", ablate_n)):
        if not items or len(set(items)) != len(items):
            raise ConfigError(f"{key} must be a non-empty list without repeats, got {items}")

    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return ExperimentConfig(
        seed=seed,
        out_dir=out_dir,
        corpus_dir=corpus_dir,
        corpus=corpus,
        model=model,
        train=train_cfg,
        distortions=distortions,
        ablate_n=ablate_n,
        digest=digest,
    )


def write_run_meta(out_dir: str, args, seed, digest: str) -> None:
    """run_meta.json: the command, config hash, seed and versions, plus the
    wall time since ``main`` parsed ``args``, the process's peak RSS, the
    largest private memory of its ``parallel_map`` workers (None if none ran),
    the thread settings (None where a variable is unset) and whether the
    process keeps freed memory in its heap (``fsf.heap``)."""
    os.makedirs(out_dir, exist_ok=True)
    worker_mb = worker_peak_mb()
    meta = {
        "command": args.command,
        "config_sha256": digest,
        "seed": seed,
        "versions": {"fsf": __version__, "numpy": np.__version__},
        "wall_s": round(time.perf_counter() - args.started, 3),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        # private memory only: a worker's RSS would count the caller's heap it maps copy-on-write
        "children_peak_rss_mb": None if worker_mb is None else round(worker_mb, 1),
        "threads": {k: os.environ.get(k) for k in ("FSF_THREADS", "OPENBLAS_NUM_THREADS")},
        "heap_policy": heap_policy,
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.seed, None)
    if cfg.corpus is None:
        raise ConfigError("simulate needs a corpus section in the config")
    corpus_dir = args.out or cfg.corpus_dir
    manifests = build_corpus(cfg.corpus, corpus_dir)
    write_run_meta(corpus_dir, args, cfg.seed, cfg.digest)
    for split, manifest in manifests.items():
        counts = collections.Counter(entry.pipeline for entry in manifest.entries)
        listing = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{split}: {len(manifest)} images ({listing})")
    return 0


def cmd_demo_fractal(args) -> int:
    out_dir = args.out or "formation_grid"
    rows = formation_grid(out_dir, args.seed)
    write_run_meta(out_dir, args, args.seed, "none")
    for row in rows:
        print(",".join(str(c) for c in row))
    return 0


def cmd_spectrum(args) -> int:
    manifest = read_manifest(args.manifest)
    out_dir = args.out or "spectra"
    rows = average_spectrum_report(manifest, out_dir, residual=args.residual)
    write_run_meta(out_dir, args, None, "none")
    for row in rows:
        print(",".join(str(c) for c in row))
    return 0


def cmd_features(args) -> int:
    manifest = read_manifest(args.manifest)
    checkpoint = load_checkpoint(args.checkpoint) if args.checkpoint else None
    count = features_export(
        manifest,
        args.out or "features.csv",
        levels=args.levels,
        residual=args.residual,
        checkpoint=checkpoint,
    )
    print(f"wrote {count} feature rows")
    return 0


def _manifest_path(cfg: ExperimentConfig, split: str) -> str:
    return os.path.join(cfg.corpus_dir, f"manifest_{split}.csv")


def cmd_train(args) -> int:
    cfg = load_config(args.config, out_override=args.out)
    manifest = read_manifest(_manifest_path(cfg, "train"))
    checkpoint, history = train(manifest, cfg.model, cfg.train)
    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.ckpt")
    save_checkpoint(ckpt_path, checkpoint)
    write_table(
        os.path.join(cfg.out_dir, "history.csv"),
        EpochStats.header(),
        [s.row() for s in history],
    )
    write_run_meta(cfg.out_dir, args, cfg.train.seed, cfg.digest)
    print(
        f"trained {len(history)} epochs; best epoch {checkpoint.metadata['epoch']} "
        f"(val_loss {checkpoint.metadata['val_loss']:.6f}); saved {ckpt_path}"
    )
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config, out_override=args.out)
    manifest = read_manifest(_manifest_path(cfg, "test"))
    ckpt_path = args.checkpoint or os.path.join(cfg.out_dir, "checkpoint.ckpt")
    checkpoint = load_checkpoint(ckpt_path)
    results = [evaluate(checkpoint, manifest, d) for d in cfg.distortions]
    header, rows = accuracy_table([(r.distortion, r) for r in results])
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_table(os.path.join(cfg.out_dir, "eval_grid.csv"), header, rows)
    write_run_meta(cfg.out_dir, args, cfg.seed, cfg.digest)
    print(format_table(header, rows), end="")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, out_override=args.out)
    train_manifest = read_manifest(_manifest_path(cfg, "train"))
    test_manifest = read_manifest(_manifest_path(cfg, "test"))
    results, checkpoints = ablate(
        train_manifest, test_manifest, cfg.model, cfg.train, n_list=cfg.ablate_n
    )
    header, rows = accuracy_table(
        [("N=0*" if n == 0 else f"N={n}", results[n]) for n in sorted(results)]
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_table(os.path.join(cfg.out_dir, "ablation.csv"), header, rows)
    for n, ckpt in checkpoints.items():
        save_checkpoint(os.path.join(cfg.out_dir, f"checkpoint_n{n}.ckpt"), ckpt)
    write_run_meta(cfg.out_dir, args, cfg.train.seed, cfg.digest)
    print(format_table(header, rows), end="")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsf",
        description="Spectral self-similarity forensics: simulate, analyze, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="override the output directory")

    p = sub.add_parser("simulate", help="build the synthetic corpus")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demo-fractal", help="emit the spectrum replication grid")
    common(p, config=False)
    p.add_argument("--seed", type=int, default=0, help="seed of the grid's images (default 0)")
    p.set_defaults(func=cmd_demo_fractal)

    p = sub.add_parser("spectrum", help="average-spectrum figures for a manifest")
    common(p, config=False)
    p.add_argument("--manifest", required=True)
    p.add_argument("--residual", action="store_true", help="average residual spectra")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("features", help="export self-similarity features as CSV")
    common(p, config=False)
    p.add_argument("--manifest", required=True)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--residual", action="store_true")
    p.add_argument("--checkpoint", default=None, help="also export learned level vectors")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the detector")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy grid on the test manifest")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="sweep the fractal-unit count")
    common(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except (ConfigError, ParameterError, DimensionError) as exc:
        print(f"fsf: config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FormatError, OSError) as exc:
        print(f"fsf: data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"fsf: numeric error: {exc}", file=sys.stderr)
        return 4
    except FsfError as exc:  # any future toolkit error defaults to config-ish
        print(f"fsf: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
