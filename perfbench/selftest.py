"""Shows that every correctness check of the benchmark can fail.

Each check first sees a sound output of the program and must pass it, then
sees the same output deliberately corrupted (a NaN loss, a changed history,
a flipped checkpoint byte, a NaN logit, a changed logit, a perturbed
quadrant, a non-finite feature row, swapped class scores) and must report a
failure. Run through ``python3 perfbench/run.py --selftest``; the last line
says whether every check behaved.
"""

from __future__ import annotations

import argparse
import copy
import csv
import os
import sys

import numpy as np

from fsf import checkpoint, figures, fileio, forensics, model, simulate, training

import checks


def _small_training(work):
    corpus = simulate.CorpusSpec(
        size=32, seed=3,
        pipelines=[simulate.PipelineConfig("tconv_conv", 1, 203, 16, name="tconv_d1")],
        n_train_real=8, n_train_fake=8,
    )
    manifest = simulate.build_corpus(corpus, os.path.join(work, "train"))["train"]
    cfg = model.ModelConfig(channels=4, n_units=1, input_size=32)
    train_cfg = training.TrainConfig(seed=3, batch_size=8, max_epochs=2, patience=2, val_fraction=0.25)
    ckpt, history = training.train(manifest, cfg, train_cfg)
    _, again = training.train(manifest, cfg, train_cfg)
    path = os.path.join(work, "a.ckpt")
    checkpoint.save_checkpoint(path, ckpt)
    checkpoint.save_checkpoint(path + ".again", checkpoint.load_checkpoint(path))
    with open(path, "rb") as fh:
        saved = fh.read()
    with open(path + ".again", "rb") as fh:
        resaved = fh.read()
    return ckpt, history, again, saved, resaved


def _spectra(work):
    corpus = simulate.CorpusSpec(
        size=64, seed=4,
        pipelines=[simulate.PipelineConfig("zero_insert", 2, 222, 16, name="zero_d2")],
        n_test_real=20, n_test_fake=20,
    )
    manifest = simulate.build_corpus(corpus, os.path.join(work, "spectra"))["test"]
    out = os.path.join(work, "features.csv")
    figures.features_export(manifest, out, levels=2)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    zero_entry = next(e for e in manifest.entries if e.pipeline == "zero_d2")
    return manifest, rows, fileio.read_image(manifest.resolve(zero_entry))


def cases(work):
    """(check name, result on the sound output, result on the corrupted output); True = passes."""
    ckpt, history, again, saved, resaved = _small_training(work)
    nan_history = copy.deepcopy(history)
    nan_history[-1].val_loss = float("nan")
    changed_history = copy.deepcopy(again)
    changed_history[0].train_loss = np.nextafter(changed_history[0].train_loss, 1.0)
    flipped = bytearray(resaved)
    flipped[len(flipped) // 2] ^= 0x01
    yield ("train: epoch losses finite", not checks.train_history(history, None),
           not checks.train_history(nan_history, None))
    yield ("train: history repeats bit-exactly", not checks.train_history(again, history),
           not checks.train_history(changed_history, history))
    yield ("train: save -> load -> save bytes", not checks.checkpoint_bytes(saved, resaved, saved),
           not checks.checkpoint_bytes(saved, bytes(flipped), saved))

    net = ckpt.build_model()
    x = np.stack([
        forensics.noise_residual(synth, 7)
        for synth in (simulate.synth_real(s, 32) for s in (1, 2, 3))
    ])[..., None]
    logits = net.predict(x)
    nan_logits = logits.copy()
    nan_logits[1] = np.nan
    table = ({"tconv_d1": 0.5}, 0.5)
    changed = logits.copy()
    changed[0] = np.nextafter(changed[0], np.float32(np.inf))
    net64 = model.FractalCNN(model.ModelConfig(channels=4, n_units=1, input_size=32, dtype="float64"))
    net64.load_params({k: v.astype(np.float64) for k, v in ckpt.params.items()})
    logits64 = net64.predict(x.astype(np.float64))
    yield ("screen: logits finite", checks.nonfinite_logits(logits, 3) == 0,
           checks.nonfinite_logits(nan_logits, 3) == 0)
    yield ("screen: evaluation repeats exactly",
           checks.same_evaluation((logits, table), (logits.copy(), table)),
           checks.same_evaluation((changed, table), (logits, table)))
    yield ("screen: float32 vs float64 logits", checks.precision_misses(logits, logits64) == 0,
           checks.precision_misses(logits + 0.01, logits64) == 0)

    manifest, rows, zero_image = _spectra(work)
    # A perturbed quadrant: one odd-grid pixel of the zero-insert image is no
    # longer zero, so the spectrum stops tiling.
    perturbed = zero_image.copy()
    perturbed[1, 1] = 1.0 / 255.0
    yield ("spectra: zero-insert quadrants equal", checks.quadrants_equal(zero_image),
           checks.quadrants_equal(perturbed))
    values = [r[3:] for r in rows]
    broken = [list(v) for v in values]
    broken[0][1] = "nan"
    yield ("spectra: feature rows finite", checks.nonfinite_rows(values, len(manifest)) == 0,
           checks.nonfinite_rows(broken, len(manifest)) == 0)
    zero = [float(r[3]) for r in rows if r[2] == "zero_d2"]
    real = [float(r[3]) for r in rows if r[1] == "real"]
    yield ("spectra: zero-insert vs real AUC >= 0.95", checks.auc(zero, real) >= checks.AUC_FLOOR,
           checks.auc(real, zero) >= checks.AUC_FLOOR)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    behaved = True
    print(f"{'check':44s} {'sound output':>14s} {'corrupted':>14s}")
    for name, sound, corrupted in cases(args.work):
        ok = sound and not corrupted
        behaved &= ok
        print(f"{name:44s} {'passes' if sound else 'FAILS':>14s} "
              f"{'passes' if corrupted else 'fails':>14s}{'' if ok else '   <-- wrong'}")
    print("every check passes sound output and fails corrupted output" if behaved
          else "SOME CHECK DID NOT BEHAVE")
    return 0 if behaved else 1


if __name__ == "__main__":
    sys.exit(main())
