"""One workload of the benchmark in its own process: set-up, closed loop, checks.

``run.py`` starts this file with the workload's thread settings and
``PYTHONPATH=src`` in the environment, because BLAS reads its thread count
when numpy loads. Usage:

    python3 perfbench/workloads.py --workload train-64 --seed 1 --seconds 20 \
        --trace 0 --work .perfbench_work/x

The last line of standard output is the result JSON. A closed loop runs
whole units of work (one caller, the next unit only after the last returns)
until ``--seconds`` have passed. With ``--trace 1`` every second unit is
traced and the units in between give the untraced time that the tracing
overhead is measured against.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import replace
from time import perf_counter

import numpy as np

from fsf import checkpoint, cli, figures, fileio, forensics, model, simulate, training

import checks
import spec
import tracing

# Set-up runs this many times per run; setup_s is the median. The first
# repetition also fills the lazy fft plan caches, so timing starts warm.
SETUP_REPEATS = 5


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _prepared(manifest, entries, size, kernel=7) -> np.ndarray:
    """Images preprocessed as ``evaluate`` does: crop/pad then noise residual."""
    planes = [
        forensics.noise_residual(
            forensics.center_crop_pad(fileio.read_image(manifest.resolve(e)), size), kernel
        )
        for e in entries
    ]
    return np.stack(planes)[..., None]


class Train64:
    """``training.train`` on a scaled-down criterion 7/8 corpus, then a checkpoint round trip."""

    EPOCHS = 2
    PIPELINES = [
        simulate.PipelineConfig("tconv_conv", 3, 201, 8, name="tconv_d3", kernel_scope="image"),
        simulate.PipelineConfig("tconv_conv", 2, 202, 16, name="tconv_d2", kernel_scope="image"),
        simulate.PipelineConfig("tconv_conv", 1, 203, 32, name="tconv_d1", kernel_scope="image"),
    ]

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.model_cfg = model.ModelConfig(channels=32, n_units=2, input_size=64)
        # patience >= max_epochs: early stopping never shortens a unit
        self.train_cfg = training.TrainConfig(
            seed=seed, batch_size=32, max_epochs=self.EPOCHS, patience=self.EPOCHS,
            val_fraction=0.2, augment=forensics.AugmentPolicy(crop=64),
        )
        self.reference_history = None
        self.reference_bytes = None
        self.attempted = self.failed = 0
        self.val_loss = math.nan

    def setup(self, where):
        corpus = simulate.CorpusSpec(
            size=64, seed=self.seed, pipelines=self.PIPELINES,
            n_train_real=20, n_train_fake=20,
            spectral_exponent=(0.75, 1.3), sensor_noise=0.02,
        )
        self.manifest = simulate.build_corpus(corpus, where)["train"]
        warm = model.FractalCNN(self.model_cfg, seed=self.seed)
        logits, cache = warm.forward(_prepared(self.manifest, self.manifest.entries[:2], 64))
        warm.backward(cache, np.full_like(logits, 0.5))

    def unit(self, index):
        ckpt, history = training.train(self.manifest, self.model_cfg, self.train_cfg)
        path = os.path.join(self.work, "unit.ckpt")
        checkpoint.save_checkpoint(path, ckpt)
        loaded = checkpoint.load_checkpoint(path)
        return len(history) * len(self.manifest), (history, path, loaded)

    def check(self, out):
        history, path, loaded = out
        saved = _read_bytes(path)
        checkpoint.save_checkpoint(path + ".again", loaded)
        resaved = _read_bytes(path + ".again")
        problems = checks.train_history(history, self.reference_history)
        problems += checks.checkpoint_bytes(saved, resaved, self.reference_bytes)
        if self.reference_history is None:
            self.reference_history, self.reference_bytes = history, saved
        n = len(self.manifest)
        n_train = n - max(1, int(round(self.train_cfg.val_fraction * n)))
        steps = len(history) * math.ceil(n_train / self.train_cfg.batch_size)
        self.attempted += steps
        if problems:
            self.failed += steps
            _log(f"train-64 check failed: {problems}")
        self.val_loss = history[-1].val_loss

    def finish(self):
        pass

    def detail(self, rates):
        return {"train_images_per_s": statistics.median(rates), "val_loss": self.val_loss}


class Screen224:
    """``training.evaluate`` at batch 8 over the ``fsf eval`` distortion grid at 224 px."""

    GRID = ("none", "jpeg95", "down0.5", "blur1")
    PIPELINES = [
        simulate.PipelineConfig("tconv_conv", 3, 201, 28, name="tconv_d3", kernel_scope="image"),
        simulate.PipelineConfig("nearest", 2, 212, 56, name="near_d2"),
        simulate.PipelineConfig("zero_insert", 2, 222, 56, name="zero_d2"),
    ]
    PRECISION_IMAGES = 2

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.grid = [cli.parse_distortion(label) for label in self.GRID]
        self.references = {}
        self.evaluations = {label: 0 for label in self.GRID}
        self.attempted = self.failed = 0
        # Keep the logits ``evaluate`` computes, for the checks.
        self.captured = []
        original = model.FractalCNN.predict
        captured = self.captured

        def predict(net, x):
            logits = original(net, x)
            captured.append(logits)
            return logits

        model.FractalCNN.predict = predict

    def setup(self, where):
        corpus = simulate.CorpusSpec(
            size=224, seed=self.seed, pipelines=self.PIPELINES,
            n_test_real=2, n_test_fake=2, spectral_exponent=(0.75, 1.3),
        )
        self.manifest = simulate.build_corpus(corpus, where)["test"]
        self.manifest_path = os.path.join(where, "manifest_test.csv")
        cfg = model.ModelConfig(channels=32, n_units=2, input_size=224)
        params = model.FractalCNN(cfg, seed=self.seed).copy_params()
        path = os.path.join(where, "init.ckpt")
        checkpoint.save_checkpoint(
            path, checkpoint.ModelCheckpoint(cfg, params, {"residual_kernel": 7})
        )
        self.ckpt = checkpoint.load_checkpoint(path)
        self.ckpt.build_model().predict(_prepared(self.manifest, self.manifest.entries[:1], 224))

    def _evaluate(self, distortion):
        self.captured.clear()
        result = training.evaluate(self.ckpt, self.manifest, distortion, batch_size=8)
        return np.concatenate(self.captured), (result.per_pipeline, result.overall)

    def unit(self, index):
        self.manifest = fileio.read_manifest(self.manifest_path)
        outs = [(d.label, self._evaluate(d)) for d in self.grid]
        return len(self.grid) * len(self.manifest), outs

    def check(self, outs):
        n = len(self.manifest)
        for label, evaluation in outs:
            self.attempted += n
            bad = checks.nonfinite_logits(evaluation[0], n)
            reference = self.references.setdefault(label, evaluation)
            if not checks.same_evaluation(evaluation, reference):
                bad = n
                _log(f"screen-224: {label} evaluation did not repeat")
            self.failed += bad
            self.evaluations[label] += 1

    def finish(self):
        none = self.grid[0]
        if self.evaluations[none.label] < 2:
            self.check([(none.label, self._evaluate(none))])
        entries = sorted(self.manifest.entries, key=lambda e: e.path)[: self.PRECISION_IMAGES]
        x = _prepared(self.manifest, entries, 224)
        logits32 = self.ckpt.build_model().predict(x)
        net64 = model.FractalCNN(replace(self.ckpt.config, dtype="float64"))
        net64.load_params({k: v.astype(np.float64) for k, v in self.ckpt.params.items()})
        logits64 = net64.predict(x.astype(np.float64))
        misses = checks.precision_misses(logits32, logits64)
        self.attempted += len(entries)
        self.failed += misses + checks.nonfinite_logits(logits32, len(entries))
        if misses:
            _log(f"screen-224: float32 logits {logits32} vs float64 {logits64}")

    def detail(self, rates):
        return {"eval_images_per_s": statistics.median(rates)}


class Spectra64:
    """Corpus build, feature export and average-spectrum report, all at 64 px."""

    PIPELINES = [
        simulate.PipelineConfig("tconv_conv", 3, 201, 8, name="tconv_d3", kernel_scope="image"),
        simulate.PipelineConfig("nearest", 2, 212, 16, name="near_d2"),
        simulate.PipelineConfig("zero_insert", 2, 222, 16, name="zero_d2"),
    ]
    ZERO = "zero_d2"

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.attempted = self.failed = 0
        self.corpus_rates, self.feature_rates = [], []

    def _pass(self, where, per_class):
        corpus = simulate.CorpusSpec(
            size=64, seed=self.seed, pipelines=self.PIPELINES,
            n_test_real=per_class, n_test_fake=per_class,
        )
        t0 = perf_counter()
        simulate.build_corpus(corpus, where)
        t1 = perf_counter()
        manifest = fileio.read_manifest(os.path.join(where, "manifest_test.csv"))
        figures.features_export(manifest, os.path.join(where, "features.csv"), levels=2)
        t2 = perf_counter()
        figures.average_spectrum_report(manifest, os.path.join(where, "average"))
        return manifest, t1 - t0, t2 - t1

    def setup(self, where):
        self._pass(where, 10)

    def unit(self, index):
        where = os.path.join(self.work, f"unit{index}")
        manifest, corpus_s, features_s = self._pass(where, 100)
        self.corpus_rates.append(len(manifest) / corpus_s)
        self.feature_rates.append(len(manifest) / features_s)
        return len(manifest), (where, manifest)

    def check(self, out):
        where, manifest = out
        n = len(manifest)
        self.attempted += 2 * n  # written images plus feature rows
        for entry in manifest.entries:
            if entry.pipeline == self.ZERO:
                image = fileio.read_image(manifest.resolve(entry))
                self.failed += 0 if checks.quadrants_equal(image) else 1
        with open(os.path.join(where, "features.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        self.failed += checks.nonfinite_rows([r[3:] for r in rows], n)
        zero = [float(r[3]) for r in rows if r[2] == self.ZERO]
        real = [float(r[3]) for r in rows if r[1] == "real"]
        score = checks.auc(zero, real) if zero and real else 0.0
        if score < checks.AUC_FLOOR:
            self.failed += len(zero) + len(real)
            _log(f"spectra-64: zero-insert vs real AUC {score:.4f} < {checks.AUC_FLOOR}")
        shutil.rmtree(where)

    def finish(self):
        pass

    def detail(self, rates):
        return {
            "corpus_images_per_s": statistics.median(self.corpus_rates),
            "features_images_per_s": statistics.median(self.feature_rates),
        }


WORKLOAD_CLASSES = {"train-64": Train64, "screen-224": Screen224, "spectra-64": Spectra64}


def environment(name) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # directory entries name the build machine's paths; leave them out
        "blas": {k: v for k, v in blas.items() if "directory" not in k},
        "threads": {k: os.environ.get(k) for k in spec.WORKLOADS[name]["env"]},
    }


def run(name, seed, seconds, trace, work) -> dict:
    workload = WORKLOAD_CLASSES[name](seed, work)
    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup(os.path.join(work, f"setup{i}"))
        setup_times.append(perf_counter() - t0)
    _log(f"{name} set-up times: {', '.join(f'{t:.4f}' for t in setup_times)} s")

    rates, plain_times, traced_times, summaries, order = [], [], [], [], []
    start = perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        tracer = tracing.Tracer() if traced else None
        restore = tracing.install(tracer) if traced else []
        t0 = perf_counter()
        try:
            images, out = workload.unit(index)
        finally:
            tracing.uninstall(restore)
        elapsed = perf_counter() - t0
        order.append(f"{elapsed:.3f}{' traced' if traced else ''}")
        if traced:
            traced_times.append(elapsed)
            summaries.append(tracing.summarize(tracer))
        else:
            plain_times.append(elapsed)
            rates.append(images / elapsed)
        workload.check(out)
        index += 1
        if perf_counter() - start >= seconds and (not trace or traced_times):
            break
    workload.finish()
    _log(f"{name} unit seconds: {', '.join(order)}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb}
    detail.update(workload.detail(rates))
    if trace:
        overhead = 100.0 * (statistics.median(traced_times) / statistics.median(plain_times) - 1.0)
        detail["trace_overhead_pct"] = overhead
        metrics = tracing.per_layer_metrics(summaries, [n for n, _u, _b in spec.PER_LAYER])
        metrics["trace.overhead_pct"] = overhead
        units = {n: u for n, u, _b in spec.PER_LAYER}
        _print_spans(summaries)
    else:
        metrics = {
            "setup_s": detail["setup_s"],
            "images_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {n: u for n, u, _b, _bound in spec.END_TO_END}
    for key, value in detail.items():
        print(f"{name} {key} = {value:.6g} {spec.DETAIL_UNITS[key]}")
    print(f"{name} units timed: {len(plain_times)} untraced, {len(traced_times)} traced")
    print(f"env {json.dumps(environment(name), sort_keys=True)}")
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _print_spans(summaries) -> None:
    """Per span name: calls, inclusive and self seconds, per traced unit."""
    n = len(summaries)
    totals = {}
    for s in summaries:
        for name, entry in s["names"].items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += entry["calls"]
            t[1] += entry["incl"]
            t[2] += entry["self"]
    print(f"spans per traced unit ({n} units): calls, inclusive s, self s")
    for name, (calls, incl, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:40s} {calls / n:10.1f} {incl / n:10.4f} {self_s / n:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
