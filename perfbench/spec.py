"""What the benchmark measures: workloads, metrics and their bounds.

``run.py --all`` writes ``BENCHMARK.json`` at the repository root from
``benchmark_spec()``, so this module is the one place the metric names,
units and bounds are set.
"""

from __future__ import annotations

# Seconds one run measures (the closed loop repeats whole units until this
# much time has passed).
RUN_SECONDS = 20

# Each workload pins its own thread settings in the child's environment,
# with FSF_THREADS x BLAS threads <= 2.
WORKLOADS = {
    "train-64": {
        "why": "training recipe at 64 px: backward passes, the activation cache and the "
               "augmentation data path run here and nowhere else",
        "env": {"FSF_THREADS": "1", "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
    },
    "screen-224": {
        "why": "forward-only evaluate at the default 224 px crop over the eval distortion grid: "
               "mixed-radix FFT, reads, distortions and median residuals; training code idle",
        "env": {"FSF_THREADS": "1", "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
    },
    "spectra-64": {
        "why": "model-free half at 64 px: corpus build, fused-quadrant features and average "
               "spectra; many small per-call FFTs, file writes, parallel_map with 2 workers",
        "env": {"FSF_THREADS": "2", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    },
}

# (name, unit, better, bound). Every workload reports every one of these.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("images_per_s", "images/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better). Values are per traced unit of work (one train call,
# one pass over the distortion grid, one corpus pass); `.s` is self time.
PER_LAYER = [
    ("fft.dft2.calls", "count", "lower"),
    ("fft.dft2.s", "s", "lower"),
    ("fft.dft2.bytes", "bytes", "lower"),
    ("fft.idft2.calls", "count", "lower"),
    ("fft.idft2.s", "s", "lower"),
    ("ops.conv3x3_nhwc.calls", "count", "lower"),
    ("ops.conv3x3_nhwc.s", "s", "lower"),
    ("ops.conv3x3_nhwc_backward.s", "s", "lower"),
    ("ops.instance_norm_nhwc.s", "s", "lower"),
    ("ops.instance_norm_nhwc_backward.s", "s", "lower"),
    ("ops.leaky_relu.s", "s", "lower"),
    ("ops.leaky_relu_backward.s", "s", "lower"),
    ("ops.median_filter.calls", "count", "lower"),
    ("ops.median_filter.s", "s", "lower"),
    ("ops.transposed_conv2d.s", "s", "lower"),
    ("ops.conv2d.s", "s", "lower"),
    ("model.forward.s", "s", "lower"),
    ("model.backward.s", "s", "lower"),
    ("model.predict.s", "s", "lower"),
    ("model.cache_bytes", "bytes", "lower"),
    ("training.train.s", "s", "lower"),
    ("training.data_wait_s", "s", "lower"),
    ("training.evaluate.s", "s", "lower"),
    ("forensics.noise_residual.calls", "count", "lower"),
    ("forensics.noise_residual.s", "s", "lower"),
    ("forensics.noise_residual.repeat_ratio", "ratio", "lower"),
    ("forensics.apply_augment_plan.s", "s", "lower"),
    ("forensics.distort.s", "s", "lower"),
    ("simulate.synth_real.calls", "count", "lower"),
    ("simulate.synth_real.s", "s", "lower"),
    ("simulate.generate_fake.calls", "count", "lower"),
    ("simulate.generate_fake.s", "s", "lower"),
    ("simulate.build_corpus.s", "s", "lower"),
    ("spectral.self_similarity_features.calls", "count", "lower"),
    ("spectral.self_similarity_features.s", "s", "lower"),
    ("spectral.average_spectrum.s", "s", "lower"),
    ("spectral.spectrum_of.s", "s", "lower"),
    ("fileio.read_image.calls", "count", "lower"),
    ("fileio.read_image.s", "s", "lower"),
    ("fileio.read_image.bytes", "bytes", "lower"),
    ("fileio.write_pgm.calls", "count", "lower"),
    ("fileio.write_pgm.s", "s", "lower"),
    ("fileio.write_pgm.bytes", "bytes", "lower"),
    ("fileio.read_manifest.s", "s", "lower"),
    ("checkpoint.save_checkpoint.s", "s", "lower"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.load_checkpoint.s", "s", "lower"),
    ("parallel.parallel_map.calls", "count", "lower"),
    ("parallel.parallel_map.s", "s", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("figures.features_export.s", "s", "lower"),
    ("figures.average_spectrum_report.s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Workload-specific figures each run prints above its result line, with units.
DETAIL_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_images_per_s": "images/s",
    "val_loss": "nats",
    "eval_images_per_s": "images/s",
    "corpus_images_per_s": "images/s",
    "features_images_per_s": "images/s",
    "trace_overhead_pct": "%",
}


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
