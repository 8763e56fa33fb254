"""The benchmark still fits the current package: its correctness checks
accept sound output and reject corrupted output, and its tracer wraps the
package functions it names and puts them back."""

import importlib
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines and lines[-1].startswith("every check passes"), proc.stdout


def _fsf_attributes(tracing):
    """Every attribute of every traced fsf module and class, by identity."""
    spaces = [importlib.import_module(f"fsf.{m}") for m, *_ in tracing.FUNCTIONS]
    spaces.append(importlib.import_module("fsf.parallel"))
    spaces += [getattr(importlib.import_module(f"fsf.{m}"), c) for m, c, *_ in tracing.METHODS]
    return {(id(s), k): v for s in spaces for k, v in list(vars(s).items())}


def test_tracer_spans_the_conv_kernels_and_uninstall_restores():
    """The benchmark's tracer finds the functions it wraps under their current
    names, so a rename in the package fails here rather than in a traced run."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))

    before = _fsf_attributes(tracing)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        from fsf.model import FractalCNN, ModelConfig, bce_with_logits
        from fsf.ops import conv2d

        rng = np.random.default_rng(0)
        conv2d(rng.standard_normal((16, 16)), rng.standard_normal((3, 3)))
        model = FractalCNN(ModelConfig(channels=4, n_units=1, input_size=16, head_hidden=8))
        logits, cache = model.forward(rng.standard_normal((2, 16, 16, 1)))
        model.backward(cache, bce_with_logits(logits, np.array([0.0, 1.0]))[1])
    finally:
        tracing.uninstall(restore)
    names = {span[3] for span in tracer.spans}
    for name in ("ops.conv2d", "ops.conv3x3_nhwc", "ops.conv3x3_nhwc_backward",
                 "model.forward", "model.backward"):
        assert name in names, name
    after = _fsf_attributes(tracing)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
