"""Wall time and peak memory of one detector training step.

Runs one forward and one backward pass of a seeded ``FractalCNN`` on a
seeded (batch, size, size, 1) input, then prints one ``<name> <value>`` line
each for the settings, the pass times and the process's peak resident set
size (``ru_maxrss``, MB), before the step and after it.  A second,
identical step then runs under ``tracemalloc``, whose peak
(``traced_peak_mb``) counts the step's own allocations only and does not
move with heap placement the way ``ru_maxrss`` does; the timed step runs
untraced.  Last, ``predict_traced_peak_mb`` is the tracemalloc peak of a
one-image ``predict`` (inference, no cache) at the same size and dtype:

    PYTHONPATH=src python3 tools/step_memory.py --size 224 --batch 32

Run one configuration per process: ``ru_maxrss`` only grows.  The default is
the reference detector (32 channels, two fractal units, float32).
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
import tracemalloc

import numpy as np

from fsf.model import FractalCNN, ModelConfig, bce_with_logits


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def traced_peak_mb(fn, *args) -> float:
    """The tracemalloc peak of ``fn(*args)``, in MB (2**20 bytes)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def step(model, x, labels) -> tuple:
    """One training step; returns its forward and backward wall times."""
    t0 = time.perf_counter()
    logits, cache = model.forward(x)
    t1 = time.perf_counter()
    _, dlogits = bce_with_logits(logits, labels)
    model.backward(cache, dlogits)
    return t1 - t0, time.perf_counter() - t1


def main(argv=None) -> int:
    defaults = ModelConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=224, help="input side in pixels")
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--channels", type=int, default=defaults.channels)
    parser.add_argument("--n-units", type=int, default=defaults.n_units)
    parser.add_argument("--dtype", choices=("float32", "float64"), default=defaults.dtype)
    args = parser.parse_args(argv)

    cfg = ModelConfig(channels=args.channels, n_units=args.n_units, input_size=args.size,
                      dtype=args.dtype)
    model = FractalCNN(cfg, seed=17)
    rng = np.random.default_rng(23)
    x = (0.2 * rng.standard_normal((args.batch, args.size, args.size, 1))).astype(args.dtype)
    labels = (np.arange(args.batch) % 2).astype(args.dtype)
    print(f"config size={args.size} batch={args.batch} channels={args.channels} "
          f"n_units={args.n_units} dtype={args.dtype} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '')}")
    print(f"setup_peak_rss_mb {peak_rss_mb():.1f}")

    forward_s, backward_s = step(model, x, labels)
    print(f"forward_s {forward_s:.3f}")
    print(f"backward_s {backward_s:.3f}")
    print(f"step_s {forward_s + backward_s:.3f}")
    print(f"peak_rss_mb {peak_rss_mb():.1f}")

    print(f"traced_peak_mb {traced_peak_mb(step, model, x, labels):.1f}")
    print(f"predict_traced_peak_mb {traced_peak_mb(model.predict, x[:1]):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
