"""Spans around the public functions of the ``fsf`` modules, from outside.

``install`` replaces each traced function in every ``fsf`` module namespace
that holds it (``fsf.model.dft2`` as well as ``fsf.fft.dft2``), and each
traced method on its class, with a wrapper that records a span: id, parent,
thread, name, start and end. Every thread keeps its own parent stack; work
that ``parallel_map`` hands to a pool thread gets the ``parallel_map`` span
as its parent. Spans stay in memory until ``summarize`` reads them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import os
import sys
import threading
from time import perf_counter

import numpy as np


def _nbytes(value) -> int:
    """Summed nbytes of every array in a nested tuple/list/dict."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return sum(_nbytes(v) for v in value.values())
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []  # (id, parent id or 0, thread id, name, start, end)
        self.bytes = {}  # span name -> summed input bytes
        self.cache_bytes = 0  # largest activation cache one forward returned
        self.residual_calls = 0
        self.residual_repeats = 0
        self.pool_workers = {}  # parallel_map span id -> worker count
        self._seen_residual_inputs = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, threading.get_ident(), name, start, end))

    def add_bytes(self, name, n) -> None:
        with self._lock:
            self.bytes[name] = self.bytes.get(name, 0) + int(n)

    def note_cache(self, cache) -> None:
        size = _nbytes(cache)
        with self._lock:
            self.cache_bytes = max(self.cache_bytes, size)

    def note_residual_input(self, image) -> None:
        arr = np.ascontiguousarray(image)
        digest = hashlib.blake2b(arr.tobytes(), digest_size=16)
        digest.update(repr((arr.shape, arr.dtype.str)).encode())
        key = digest.digest()
        with self._lock:
            self.residual_calls += 1
            if key in self._seen_residual_inputs:
                self.residual_repeats += 1
            else:
                self._seen_residual_inputs.add(key)


# -- what gets wrapped ---------------------------------------------------------
# Meters run after the span closes, so their cost lands in the caller's self
# time and in the reported tracing overhead, not in the traced layer.

def _meter_arg_bytes(index):
    def meter(tracer, name, args, kwargs, result):
        tracer.add_bytes(name, np.asarray(args[index]).nbytes)
    return meter


def _meter_file_bytes(tracer, name, args, kwargs, result):
    tracer.add_bytes(name, os.path.getsize(args[0]))


def _meter_checkpoint_bytes(tracer, name, args, kwargs, result):
    tracer.add_bytes(name, _nbytes(args[1].params))


def _meter_residual(tracer, name, args, kwargs, result):
    tracer.note_residual_input(args[0])


def _meter_cache(tracer, name, args, kwargs, result):
    tracer.note_cache(result[1])


# (module, attribute, span name, meter or None)
FUNCTIONS = [
    ("fft", "dft2", "fft.dft2", _meter_arg_bytes(0)),
    ("fft", "idft2", "fft.idft2", None),
    ("ops", "conv3x3_nhwc", "ops.conv3x3_nhwc", None),
    ("ops", "conv3x3_nhwc_backward", "ops.conv3x3_nhwc_backward", None),
    ("ops", "instance_norm_nhwc", "ops.instance_norm_nhwc", None),
    ("ops", "instance_norm_nhwc_backward", "ops.instance_norm_nhwc_backward", None),
    ("ops", "leaky_relu", "ops.leaky_relu", None),
    ("ops", "leaky_relu_backward", "ops.leaky_relu_backward", None),
    ("ops", "median_filter", "ops.median_filter", None),
    ("ops", "transposed_conv2d", "ops.transposed_conv2d", None),
    ("ops", "conv2d", "ops.conv2d", None),
    ("training", "train", "training.train", None),
    ("training", "evaluate", "training.evaluate", None),
    ("forensics", "noise_residual", "forensics.noise_residual", _meter_residual),
    ("forensics", "apply_augment_plan", "forensics.apply_augment_plan", None),
    ("forensics", "center_crop_pad", "forensics.center_crop_pad", None),
    ("simulate", "synth_real", "simulate.synth_real", None),
    ("simulate", "generate_fake", "simulate.generate_fake", None),
    ("simulate", "build_corpus", "simulate.build_corpus", None),
    ("spectral", "self_similarity_features", "spectral.self_similarity_features", None),
    ("spectral", "average_spectrum", "spectral.average_spectrum", None),
    ("spectral", "spectrum_of", "spectral.spectrum_of", None),
    ("fileio", "read_image", "fileio.read_image", _meter_file_bytes),
    ("fileio", "write_pgm", "fileio.write_pgm", _meter_arg_bytes(1)),
    ("fileio", "read_manifest", "fileio.read_manifest", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", _meter_checkpoint_bytes),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("figures", "features_export", "figures.features_export", None),
    ("figures", "average_spectrum_report", "figures.average_spectrum_report", None),
]

# (module, class, method, span name, meter or None)
METHODS = [
    ("model", "FractalCNN", "forward", "model.forward", _meter_cache),
    ("model", "FractalCNN", "backward", "model.backward", None),
    ("model", "FractalCNN", "predict", "model.predict", None),
    ("forensics", "DistortionConfig", "apply", "forensics.distort", None),
]


def _wrap(tracer, name, fn, meter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if meter is not None:
            meter(tracer, name, args, kwargs, result)
        return result
    return traced


def _wrap_parallel_map(tracer, fn, worker_count):
    @functools.wraps(fn)
    def traced(item_fn, items):
        items = list(items)

        def body():
            pool_span = tracer.current()
            tracer.pool_workers[pool_span] = min(worker_count(), len(items)) if len(items) > 1 else 1

            def item(x):
                return tracer.call("parallel.item", item_fn, (x,), {}, parent=pool_span)

            return fn(item, items)

        return tracer.call("parallel.parallel_map", body, (), {})
    return traced


def _fsf_modules():
    return [m for n, m in list(sys.modules.items()) if n == "fsf" or n.startswith("fsf.")]


def install(tracer: Tracer) -> list:
    """Wrap every traced function and method; returns what ``uninstall`` restores."""
    modules = _fsf_modules()
    restore = []

    def replace_everywhere(original, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    for mod_name, attr, name, meter in FUNCTIONS:
        original = getattr(importlib.import_module(f"fsf.{mod_name}"), attr)
        replace_everywhere(original, _wrap(tracer, name, original, meter))
    parallel = importlib.import_module("fsf.parallel")
    replace_everywhere(
        parallel.parallel_map,
        _wrap_parallel_map(tracer, parallel.parallel_map, parallel.worker_count),
    )
    for mod_name, cls_name, method, name, meter in METHODS:
        cls = getattr(importlib.import_module(f"fsf.{mod_name}"), cls_name)
        original = cls.__dict__[method]
        restore.append((cls, method, original))
        setattr(cls, method, _wrap(tracer, name, original, meter))
    return restore


def uninstall(restore: list) -> None:
    for obj, key, value in reversed(restore):
        setattr(obj, key, value)


# -- reading the spans back ----------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds and self seconds, plus derived counters.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children in pool threads may overlap, so their union
    is subtracted.
    """
    children = {}
    for span in tracer.spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    by_id = {span[0]: span for span in tracer.spans}
    names = {}
    for span_id, _parent, _thread, name, start, end in tracer.spans:
        entry = names.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["incl"] += end - start
        entry["self"] += (end - start) - _covered(children.get(span_id, ()), start, end)

    data_wait = 0.0
    items = 0.0
    capacity = 0.0
    for span_id, parent, _thread, name, start, end in tracer.spans:
        if name.startswith("forensics.") and parent in by_id and by_id[parent][3] == "training.train":
            data_wait += end - start
        if name == "parallel.item":
            items += end - start
        elif name == "parallel.parallel_map":
            capacity += (end - start) * tracer.pool_workers.get(span_id, 1)
    return {
        "names": names,
        "bytes": dict(tracer.bytes),
        "cache_bytes": tracer.cache_bytes,
        "data_wait_s": data_wait,
        "busy_ratio": (items / capacity) if capacity > 0 else 0.0,
        "residual_calls": tracer.residual_calls,
        "residual_repeats": tracer.residual_repeats,
    }


def per_layer_metrics(summaries: list, metric_names) -> dict:
    """Average the traced units' summaries into the per-layer metric values."""
    n = len(summaries)
    calls, self_s, totals = {}, {}, {}
    for s in summaries:
        for name, entry in s["names"].items():
            calls[name] = calls.get(name, 0) + entry["calls"]
            self_s[name] = self_s.get(name, 0.0) + entry["self"]
        for key in ("data_wait_s", "residual_calls", "residual_repeats"):
            totals[key] = totals.get(key, 0) + s[key]
        for name, b in s["bytes"].items():
            totals[f"{name}.bytes"] = totals.get(f"{name}.bytes", 0) + b
    derived = {
        "model.cache_bytes": max(s["cache_bytes"] for s in summaries),
        "training.data_wait_s": totals["data_wait_s"] / n,
        "parallel.busy_ratio": sum(s["busy_ratio"] for s in summaries) / n,
        "forensics.noise_residual.repeat_ratio": (
            totals["residual_repeats"] / totals["residual_calls"] if totals["residual_calls"] else 0.0
        ),
    }
    out = {}
    for metric in metric_names:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric.endswith(".calls"):
            out[metric] = calls.get(metric[: -len(".calls")], 0) / n
        elif metric.endswith(".s"):
            out[metric] = self_s.get(metric[: -len(".s")], 0.0) / n
        elif metric.endswith(".bytes"):
            out[metric] = totals.get(metric, 0) / n
    return out
