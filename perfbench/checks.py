"""Correctness checks on the outputs of the benchmark's workloads.

Each check is a pure function of outputs the program produced, so
``selftest.py`` can feed it deliberately corrupted outputs. The oracles here
use ``numpy`` directly, not ``fsf``, so a defect in the program cannot also
hide in its check.
"""

from __future__ import annotations

import math

import numpy as np

# Float32 vs float64 logits of the same parameters must agree to within
# PRECISION_TOL * max(1, |float64 logit|).
PRECISION_TOL = 1e-3
# Largest quadrant deviation allowed in a zero-insert spectrum, relative to
# the spectrum's peak.
QUADRANT_TOL = 1e-9
# Criterion 6's floor for the level-0 statistic, zero-insert vs real.
AUC_FLOOR = 0.95


def _history_bits(history) -> list:
    return [
        tuple(float(v).hex() for v in (e.train_loss, e.train_acc, e.val_loss, e.val_acc))
        for e in history
    ]


def train_history(history, reference) -> list:
    """Problems with one ``train`` call's history; [] when it is sound.

    Every epoch loss must be finite, and the history must repeat the run's
    first history bit for bit (``reference`` is None for the first call).
    """
    problems = [
        f"epoch {e.epoch} loss not finite"
        for e in history
        if not (math.isfinite(e.train_loss) and math.isfinite(e.val_loss))
    ]
    if reference is not None and _history_bits(history) != _history_bits(reference):
        problems.append("history differs from the run's first train call")
    return problems


def checkpoint_bytes(saved: bytes, resaved: bytes, reference) -> list:
    """save -> load -> save must reproduce the bytes, and repeat the run's first save."""
    problems = []
    if saved != resaved:
        problems.append("save -> load -> save changed the checkpoint bytes")
    if reference is not None and saved != reference:
        problems.append("checkpoint bytes differ from the run's first train call")
    return problems


def nonfinite_logits(logits, expected: int) -> int:
    """Evaluated images whose logit is missing or not finite."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    return int(np.count_nonzero(~np.isfinite(logits))) + max(expected - logits.size, 0)


def same_evaluation(a, b) -> bool:
    """Two evaluations (logits, accuracy table) agree exactly."""
    (logits_a, table_a), (logits_b, table_b) = a, b
    return np.asarray(logits_a).tobytes() == np.asarray(logits_b).tobytes() and table_a == table_b


def precision_misses(logits32, logits64) -> int:
    """Images whose float32 logit strays from the float64 one beyond PRECISION_TOL."""
    l32 = np.asarray(logits32, dtype=np.float64)
    l64 = np.asarray(logits64, dtype=np.float64)
    ok = np.abs(l32 - l64) <= PRECISION_TOL * np.maximum(1.0, np.abs(l64))
    return int(np.count_nonzero(~ok))


def quadrants_equal(image) -> bool:
    """A zero-insert image's magnitude spectrum has four equal quadrants."""
    spectrum = np.abs(np.fft.fft2(np.asarray(image, dtype=np.float64)))
    h, w = spectrum.shape
    if h % 2 or w % 2:
        return False
    hh, hw = h // 2, w // 2
    q00 = spectrum[:hh, :hw]
    others = (spectrum[:hh, hw:], spectrum[hh:, :hw], spectrum[hh:, hw:])
    deviation = max(float(np.max(np.abs(q - q00))) for q in others)
    return deviation <= QUADRANT_TOL * max(float(spectrum.max()), 1e-300)


def nonfinite_rows(rows, expected: int) -> int:
    """Feature rows that are missing or hold a value that is not finite."""
    bad = 0
    for row in rows:
        try:
            values = [float(v) for v in row]
        except ValueError:
            bad += 1
            continue
        if not values or not all(math.isfinite(v) for v in values):
            bad += 1
    return bad + max(expected - len(rows), 0)


def auc(positive, negative) -> float:
    """Probability that a positive outranks a negative (ties count half)."""
    pos = np.asarray(positive, dtype=np.float64)[:, None]
    neg = np.asarray(negative, dtype=np.float64)[None, :]
    return float(np.mean((pos > neg) + 0.5 * (pos == neg)))
