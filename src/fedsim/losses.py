"""Losses used for local training and server-side mutual distillation.

All functions take a ``(batch, classes)`` float64 logit matrix and return both
the scalar loss and its gradient with respect to the logits, so callers can
chain them through :func:`fedsim.nn.model_backward`.

Conventions:

* cross entropy averages over the batch;
* the KL divergences *sum* over samples and classes (the distillation loss is
  an unnormalised sum over the batch);
* every ``log`` argument is clamped from below at ``LOG_EPS`` so degenerate
  probability rows never produce NaN/inf.
"""

from __future__ import annotations

import functools

import numpy as np

from fedsim.errors import DimensionError

LOG_EPS = 1e-12


def _check_logits(logits: np.ndarray, name: str = "logits") -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise DimensionError(f"{name} must be 2-d (batch, classes), got shape {logits.shape}")
    return logits


def softmax_with_temperature(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise ``softmax(logits / temperature)``, computed max-subtracted.

    Rows of the result sum to 1 and every entry is strictly positive.
    """

    logits = _check_logits(logits)
    scaled = logits / float(temperature)
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled)
    return e / e.sum(axis=1, keepdims=True)


@functools.lru_cache(maxsize=256)
def _row_starts(n: int, classes: int) -> np.ndarray:
    """Flat offset of each row of a C-ordered ``(n, classes)`` matrix, read-only."""

    starts = np.arange(0, n * classes, classes)
    starts.flags.writeable = False
    return starts


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy against labels in ``[0, classes)`` (the caller checks), with gradient.

    The label entries are read and corrected through their flat offsets, and
    the mean is ``add.reduce / n``, which is how ``np.mean`` computes it.
    The gradient is a new array.
    """

    logits = _check_logits(logits)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise DimensionError(
            f"labels must be 1-d of length {logits.shape[0]}, got shape {labels.shape}"
        )
    n, classes = logits.shape
    picks = _row_starts(n, classes) + labels
    scaled = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    picked = scaled.take(picks)
    grad = np.exp(scaled, out=scaled)
    s = np.add.reduce(grad, axis=1, keepdims=True)
    loss = -float(np.add.reduce(picked - np.log(s[:, 0])) / n)
    grad /= s
    grad.put(picks, grad.take(picks) - 1.0)
    grad /= n
    return loss, grad


def _check_pair(target_probs: np.ndarray, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logits = _check_logits(logits)
    target_probs = np.asarray(target_probs, dtype=np.float64)
    if target_probs.shape != logits.shape:
        raise DimensionError(
            f"target probabilities {target_probs.shape} do not match logits {logits.shape}"
        )
    return target_probs, logits


def kl_divergence(
    target_probs: np.ndarray, logits: np.ndarray, temperature: float
) -> tuple[float, np.ndarray]:
    """``D_KL(target || softened model)`` summed over samples, gradient wrt logits.

    ``target_probs`` is treated as a constant teacher distribution whose rows
    sum to 1; the model distribution is ``softmax(logits / temperature)``.
    The gradient is the closed form ``(q - t) / temperature``, which is
    exactly zero (bitwise) when the target equals the model's own softened
    distribution -- self-distillation is a true fixed point.
    """

    target_probs, logits = _check_pair(target_probs, logits)
    q = softmax_with_temperature(logits, temperature)
    loss = float(
        np.sum(
            target_probs
            * (np.log(np.maximum(target_probs, LOG_EPS)) - np.log(np.maximum(q, LOG_EPS)))
        )
    )
    grad = (q - target_probs) / float(temperature)
    return loss, grad


def kl_divergence_model_led(
    target_probs: np.ndarray, logits: np.ndarray, temperature: float
) -> tuple[float, np.ndarray]:
    """``D_KL(softened model || target)`` summed over samples, gradient wrt logits.

    The reverse direction of :func:`kl_divergence`: the model's own
    distribution sits in front of the log.
    """

    target_probs, logits = _check_pair(target_probs, logits)
    q = softmax_with_temperature(logits, temperature)
    g = np.log(np.maximum(q, LOG_EPS)) - np.log(np.maximum(target_probs, LOG_EPS))
    loss = float(np.sum(q * g))
    grad = q * (g - np.sum(q * g, axis=1, keepdims=True)) / float(temperature)
    return loss, grad
