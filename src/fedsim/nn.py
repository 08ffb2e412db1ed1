"""Minimal double-precision network kernel.

Supports exactly the layer kinds declared in :mod:`fedsim.models`: dense,
conv (square kernel, zero padding), relu, maxpool and flatten.  The backward
pass is hand-derived per layer; correctness is pinned by central
finite-difference checks in the test suite.

Convolution is implemented with an im2col expansion: one fancy-index gather
of every window, with indices built once per kernel, stride and output size.
The maxpool forward takes the argmax of each window (first maximum wins on
ties).  Both backward passes scatter window values back with one strided
slice add per window offset (col2im): the conv its column gradients, the
maxpool the upstream gradient routed to each argmax.  Offsets are added in a
fixed order, so results are deterministic for fixed inputs.

Training runs on flat vectors: a :class:`fedsim.models.ModelParams` is one
contiguous float64 vector laid out by ``spec.layout``, with a read-only
mapping of views for the layers to read.  :func:`backward_from_cache` writes
every parameter gradient, with ``out=``, into the views of a second
``ModelParams`` of the same layout, and :func:`sgd_step` updates the
parameter vector in place from the gradient vector.  The layout also holds what every
step needs of the spec: each layer's tensor names, the first layer with
parameters and the input shape.
"""

from __future__ import annotations

import functools

import numpy as np

from fedsim.errors import DimensionError
from fedsim.models import (
    LayerSpec,
    ModelParams,
    ModelSpec,
    layer_name,
    validate_params,
)


@functools.lru_cache(maxsize=64)
def _window_indices(k: int, stride: int, out_h: int, out_w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column gather indices of shape ``(k*k, out_h*out_w)``, window
    offsets in row-major order.  Cached, so they are read-only."""

    i0 = np.repeat(np.arange(k), k)
    j0 = np.tile(np.arange(k), k)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i, j = i0[:, None] + i1[None, :], j0[:, None] + j1[None, :]
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _col2im(parts: np.ndarray, k: int, stride: int, shape) -> np.ndarray:
    """Sum window values back onto a zeroed ``(n, c, h, w)`` map.

    ``parts[kk]`` holds the ``(n, c, out_h*out_w)`` values at window offset
    ``kk = di*k + dj``, the inverse of the gather by :func:`_window_indices`.
    Each offset is one strided slice add, in ascending ``kk``, so every pixel
    sums its addends in the order ``np.add.at`` over the gather indices would.
    """

    n, c, h, wid = shape
    out_h = (h - k) // stride + 1
    out_w = (wid - k) // stride + 1
    out = np.zeros(shape, dtype=np.float64)
    for kk, part in enumerate(parts):
        di, dj = divmod(kk, k)
        out[
            :,
            :,
            di : di + stride * (out_h - 1) + 1 : stride,
            dj : dj + stride * (out_w - 1) + 1 : stride,
        ] += part.reshape(n, c, out_h, out_w)
    return out


def _dense_forward(x, w, b):
    y = x @ w.T
    y += b
    return y, x


def _dense_backward(dy, w, cache, dw, db, need_dx=True):
    x = cache
    np.matmul(dy.T, x, out=dw)
    np.add.reduce(dy, axis=0, out=db)
    return dy @ w if need_dx else None


def _conv_forward(x, w, b, layer: LayerSpec):
    n, c, h, wid = x.shape
    k, s, p = layer.kernel, layer.stride, layer.padding
    if p:
        xp = np.zeros((n, c, h + 2 * p, wid + 2 * p), dtype=np.float64)
        xp[:, :, p : p + h, p : p + wid] = x
    else:
        xp = x
    out_h = (h + 2 * p - k) // s + 1
    out_w = (wid + 2 * p - k) // s + 1
    i, j = _window_indices(k, s, out_h, out_w)
    # The fancy-index gather, not a copy of strided slices: for one input
    # channel its reshape is a non-contiguous view, and the einsum in the
    # backward pass rounds ``dw`` according to that layout.
    cols = xp[:, :, i, j].reshape(n, c * k * k, -1)  # (n, c*k*k, out_h*out_w)
    wm = w.reshape(w.shape[0], -1)
    y = np.matmul(wm, cols) + b[:, None]
    y = y.reshape(n, w.shape[0], out_h, out_w)
    return y, (cols, x.shape)


def _conv_backward(dy, w, layer: LayerSpec, cache, dw, db, need_dx=True):
    """The input gradient; ``dw`` and ``db`` (contiguous) receive the parameter gradients."""

    cols, x_shape = cache
    n, c, h, wid = x_shape
    k, s, p = layer.kernel, layer.stride, layer.padding
    dyl = dy.reshape(n, dy.shape[1], -1)  # (n, out_c, L)
    np.einsum("nol,nfl->of", dyl, cols, out=dw.reshape(w.shape[0], -1))
    np.add.reduce(dyl, axis=(0, 2), out=db)
    if not need_dx:
        return None
    wm = w.reshape(w.shape[0], -1)
    dcols = np.matmul(wm.T, dyl).reshape(n, c, k * k, -1)
    xp_grad = _col2im(dcols.transpose(2, 0, 1, 3), k, s, (n, c, h + 2 * p, wid + 2 * p))
    return xp_grad[:, :, p : p + h, p : p + wid] if p else xp_grad


def _maxpool_forward(x, layer: LayerSpec):
    n, c, h, wid = x.shape
    k, s = layer.kernel, layer.stride
    out_h = (h - k) // s + 1
    out_w = (wid - k) // s + 1
    i, j = _window_indices(k, s, out_h, out_w)
    windows = x[:, :, i, j]  # (n, c, k*k, L)
    # argmax and a pick, not a max: relu outputs hold -0.0, and the pick
    # returns the first maximum itself, whichever zero it is.
    amax = windows.argmax(axis=2)  # first maximum on ties
    y = np.take_along_axis(windows, amax[:, :, None, :], axis=2)[:, :, 0, :]
    return y.reshape(n, c, out_h, out_w), (x.shape, amax)


def _maxpool_backward(dy, layer: LayerSpec, cache):
    x_shape, amax = cache
    k = layer.kernel
    offsets = np.arange(k * k).reshape(-1, 1, 1, 1)
    routed = np.where(amax == offsets, dy.reshape(amax.shape), 0.0)  # (k*k, n, c, L)
    return _col2im(routed, k, layer.stride, x_shape)


def _check_batch(expected: tuple[int, ...], batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != len(expected) + 1 or tuple(batch.shape[1:]) != expected:
        raise DimensionError(
            f"batch shape {batch.shape} does not match model input "
            f"(batch, {', '.join(map(str, expected))})"
        )
    if batch.shape[0] < 1:
        raise DimensionError("batch is empty")
    return batch


def forward_cached(spec: ModelSpec, params: ModelParams, batch: np.ndarray):
    """Logits plus the per-layer caches needed for the backward pass.

    ``params`` is not checked against ``spec``: callers validate once at
    their entry (:func:`model_forward`, :func:`model_backward`,
    ``engine.local_update``, ``engine.stage2_dml``), and training updates
    the values in place, never the shapes.
    """

    layout = spec.layout
    x = _check_batch(layout.input_shape, batch)
    tensors = params.tensors
    caches: list = []
    for idx, (layer, slot) in enumerate(zip(spec.layers, layout.slots)):
        try:
            if layer.kind == "dense":
                x, cache = _dense_forward(x, tensors[slot[0]], tensors[slot[1]])
            elif layer.kind == "conv":
                x, cache = _conv_forward(x, tensors[slot[0]], tensors[slot[1]], layer)
            elif layer.kind == "relu":
                cache = x > 0
                x = x * cache
            elif layer.kind == "maxpool":
                x, cache = _maxpool_forward(x, layer)
            elif layer.kind == "flatten":
                cache = x.shape
                x = x.reshape(x.shape[0], -1)
        except ValueError as exc:  # pragma: no cover - guarded by spec validation
            raise DimensionError(f"{layer_name(idx, layer)}: {exc}") from exc
        caches.append(cache)
    return x, caches


def backward_from_cache(
    spec: ModelSpec, params: ModelParams, caches: list, logit_grad: np.ndarray, out: ModelParams
) -> None:
    """Parameter gradients given caches from :func:`forward_cached`.

    Each gradient is written into the same-named tensor of ``out``, a
    :class:`ModelParams` of ``spec.layout``.  Nothing below the first
    parameter layer learns, so no input gradient is computed there.
    """

    layout = spec.layout
    grads = out.tensors
    grad = np.asarray(logit_grad, dtype=np.float64)
    for idx in range(len(spec.layers) - 1, layout.first - 1, -1):
        layer = spec.layers[idx]
        cache = caches[idx]
        if layer.kind == "dense":
            w, b = layout.slots[idx]
            grad = _dense_backward(
                grad, params.tensors[w], cache, grads[w], grads[b], idx > layout.first
            )
        elif layer.kind == "conv":
            w, b = layout.slots[idx]
            grad = _conv_backward(
                grad, params.tensors[w], layer, cache, grads[w], grads[b], idx > layout.first
            )
        elif layer.kind == "relu":
            grad = grad * cache
        elif layer.kind == "maxpool":
            grad = _maxpool_backward(grad, layer, cache)
        elif layer.kind == "flatten":
            grad = grad.reshape(cache)


def model_forward(spec: ModelSpec, params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Class logits, shape ``(batch, class_count)``."""

    validate_params(spec, params)
    logits, _ = forward_cached(spec, params, batch)
    return logits


def model_backward(
    spec: ModelSpec, params: ModelParams, batch: np.ndarray, logit_grad: np.ndarray
) -> ModelParams:
    """Gradient of a scalar loss wrt every parameter tensor, in a new
    :class:`ModelParams` of ``spec.layout``.

    ``logit_grad`` is the loss gradient with respect to the logits (as
    returned by the functions in :mod:`fedsim.losses`).
    """

    validate_params(spec, params)
    logits, caches = forward_cached(spec, params, batch)
    logit_grad = np.asarray(logit_grad, dtype=np.float64)
    if logit_grad.shape != logits.shape:
        raise DimensionError(
            f"logit gradient shape {logit_grad.shape} does not match logits {logits.shape}"
        )
    grads = ModelParams(spec.layout)
    backward_from_cache(spec, params, caches, logit_grad, grads)
    return grads


def sgd_step(flat: np.ndarray, grad: np.ndarray, learning_rate: float) -> None:
    """One plain gradient step in place: ``flat -= learning_rate * grad``.

    Both are flat vectors of one layout.  The step is two NumPy calls: the
    scaled step overwrites ``grad``, then is subtracted from ``flat``.  Each
    entry is rounded as in ``flat - learning_rate * grad``.
    """

    if grad.shape != flat.shape:
        raise DimensionError(
            f"gradient vector of shape {grad.shape} does not match parameters {flat.shape}"
        )
    np.multiply(grad, learning_rate, out=grad)
    np.subtract(flat, grad, out=flat)
