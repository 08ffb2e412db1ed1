"""Minimal double-precision network kernel.

Supports exactly the layer kinds declared in :mod:`fedsim.models`: dense,
conv (square kernel, zero padding), relu, maxpool and flatten.  The backward
pass is hand-derived per layer; correctness is pinned by central
finite-difference checks in the test suite.

Both window layers read their windows through one read-only strided view
of the input, ``(n, c, k, k, out_h, out_w)``, and copy it once.  The conv
copies it C-contiguous as im2col columns ``(n, c*k*k, L)`` and multiplies
them by the weights with BLAS.  Its weight gradient is one BLAS product per
sample, ``dy[s] @ cols[s].T``, added up in sample order, so ``dw`` does not
depend on how a gather laid out its memory.  The maxpool copies the windows
offset-major and keeps, with strict ``>`` comparisons in row-major offset
order, the first maximum of each window and the offset it sits at: a tie of
-0.0 and +0.0 keeps the one that comes first, and a NaN, once taken, stays,
as with ``argmax``.  Both backward passes sum window values back onto a
zeroed map with one ``np.add.at`` over flat pixel positions (col2im): the
conv its column gradients, the maxpool the upstream gradient of each window
at its maximum.  The positions are ordered so that every pixel adds its
addends in ascending window offset, so results are deterministic for fixed
inputs.  Evaluation (:func:`model_forward`) drops each layer's cache as soon
as the next layer has run.

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
from fedsim.models import LayerSpec, ModelParams, ModelSpec, validate_params


def _windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """A read-only strided view ``(n, c, k, k, out_h, out_w)`` of every
    ``k x k`` window of ``x``: ``[:, :, di, dj]`` holds the pixel at offset
    ``(di, dj)`` of each window."""

    n, c, h, wid = x.shape
    out_h = (h - k) // stride + 1
    out_w = (wid - k) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        (n, c, k, k, out_h, out_w),
        (sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )


@functools.lru_cache(maxsize=256)
def _window_pixels(c: int, h: int, w: int, k: int, stride: int) -> np.ndarray:
    """Flat position, in one sample's C-ordered ``(c, h, w)`` map, of pixel
    ``(di, dj)`` of every ``k x k`` window, read-only ``(c, k*k, out_h, out_w)``
    with ``kk = di*k + dj``: ``[:, 0]`` holds each window's origin and
    ``[0, :, 0, 0]`` each offset's distance from it."""

    out_h = (h - k) // stride + 1
    out_w = (w - k) // stride + 1
    pixels = (
        np.arange(c, dtype=np.intp).reshape(c, 1, 1, 1) * (h * w)
        + (np.arange(k, dtype=np.intp)[:, None] * w + np.arange(k)).reshape(1, k * k, 1, 1)
        + np.arange(out_h, dtype=np.intp)[:, None] * (stride * w)
        + np.arange(out_w, dtype=np.intp) * stride
    )
    pixels.flags.writeable = False
    return pixels


def _sample_starts(shape) -> np.ndarray:
    """Flat offset of each sample's ``(c, h, w)`` map in an ``(n, c, h, w)`` one."""

    n, c, h, w = shape
    return np.arange(0, n * c * h * w, c * h * w, dtype=np.intp)


def _col2im(values: np.ndarray, index: np.ndarray, shape) -> np.ndarray:
    """Sum ``values`` onto a zeroed ``shape`` map at the flat positions ``index``.

    One ``np.add.at`` over a 1-D operand and a 1-D index, which adds in index
    order: a pixel sums its addends onto +0.0 in the order they are listed.
    """

    out = np.zeros(shape, dtype=np.float64)
    np.add.at(out.reshape(-1), index, values.reshape(-1))
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


def _im2col(x, k: int, stride: int, padding: int) -> np.ndarray:
    """Every window of the zero-padded ``x``, copied into one C-contiguous
    ``(n, c, k, k, out_h, out_w)`` array."""

    if padding:
        n, c, h, wid = x.shape
        xp = np.zeros((n, c, h + 2 * padding, wid + 2 * padding), dtype=np.float64)
        xp[:, :, padding : padding + h, padding : padding + wid] = x
        x = xp
    return np.ascontiguousarray(_windows(x, k, stride))


def _conv_forward(x, w, b, layer: LayerSpec):
    windows = _im2col(x, layer.kernel, layer.stride, layer.padding)
    n, _, _, _, out_h, out_w = windows.shape
    cols = windows.reshape(n, -1, out_h * out_w)  # (n, c*k*k, L)
    y = np.matmul(w.reshape(w.shape[0], -1), cols)
    y += b[:, None]
    return y.reshape(n, w.shape[0], out_h, out_w), (cols, x.shape)


def _conv_backward(dy, w, layer: LayerSpec, cache, dw, db, need_dx=True):
    """The input gradient; ``dw`` and ``db`` (contiguous) receive the parameter gradients."""

    cols, x_shape = cache
    n, c, h, wid = x_shape
    k, s, p = layer.kernel, layer.stride, layer.padding
    dyl = dy.reshape(n, dy.shape[1], -1)  # (n, out_c, L)
    # one BLAS product per sample, summed in sample order
    np.add.reduce(
        np.matmul(dyl, cols.transpose(0, 2, 1)), axis=0, out=dw.reshape(w.shape[0], -1)
    )
    np.add.reduce(dyl, axis=(0, 2), out=db)
    if not need_dx:
        return None
    # (n, c, k*k, L) column gradients, scattered in that order: each pixel
    # adds its addends in ascending window offset
    dcols = np.matmul(w.reshape(w.shape[0], -1).T, dyl)
    shape = (n, c, h + 2 * p, wid + 2 * p)
    pixels = _window_pixels(c, shape[2], shape[3], k, s).reshape(-1)
    xp_grad = _col2im(dcols, (_sample_starts(shape)[:, None] + pixels).reshape(-1), shape)
    return xp_grad[:, :, p : p + h, p : p + wid] if p else xp_grad


def _maxpool_forward(x, layer: LayerSpec):
    """The first maximum of each window, found with strict comparisons.

    The window offsets are copied offset-major, then visited in row-major
    order; an offset replaces the running maximum only where it is larger, so
    a tie keeps the first, whichever zero it is.  A NaN counts as larger and,
    once taken, is never replaced, as with ``argmax``.  The cache holds each
    window's winning offset ``kk = di*k + dj``, in the narrowest unsigned
    type that holds ``k*k - 1``.
    """

    k = layer.kernel
    windows = np.ascontiguousarray(_windows(x, k, layer.stride).transpose(2, 3, 0, 1, 4, 5))
    windows = windows.reshape(k * k, *windows.shape[2:])  # (k*k, n, c, out_h, out_w)
    y = windows[0]
    won = np.zeros(y.shape, dtype=np.min_scalar_type(k * k - 1))
    take = np.empty(y.shape, dtype=bool)
    mark = np.empty(y.shape, dtype=won.dtype)
    for kk in range(1, k * k):
        np.less_equal(windows[kk], y, out=take)
        np.logical_not(take, out=take)  # larger, or a NaN on either side
        take &= y == y  # but a NaN already taken stays
        y = np.where(take, windows[kk], y)
        # offsets rise, so the last one taken is the largest
        np.maximum(won, np.multiply(take, won.dtype.type(kk), out=mark), out=won)
    return y, (x.shape, won)


def _maxpool_backward(dy, layer: LayerSpec, cache):
    """``dy`` summed onto each window's winning pixel.

    Windows are scattered in reverse order: within one plane a later window
    reaches a shared pixel from an earlier offset, so every pixel adds its
    addends in ascending offset, whatever the stride.
    """

    x_shape, won = cache
    _, c, h, wid = x_shape
    pixels = _window_pixels(c, h, wid, layer.kernel, layer.stride)
    # positions in np.intp: the offset table, not the narrow winner, is scaled
    at = pixels[0, :, 0, 0].take(won)
    at += pixels[:, 0]
    at += _sample_starts(x_shape).reshape(-1, 1, 1, 1)
    return _col2im(dy.reshape(-1)[::-1], at.reshape(-1)[::-1], x_shape)


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


def _forward(spec: ModelSpec, params: ModelParams, batch: np.ndarray, caches: list | None):
    """Logits; each layer's cache for the backward pass is appended to
    ``caches``, or dropped as the next layer runs when it is ``None``."""

    layout = spec.layout
    x = _check_batch(layout.input_shape, batch)
    tensors = params.tensors
    for layer, slot in zip(spec.layers, layout.slots):
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
        if caches is not None:
            caches.append(cache)
    return x


def forward_cached(spec: ModelSpec, params: ModelParams, batch: np.ndarray):
    """Logits plus the per-layer caches needed for the backward pass.

    ``params`` is not checked against ``spec``: callers validate once at
    their entry (:func:`model_forward`, :func:`model_backward`,
    ``engine.local_update``, ``engine.stage2_dml``), and training updates
    the values in place, never the shapes.
    """

    caches: list = []
    return _forward(spec, params, batch, caches), caches


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
    """Class logits, shape ``(batch, class_count)``, keeping no layer's cache."""

    validate_params(spec, params)
    return _forward(spec, params, batch, None)


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
