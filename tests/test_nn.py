"""Finite-difference, brute-force, ``np.add.at`` and slice-add oracles for the network kernel."""

import numpy as np
import pytest

import fedsim.nn
from fedsim.errors import DimensionError
from fedsim.losses import cross_entropy, kl_divergence, softmax_with_temperature
from fedsim.models import (
    LayerSpec,
    ModelParams,
    ModelSpec,
    cnn_spec,
    init_params,
    mlp_spec,
)
from fedsim.nn import (
    _conv_backward,
    _conv_forward,
    _maxpool_backward,
    _maxpool_forward,
    model_backward,
    model_forward,
    sgd_step,
)


def jitter_biases(params, rng, scale=0.3):
    """Replace zero-init biases with random values.

    Keeps every relu/maxpool pre-activation away from its kink so central
    finite differences are valid at the test point.
    """

    for name, tensor in params.tensors.items():
        if name.endswith(".bias"):
            tensor += rng.normal(size=tensor.shape) * scale


def fd_param_grads(spec, params, loss_of_params, h=1e-6):
    """Central finite differences of a scalar loss over every parameter entry."""

    grads = {}
    for name, tensor in params.tensors.items():
        g = np.zeros_like(tensor)
        for idx in np.ndindex(*tensor.shape):
            orig = tensor[idx]
            tensor[idx] = orig + h
            up = loss_of_params(params)
            tensor[idx] = orig - h
            down = loss_of_params(params)
            tensor[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def brute_force_conv(x, w, b, stride, padding):
    """Direct nested-loop convolution, the independent reference."""

    n, c, h, wid = x.shape
    out_c, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wid + 2 * padding - k) // stride + 1
    y = np.zeros((n, out_c, oh, ow))
    for ni in range(n):
        for oc in range(out_c):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    y[ni, oc, i, j] = np.sum(patch * w[oc]) + b[oc]
    return y


def brute_force_maxpool(x, k, stride):
    n, c, h, wid = x.shape
    oh = (h - k) // stride + 1
    ow = (wid - k) // stride + 1
    y = np.zeros((n, c, oh, ow))
    for ni in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    y[ni, ci, i, j] = x[
                        ni, ci, i * stride : i * stride + k, j * stride : j * stride + k
                    ].max()
    return y


def gather_indices(k, stride, out_h, out_w):
    i0 = np.repeat(np.arange(k), k)
    j0 = np.tile(np.arange(k), k)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    return i0[:, None] + i1[None, :], j0[:, None] + j1[None, :]


def add_at_conv(x, w, b, k, stride, padding, dy):
    """Conv forward and backward with an ``np.add.at`` col2im: ``y, dx, dw, db``."""

    n, c, h, wid = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (wid + 2 * padding - k) // stride + 1
    i, j = gather_indices(k, stride, out_h, out_w)
    cols = np.ascontiguousarray(xp[:, :, i, j]).reshape(n, c * k * k, -1)
    wm = w.reshape(w.shape[0], -1)
    y = (np.matmul(wm, cols) + b[:, None]).reshape(n, w.shape[0], out_h, out_w)
    dyl = dy.reshape(n, dy.shape[1], -1)
    # one product per sample, added in sample order
    dw = np.dot(dyl[0], cols[0].T)
    for s in range(1, n):
        dw += np.dot(dyl[s], cols[s].T)
    dw = dw.reshape(w.shape)
    db = dyl.sum(axis=(0, 2))
    dcols = np.matmul(wm.T, dyl).reshape(n, c, k * k, -1)
    xp_grad = np.zeros(xp.shape)
    np.add.at(xp_grad, (slice(None), slice(None), i, j), dcols)
    return y, xp_grad[:, :, padding : padding + h, padding : padding + wid], dw, db


def add_at_maxpool(x, k, stride, dy):
    """Maxpool forward and an ``np.add.at`` backward through the argmax: ``y, dx``."""

    n, c, h, wid = x.shape
    out_h = (h - k) // stride + 1
    out_w = (wid - k) // stride + 1
    i, j = gather_indices(k, stride, out_h, out_w)
    windows = x[:, :, i, j]
    amax = windows.argmax(axis=2)
    y = np.take_along_axis(windows, amax[:, :, None, :], axis=2)[:, :, 0, :]
    length = amax.shape[-1]
    ri = i[amax, np.arange(length)]
    cj = j[amax, np.arange(length)]
    dx = np.zeros(x.shape)
    np.add.at(
        dx,
        (np.arange(n)[:, None, None], np.arange(c)[None, :, None], ri, cj),
        dy.reshape(n, c, length),
    )
    return y.reshape(n, c, out_h, out_w), dx


def slice_add_col2im(parts, k, stride, shape):
    """Sum window values back onto a zeroed ``(n, c, h, w)`` map.

    ``parts`` yields, for each window offset ``kk = di*k + dj`` in ascending
    order, the ``(n, c, out_h*out_w)`` values at that offset.  Each offset is
    one strided slice add, so every pixel sums its addends in ascending
    ``kk``.
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


def slice_add_conv_dx(w, k, stride, padding, x_shape, dy):
    """The conv input gradient through :func:`slice_add_col2im`."""

    n, c, h, wid = x_shape
    dyl = dy.reshape(n, dy.shape[1], -1)
    dcols = np.matmul(w.reshape(w.shape[0], -1).T, dyl).reshape(n, c, k * k, -1)
    shape = (n, c, h + 2 * padding, wid + 2 * padding)
    padded = slice_add_col2im(dcols.transpose(2, 0, 1, 3), k, stride, shape)
    return padded[:, :, padding : padding + h, padding : padding + wid]


def slice_add_maxpool_dx(x, k, stride, dy):
    """The maxpool input gradient through :func:`slice_add_col2im`: each
    window's ``dy`` at its ``argmax``, zero at its other offsets."""

    n, c, h, wid = x.shape
    out_h = (h - k) // stride + 1
    out_w = (wid - k) // stride + 1
    i, j = gather_indices(k, stride, out_h, out_w)
    amax = x[:, :, i, j].argmax(axis=2)
    dyl = dy.reshape(n, c, -1)
    parts = (np.where(amax == kk, dyl, 0.0) for kk in range(k * k))
    return slice_add_col2im(parts, k, stride, x.shape)


def with_zeros(rng, a):
    """``a`` with about a tenth of its entries set to -0.0 and a tenth to +0.0."""

    u = rng.random(a.shape)
    a[u < 0.1] = -0.0
    a[(u >= 0.1) & (u < 0.2)] = 0.0
    return a


def assert_same_bytes(got, expected):
    for g, e in zip(got, expected, strict=True):
        assert g.shape == e.shape
        assert g.tobytes() == e.tobytes()


class TestKernelsAgainstAddAt:
    """The conv and maxpool kernels against ``np.add.at`` over 4-d indices."""

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_is_bitwise_equal(self, channels, padding, stride):
        rng = np.random.default_rng(100 * channels + 10 * padding + stride)
        for _ in range(5):
            k = int(rng.integers(1, 4))
            h, wid = (int(v) for v in rng.integers(k, 10, size=2))
            out_c = int(rng.integers(1, 5))
            x = with_zeros(rng, rng.normal(size=(int(rng.integers(1, 4)), channels, h, wid)))
            w = rng.normal(size=(out_c, channels, k, k))
            b = rng.normal(size=out_c)
            layer = LayerSpec(kind="conv", width=out_c, base_width=out_c, kernel=k,
                              stride=stride, padding=padding)
            y, cache = _conv_forward(x, w, b, layer)
            dy = with_zeros(rng, rng.normal(size=y.shape))
            expected = add_at_conv(x, w, b, k, stride, padding, dy)
            dw, db = np.empty(w.shape), np.empty(b.shape)
            dx = _conv_backward(dy, w, layer, cache, dw, db)
            assert_same_bytes((y, dx, dw, db), expected)

    @pytest.mark.parametrize("side, k", [(7, 2), (8, 2), (7, 3), (9, 3), (5, 1)])
    def test_non_overlapping_pool_is_bitwise_equal(self, side, k):
        rng = np.random.default_rng(side * k)
        z = rng.normal(size=(3, 2, side, side))
        x = with_zeros(rng, z * (z > 0))  # relu outputs: ties of -0.0 and +0.0
        layer = LayerSpec(kind="maxpool", kernel=k, stride=k)
        y, cache = _maxpool_forward(x, layer)
        dy = with_zeros(rng, rng.normal(size=y.shape))
        dx = _maxpool_backward(dy, layer, cache)
        assert_same_bytes((y, dx), add_at_maxpool(x, k, k, dy))
        covered = side // k * k
        border = np.concatenate([dx[:, :, covered:, :].ravel(), dx[:, :, :, covered:].ravel()])
        assert border.tobytes() == np.zeros(border.size).tobytes()

    @pytest.mark.parametrize("k, stride", [(3, 1), (2, 1), (3, 2)])
    def test_overlapping_pool_differs_at_most_in_rounding(self, k, stride):
        # a pixel can take the gradient of several windows; the slice adds sum
        # them in another order than np.add.at, so only the forward is bitwise
        rng = np.random.default_rng(10 * k + stride)
        x = with_zeros(rng, rng.normal(size=(3, 2, 8, 9)))
        layer = LayerSpec(kind="maxpool", kernel=k, stride=stride)
        y, cache = _maxpool_forward(x, layer)
        dy = rng.normal(size=y.shape)
        expected_y, expected_dx = add_at_maxpool(x, k, stride, dy)
        assert_same_bytes((y,), (expected_y,))
        # each order errs by at most (k*k - 1) * eps * (sum of the k*k addends)
        bound = 2 * k**4 * np.finfo(np.float64).eps * np.abs(dy).max()
        np.testing.assert_allclose(_maxpool_backward(dy, layer, cache), expected_dx,
                                   rtol=0, atol=bound)


    @pytest.mark.parametrize("k, stride", [(2, 2), (3, 3), (2, 1), (3, 2)])
    def test_a_nan_in_a_window_reaches_the_output(self, k, stride):
        # argmax takes the first NaN of a window as its maximum
        rng = np.random.default_rng(20 * k + stride)
        x = with_zeros(rng, rng.normal(size=(2, 3, 7, 8)))
        x[rng.random(x.shape) < 0.08] = np.nan
        layer = LayerSpec(kind="maxpool", kernel=k, stride=stride)
        y, cache = _maxpool_forward(x, layer)
        expected_y, expected_dx = add_at_maxpool(x, k, stride, np.ones(y.shape))
        assert_same_bytes((y,), (expected_y,))
        nan_windows = brute_force_maxpool(np.where(np.isnan(x), np.inf, -np.inf), k, stride)
        assert 0 < np.isnan(y).sum() < y.size
        np.testing.assert_array_equal(np.isnan(y), nan_windows == np.inf)
        dx = _maxpool_backward(np.ones(y.shape), layer, cache)
        np.testing.assert_array_equal(dx, expected_dx)


def with_nans(rng, a, share=0.05):
    a[rng.random(a.shape) < share] = np.nan
    return a


class TestBackwardAgainstSliceAdds:
    """Both col2im backwards against one strided slice add per window offset,
    byte for byte: every pixel sums its addends onto +0.0 in ascending offset."""

    @pytest.mark.parametrize("shape", [(3, 2, 8, 9), (2, 3, 7, 10)])
    @pytest.mark.parametrize("k, stride", [(3, 1), (2, 1), (3, 2), (2, 3), (2, 2), (3, 3)])
    def test_pool_is_bitwise_equal(self, shape, k, stride):
        rng = np.random.default_rng(100 * k + 10 * stride + shape[-1])
        z = rng.normal(size=shape)
        x = with_nans(rng, with_zeros(rng, z * (z > 0)))
        layer = LayerSpec(kind="maxpool", kernel=k, stride=stride)
        y, cache = _maxpool_forward(x, layer)
        dy = with_nans(rng, with_zeros(rng, rng.normal(size=y.shape)))
        dx = _maxpool_backward(dy, layer, cache)
        assert_same_bytes((dx,), (slice_add_maxpool_dx(x, k, stride, dy),))

    # the wide map has rows of 300 pixels: a narrow position type would wrap
    @pytest.mark.parametrize("shape", [(3, 2, 9, 8), (2, 2, 4, 300)])
    @pytest.mark.parametrize("k, stride, padding", [(3, 2, 1), (3, 1, 1), (2, 3, 0), (1, 2, 2)])
    def test_conv_is_bitwise_equal(self, shape, k, stride, padding):
        rng = np.random.default_rng(100 * k + 10 * stride + padding + shape[-1])
        x = with_nans(rng, with_zeros(rng, rng.normal(size=shape)))
        w = with_zeros(rng, rng.normal(size=(4, shape[1], k, k)))
        layer = LayerSpec(kind="conv", width=4, base_width=4, kernel=k, stride=stride,
                          padding=padding)
        y, cache = _conv_forward(x, w, rng.normal(size=4), layer)
        dy = with_nans(rng, with_zeros(rng, rng.normal(size=y.shape)))
        dx = _conv_backward(dy, w, layer, cache, np.empty(w.shape), np.empty(4))
        assert_same_bytes((dx,), (slice_add_conv_dx(w, k, stride, padding, shape, dy),))

    @pytest.mark.parametrize("k, stride", [(2, 1), (17, 2)])
    def test_pool_positions_do_not_wrap_on_wide_maps(self, k, stride):
        # rows of 300 pixels, and with k = 17 winning offsets up to 288,
        # which need two bytes: a narrow position type would wrap
        rng = np.random.default_rng(k)
        x = rng.normal(size=(2, 2, 20, 300))
        layer = LayerSpec(kind="maxpool", kernel=k, stride=stride)
        y, cache = _maxpool_forward(x, layer)
        dy = rng.normal(size=y.shape)
        assert_same_bytes((y, _maxpool_backward(dy, layer, cache)),
                          (brute_force_maxpool(x, k, stride),
                           slice_add_maxpool_dx(x, k, stride, dy)))


class TestForwardAgainstBruteForce:
    def test_conv_layer_matches_nested_loops(self):
        rng = np.random.default_rng(42)
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            x = rng.normal(size=(2, 3, 6, 6))
            w = rng.normal(size=(4, 3, 3, 3))
            b = rng.normal(size=4)
            expected = brute_force_conv(x, w, b, stride, padding).reshape(2, -1)
            n_flat = expected.shape[1]
            # conv -> flatten -> identity dense exposes the raw conv output
            spec = ModelSpec(
                input_shape=(3, 6, 6),
                layers=(
                    LayerSpec(kind="conv", width=4, base_width=4, kernel=3, stride=stride,
                              padding=padding),
                    LayerSpec(kind="flatten"),
                    LayerSpec(kind="dense", width=n_flat, base_width=n_flat),
                ),
                class_count=n_flat,
            )
            params = init_params(spec, 0)
            params.tensors["layer0.weight"][...] = w
            params.tensors["layer0.bias"][...] = b
            params.tensors["layer2.weight"][...] = np.eye(n_flat)
            params.tensors["layer2.bias"][...] = 0.0
            got = model_forward(spec, params, x)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_maxpool_matches_nested_loops(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2, 6, 6))
        for k, stride in [(2, 2), (3, 1), (2, 1)]:
            oh = (6 - k) // stride + 1
            n_flat = 2 * oh * oh
            spec = ModelSpec(
                input_shape=(2, 6, 6),
                layers=(
                    LayerSpec(kind="maxpool", kernel=k, stride=stride),
                    LayerSpec(kind="flatten"),
                    LayerSpec(kind="dense", width=n_flat, base_width=n_flat),
                ),
                class_count=n_flat,
            )
            params = init_params(spec, 0)
            params.tensors["layer2.weight"][...] = np.eye(n_flat)
            params.tensors["layer2.bias"][...] = 0.0
            got = model_forward(spec, params, x)
            expected = brute_force_maxpool(x, k, stride).reshape(3, -1)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_dense_is_affine(self):
        spec = mlp_spec((4,), (), 3)  # single dense layer
        params = init_params(spec, 1)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        fx = model_forward(spec, params, x)
        fy = model_forward(spec, params, y)
        fxy = model_forward(spec, params, 0.3 * x + 0.7 * y)
        bias = params.tensors["layer0.bias"]
        np.testing.assert_allclose(fxy, 0.3 * (fx - bias) + 0.7 * (fy - bias) + bias, rtol=1e-10)

    def test_rows_are_independent(self):
        spec = cnn_spec((1, 8, 8), (3,), 4, dense_width=6)
        params = init_params(spec, 3)
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(5, 1, 8, 8))
        whole = model_forward(spec, params, batch)
        for i in range(5):
            row = model_forward(spec, params, batch[i : i + 1])
            np.testing.assert_allclose(whole[i : i + 1], row, rtol=1e-12, atol=1e-14)


class TestBackwardAgainstFiniteDifferences:
    def test_mlp_cross_entropy_gradients(self):
        rng = np.random.default_rng(42)
        spec = mlp_spec((5,), (4, 3), 3)
        params = init_params(spec, 10)
        jitter_biases(params, rng)
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)

        def loss_of(p):
            return cross_entropy(model_forward(spec, p, x), y)[0]

        logits = model_forward(spec, params, x)
        _, logit_grad = cross_entropy(logits, y)
        grads = model_backward(spec, params, x, logit_grad)
        fd = fd_param_grads(spec, params, loss_of)
        for name in fd:
            np.testing.assert_allclose(grads.tensors[name], fd[name], rtol=1e-4, atol=1e-7,
                                       err_msg=name)

    def test_cnn_cross_entropy_gradients(self):
        rng = np.random.default_rng(11)
        spec = cnn_spec((2, 6, 6), (3,), 3, kernel=3, pool=2, dense_width=5)
        params = init_params(spec, 12)
        jitter_biases(params, rng)
        x = rng.normal(size=(3, 2, 6, 6))
        y = rng.integers(0, 3, size=3)

        def loss_of(p):
            return cross_entropy(model_forward(spec, p, x), y)[0]

        logits = model_forward(spec, params, x)
        _, logit_grad = cross_entropy(logits, y)
        grads = model_backward(spec, params, x, logit_grad)
        fd = fd_param_grads(spec, params, loss_of)
        for name in fd:
            np.testing.assert_allclose(grads.tensors[name], fd[name], rtol=1e-4, atol=1e-7,
                                       err_msg=name)

    @pytest.mark.parametrize(
        "second",
        [
            LayerSpec(kind="conv", width=3, base_width=3, kernel=3, stride=2, padding=1),
            LayerSpec(kind="maxpool", kernel=3, stride=1),
            LayerSpec(kind="maxpool", kernel=2, stride=1),
        ],
        ids=["conv-stride2-pad1", "maxpool-k3-s1", "maxpool-k2-s1"],
    )
    def test_gradients_through_strided_conv_and_overlapping_pools(self, second):
        # the first conv's gradients pass through the second layer's backward
        rng = np.random.default_rng(31)
        conv = LayerSpec(kind="conv", width=2, base_width=2, kernel=3)
        spec = ModelSpec(
            input_shape=(2, 7, 7),
            layers=(conv, LayerSpec(kind="relu"), second, LayerSpec(kind="flatten"),
                    LayerSpec(kind="dense", width=3, base_width=3)),
            class_count=3,
        )
        params = init_params(spec, 32)
        jitter_biases(params, rng)
        x = rng.normal(size=(3, 2, 7, 7))
        y = rng.integers(0, 3, size=3)

        def loss_of(p):
            return cross_entropy(model_forward(spec, p, x), y)[0]

        _, logit_grad = cross_entropy(model_forward(spec, params, x), y)
        grads = model_backward(spec, params, x, logit_grad)
        fd = fd_param_grads(spec, params, loss_of)
        for name in fd:
            np.testing.assert_allclose(grads.tensors[name], fd[name], rtol=1e-4, atol=1e-7,
                                       err_msg=name)

    def test_mlp_distillation_gradients(self):
        rng = np.random.default_rng(21)
        spec = mlp_spec((4,), (6,), 3)
        params = init_params(spec, 22)
        jitter_biases(params, rng)
        x = rng.normal(size=(3, 4))
        target = softmax_with_temperature(rng.normal(size=(3, 3)), 5.0)
        temp = 5.0

        def loss_of(p):
            return kl_divergence(target, model_forward(spec, p, x), temp)[0]

        logits = model_forward(spec, params, x)
        _, logit_grad = kl_divergence(target, logits, temp)
        grads = model_backward(spec, params, x, logit_grad)
        fd = fd_param_grads(spec, params, loss_of)
        for name in fd:
            np.testing.assert_allclose(grads.tensors[name], fd[name], rtol=1e-4, atol=1e-7,
                                       err_msg=name)

    def test_maxpool_routes_gradient_to_argmax(self):
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 1, 2] = 5.0  # unique maximum of the upper-left window's pool region
        spec = ModelSpec(
            input_shape=(1, 4, 4),
            layers=(
                LayerSpec(kind="maxpool", kernel=4, stride=4),
                LayerSpec(kind="flatten"),
                LayerSpec(kind="dense", width=1, base_width=1),
            ),
            class_count=1,
        )
        params = init_params(spec, 0)
        params.tensors["layer2.weight"][...] = 1.0
        logits = model_forward(spec, params, x)
        np.testing.assert_allclose(logits, [[5.0 + params.tensors["layer2.bias"][0]]])
        # inspect dx by differentiating through a probe: finite differences
        h = 1e-6
        base = model_forward(spec, params, x)[0, 0]
        bumped = x.copy()
        bumped[0, 0, 1, 2] += h
        up = model_forward(spec, params, bumped)[0, 0]
        np.testing.assert_allclose((up - base) / h, 1.0, rtol=1e-6)
        bumped = x.copy()
        bumped[0, 0, 0, 0] += h  # not the max; should not affect output
        np.testing.assert_allclose(model_forward(spec, params, bumped)[0, 0], base)

    def test_first_layer_computes_no_input_gradient(self, monkeypatch):
        calls = []

        def counted(values, index, shape, real=fedsim.nn._col2im):
            calls.append(shape)
            return real(values, index, shape)

        monkeypatch.setattr("fedsim.nn._col2im", counted)
        spec = cnn_spec((1, 8, 8), (2, 3), 3, dense_width=4)
        params = init_params(spec, 0)
        x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
        model_backward(spec, params, x, np.ones((2, 3)))
        # two pool backwards and the second conv's; the first conv, whose
        # input is the 1-channel image, stops at its parameter gradients
        assert [shape[1] for shape in calls] == [3, 2, 2]


class TestSgdStep:
    def test_exact_update_in_place(self):
        rng = np.random.default_rng(5)
        flat = rng.normal(size=30)
        grad = rng.normal(size=30)
        expected = flat - 0.1 * grad
        views = flat[10:20].reshape(2, 5)
        sgd_step(flat, grad, 0.1)
        assert flat.tobytes() == expected.tobytes()
        # a view of the vector, as ModelParams hold in training, sees the step
        assert views.tobytes() == expected[10:20].tobytes()

    def test_rejects_mismatched_gradients(self):
        flat = np.zeros(5)
        with pytest.raises(DimensionError):
            sgd_step(flat, np.zeros(4), 0.1)
        with pytest.raises(DimensionError):
            sgd_step(flat, np.zeros((5, 1)), 0.1)
        assert flat.tobytes() == np.zeros(5).tobytes()

    def test_zero_learning_rate_is_identity(self):
        spec = mlp_spec((4,), (3,), 2)
        flat = init_params(spec, seed=3).flat
        before = flat.copy()
        sgd_step(flat, np.ones_like(flat), 0.0)
        assert flat.tobytes() == before.tobytes()


class TestFlatLayout:
    def test_views_cover_the_vector_in_parameter_order(self):
        spec = cnn_spec((2, 6, 6), (3, 4), 3, dense_width=5)
        params = init_params(spec, 1)
        layout = spec.layout
        assert params.layout is layout
        assert params.flat.shape == (layout.size,) == (sum(t.size for t in params.tensors.values()),)
        assert list(params.tensors) == list(layout.spans)
        for name, tensor in params.tensors.items():
            start, stop, shape = layout.spans[name]
            assert tensor.shape == shape
            assert tensor.tobytes() == params.flat[start:stop].tobytes()
            assert np.shares_memory(tensor, params.flat[start:stop])
        assert [slot is not None for slot in layout.slots] == [
            layer.kind in ("dense", "conv") for layer in spec.layers
        ]
        assert layout.first == 0 and spec.layout is layout
        assert layout.input_shape == (2, 6, 6)

    def test_backward_writes_into_the_given_tensors(self):
        spec = mlp_spec((4,), (6, 5), 3)
        params = init_params(spec, 2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 4))
        logits, caches = fedsim.nn.forward_cached(spec, params, x)
        grad = np.full(spec.layout.size, np.nan)
        out = ModelParams(spec.layout, grad)
        logit_grad = rng.normal(size=logits.shape)
        before = logit_grad.copy()
        assert fedsim.nn.backward_from_cache(spec, params, caches, logit_grad, out) is None
        expected = model_backward(spec, params, x, logit_grad)
        for name, tensor in out.tensors.items():
            assert tensor.tobytes() == expected.tensors[name].tobytes()
        assert not np.isnan(grad).any()
        assert logit_grad.tobytes() == before.tobytes()


class TestShapeErrors:
    def test_wrong_batch_shape_is_reported(self):
        spec = mlp_spec((5,), (4,), 3)
        params = init_params(spec, 0)
        with pytest.raises(DimensionError, match="batch"):
            model_forward(spec, params, np.zeros((2, 6)))

    def test_wrong_param_shape_names_tensor(self):
        spec = mlp_spec((5,), (4,), 3)
        params = ModelParams.from_tensors({**init_params(spec, 0).tensors, "layer0.weight": np.zeros((4, 6))})
        with pytest.raises(DimensionError, match="layer0.weight"):
            model_forward(spec, params, np.zeros((2, 5)))

    def test_dense_on_image_input_names_layer(self):
        with pytest.raises(DimensionError, match="layer0"):
            ModelSpec(
                input_shape=(1, 4, 4),
                layers=(LayerSpec(kind="dense", width=2, base_width=2),),
                class_count=2,
            )
