"""Properties and finite-difference oracles for the loss functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.errors import DimensionError
from fedsim.losses import (
    cross_entropy,
    kl_divergence,
    kl_divergence_model_led,
    softmax_with_temperature,
)


def fd_logit_grad(loss_fn, logits, h=1e-6):
    """Central finite-difference gradient of ``loss_fn(logits)``."""

    grad = np.zeros_like(logits)
    for idx in np.ndindex(*logits.shape):
        plus = logits.copy()
        minus = logits.copy()
        plus[idx] += h
        minus[idx] -= h
        grad[idx] = (loss_fn(plus) - loss_fn(minus)) / (2 * h)
    return grad


def random_probs(rng, n, c):
    p = rng.uniform(0.05, 1.0, size=(n, c))
    return p / p.sum(axis=1, keepdims=True)


class TestSoftmax:
    @given(seed=st.integers(0, 10**6), temp=st.sampled_from([0.5, 1.0, 3.0, 5.0]))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_distributions(self, seed, temp):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(4, 6)) * 10
        p = softmax_with_temperature(logits, temp)
        assert np.all(p > 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_naive_exponential(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(size=(3, 5))
        naive = np.exp(logits / 2.0)
        naive /= naive.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(softmax_with_temperature(logits, 2.0), naive, rtol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 3))
        shifted = logits + rng.normal(size=(4, 1)) * 50
        np.testing.assert_allclose(
            softmax_with_temperature(logits, 1.0),
            softmax_with_temperature(shifted, 1.0),
            rtol=1e-10,
        )

    def test_extreme_logits_do_not_overflow(self):
        logits = np.array([[1e6, 0.0, -1e6], [-1e6, -1e6, -1e6]])
        p = softmax_with_temperature(logits, 1.0)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_high_temperature_flattens(self):
        logits = np.array([[4.0, 1.0, -2.0]])
        sharp = softmax_with_temperature(logits, 1.0)
        soft = softmax_with_temperature(logits, 10.0)
        assert soft.max() < sharp.max()
        np.testing.assert_allclose(
            softmax_with_temperature(logits, 1e9)[0], np.full(3, 1 / 3), atol=1e-6
        )

    def test_rejects_bad_temperature_and_shape(self):
        with pytest.raises(DimensionError):
            softmax_with_temperature(np.zeros(3), 1.0)


def two_pass_cross_entropy(logits, labels):
    """Cross entropy from a separate log-softmax and softmax, each computing
    its own max-subtracted exponentials."""

    n = logits.shape[0]
    scaled = logits - logits.max(axis=1, keepdims=True)
    logp = scaled - np.log(np.exp(scaled).sum(axis=1, keepdims=True))
    loss = -float(logp[np.arange(n), labels].mean())
    grad = softmax_with_temperature(logits, 1.0)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def fancy_index_cross_entropy(logits, labels):
    """Cross entropy that picks and corrects the label entries by fancy
    indexing and averages with ``np.mean``."""

    n = logits.shape[0]
    rows = np.arange(n)
    scaled = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(scaled)
    s = e.sum(axis=1, keepdims=True)
    loss = -float((scaled[rows, labels] - np.log(s[:, 0])).mean())
    grad = e / s
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


class TestCrossEntropy:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 30),
        c=st.integers(2, 9),
        kind=st.sampled_from(["one-row", "tied", "huge", "tiny"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_fancy_index_reference(self, seed, n, c, kind):
        rng = np.random.default_rng(seed)
        if kind == "one-row":
            n = 1
            logits = rng.normal(size=(n, c))
        elif kind == "tied":
            # few distinct values, signed zeros among them
            logits = rng.choice(np.array([-1.5, -0.0, 0.0, 2.0]), size=(n, c))
        elif kind == "huge":
            logits = rng.normal(size=(n, c)) * 10.0 ** rng.integers(100, 300, size=(n, 1))
        else:
            logits = rng.normal(size=(n, c)) * 1e-300
        labels = rng.integers(0, c, size=n)
        before = logits.copy()
        loss, grad = cross_entropy(logits, labels)
        expected_loss, expected_grad = fancy_index_cross_entropy(logits, labels)
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()
        assert not np.shares_memory(grad, logits)
        assert logits.tobytes() == before.tobytes()

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 40), c=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_two_pass_formula(self, seed, n, c):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, c))
        logits[rng.random(n) < 0.3] *= 1e3
        labels = rng.integers(0, c, size=n)
        loss, grad = cross_entropy(logits, labels)
        expected_loss, expected_grad = two_pass_cross_entropy(logits, labels)
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()

    def test_matches_naive_log_probability(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        p = softmax_with_temperature(logits, 1.0)
        expected = -np.mean(np.log(p[np.arange(6), labels]))
        loss, _ = cross_entropy(logits, labels)
        np.testing.assert_allclose(loss, expected, rtol=1e-12)

    def test_uniform_logits_give_log_c(self):
        loss, _ = cross_entropy(np.zeros((5, 7)), np.arange(5))
        np.testing.assert_allclose(loss, np.log(7), rtol=1e-12)

    def test_confident_correct_prediction_is_near_zero(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss, _ = cross_entropy(logits, np.array([1, 2]))
        assert loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        _, grad = cross_entropy(logits, labels)
        fd = fd_logit_grad(lambda z: cross_entropy(z, labels)[0], logits)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_rejects_labels_of_the_wrong_shape(self):
        with pytest.raises(DimensionError):
            cross_entropy(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(DimensionError):
            cross_entropy(np.zeros((2, 3)), np.array([[0], [1]]))


class TestKLDivergence:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_zero_at_match(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(3, 4)) * 2
        target = random_probs(rng, 3, 4)
        loss, _ = kl_divergence(target, logits, 2.0)
        assert loss >= -1e-12
        matched = softmax_with_temperature(logits, 2.0)
        zero_loss, zero_grad = kl_divergence(matched, logits, 2.0)
        np.testing.assert_allclose(zero_loss, 0.0, atol=1e-10)
        np.testing.assert_allclose(zero_grad, 0.0, atol=1e-12)

    def test_sums_over_samples(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(4, 3))
        target = random_probs(rng, 4, 3)
        whole, _ = kl_divergence(target, logits, 3.0)
        parts = sum(
            kl_divergence(target[i : i + 1], logits[i : i + 1], 3.0)[0] for i in range(4)
        )
        np.testing.assert_allclose(whole, parts, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(3, 4))
        target = random_probs(rng, 3, 4)
        for temp in (1.0, 5.0):
            _, grad = kl_divergence(target, logits, temp)
            fd = fd_logit_grad(lambda z: kl_divergence(target, z, temp)[0], logits)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)

    def test_gradient_closed_form_for_normalised_target(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(5, 6))
        target = random_probs(rng, 5, 6)
        _, grad = kl_divergence(target, logits, 4.0)
        q = softmax_with_temperature(logits, 4.0)
        np.testing.assert_allclose(grad, (q - target) / 4.0, rtol=1e-12)

    def test_model_led_direction_gradient(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(3, 4))
        target = random_probs(rng, 3, 4)
        for temp in (1.0, 5.0):
            loss, grad = kl_divergence_model_led(target, logits, temp)
            assert loss >= -1e-12
            fd = fd_logit_grad(lambda z: kl_divergence_model_led(target, z, temp)[0], logits)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)

    def test_model_led_zero_at_match(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(2, 5))
        matched = softmax_with_temperature(logits, 5.0)
        loss, grad = kl_divergence_model_led(matched, logits, 5.0)
        np.testing.assert_allclose(loss, 0.0, atol=1e-10)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_directions_disagree_in_general(self):
        rng = np.random.default_rng(19)
        logits = rng.normal(size=(3, 4)) * 3
        target = random_probs(rng, 3, 4)
        a, _ = kl_divergence(target, logits, 1.0)
        b, _ = kl_divergence_model_led(target, logits, 1.0)
        assert abs(a - b) > 1e-6

    def test_degenerate_target_rows_stay_finite(self):
        target = np.array([[1.0, 0.0, 0.0]])
        logits = np.array([[-100.0, 100.0, 0.0]])
        loss, grad = kl_divergence(target, logits, 1.0)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))
        loss2, grad2 = kl_divergence_model_led(target, logits, 1.0)
        assert np.isfinite(loss2)
        assert np.all(np.isfinite(grad2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            kl_divergence(np.full((2, 3), 1 / 3), np.zeros((2, 4)), 1.0)
