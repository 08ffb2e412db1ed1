"""Federated round loop: local SGD, both aggregation styles, mutual learning.

Aggregation kernels are checked against per-coordinate counting oracles; the
mutual-learning step is checked against a straight-line reimplementation of
the snapshot/consensus/step recipe; permutation invariances are asserted
bitwise.
"""

import contextlib
import math
import mmap
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import fedsim.config
import fedsim.engine
import fedsim.procs
from fedsim.clustering import ClientProfile
from fedsim.config import STAGE1_WEIGHTINGS
from fedsim.data import make_blobs
from fedsim.engine import (
    ClusterState,
    FedConfig,
    RoundMetrics,
    evaluate,
    heterofl_aggregate,
    local_update,
    prepare_run,
    run_experiment,
    run_round,
    split_batches,
    stage1_aggregate,
    stage2_dml,
    stream_seed,
)
from fedsim.errors import ConfigError, DimensionError, EngineError
from fedsim.losses import cross_entropy, kl_divergence, softmax_with_temperature
from fedsim.models import (
    ModelParams,
    build_pruned_spec,
    cnn_spec,
    extract_overlap,
    init_params,
    mlp_spec,
    overlap_map,
    validate_params,
)
from fedsim.nn import forward_cached, model_backward, model_forward, sgd_step
from test_nn import slice_add_conv_dx


def small_spec(rate=1.0, input_dim=6, hidden=(8,), classes=3):
    return build_pruned_spec(mlp_spec((input_dim,), hidden, classes), rate)


def random_params(spec, seed):
    return init_params(spec, seed)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    return set(a.tensors) == set(b.tensors) and all(
        np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors
    )


def assert_params_close(a: ModelParams, b: ModelParams, atol=0.0, rtol=0.0):
    assert set(a.tensors) == set(b.tensors)
    for k in a.tensors:
        np.testing.assert_allclose(a.tensors[k], b.tensors[k], atol=atol, rtol=rtol, err_msg=k)


class TestStage1Aggregate:
    def test_uniform_matches_plain_mean(self):
        spec = small_spec()
        members = [random_params(spec, s) for s in range(5)]
        merged = stage1_aggregate(members)
        for name in merged.tensors:
            oracle = np.mean([p.tensors[name] for p in members], axis=0)
            np.testing.assert_allclose(merged.tensors[name], oracle, atol=1e-12)

    def test_permutation_is_bit_identical(self):
        spec = small_spec()
        members = [random_params(spec, s) for s in range(7)]
        forward = stage1_aggregate(members)
        backward = stage1_aggregate(members[::-1])
        rotated = stage1_aggregate(members[3:] + members[:3])
        assert params_equal(forward, backward)
        assert params_equal(forward, rotated)

    def test_data_size_weighting_matches_oracle(self):
        spec = small_spec()
        members = [random_params(spec, s) for s in range(4)]
        sizes = [10, 40, 25, 25]
        merged = stage1_aggregate(members, data_sizes=sizes, weighting="data_size")
        total = sum(sizes)
        for name in merged.tensors:
            oracle = sum(s / total * p.tensors[name] for s, p in zip(sizes, members))
            np.testing.assert_allclose(merged.tensors[name], oracle, atol=1e-12)

    def test_weighted_permutation_is_bit_identical(self):
        spec = small_spec()
        members = [random_params(spec, s) for s in range(5)]
        sizes = [3, 14, 15, 9, 26]
        a = stage1_aggregate(members, data_sizes=sizes, weighting="data_size")
        order = [4, 2, 0, 3, 1]
        b = stage1_aggregate(
            [members[i] for i in order], data_sizes=[sizes[i] for i in order], weighting="data_size"
        )
        assert params_equal(a, b)

    def test_single_member_is_identity(self):
        spec = small_spec()
        only = random_params(spec, 9)
        assert params_equal(stage1_aggregate([only]), only)

    def test_rejects_bad_input(self):
        spec = small_spec()
        p = random_params(spec, 0)
        with pytest.raises(EngineError):
            stage1_aggregate([])
        with pytest.raises(DimensionError):
            stage1_aggregate([p, random_params(small_spec(rate=0.5), 1)])
        with pytest.raises(EngineError):
            stage1_aggregate([p, p], weighting="data_size")
        with pytest.raises(EngineError):
            stage1_aggregate([p, p], data_sizes=[0, 5], weighting="data_size")


def heterofl_oracle(global_params, contributions):
    """Per-coordinate sums and counts, written as the obvious double loop."""

    out = {}
    for name, base in global_params.tensors.items():
        total = np.zeros_like(base)
        count = np.zeros(base.shape)
        for params in contributions:
            sl = tuple(slice(0, n) for n in params.tensors[name].shape)
            total[sl] += params.tensors[name]
            count[sl] += 1
        out[name] = np.where(count > 0, total / np.maximum(count, 1), base)
    return out


class TestHeteroflAggregate:
    def build(self, rates, seed0=100):
        base = mlp_spec((6,), (10, 8), 4)
        global_params = init_params(base, 99)
        contributions = []
        for i, rate in enumerate(rates):
            spec = build_pruned_spec(base, rate)
            contributions.append(init_params(spec, seed0 + i))
        return base, global_params, contributions

    def test_matches_counting_oracle(self):
        _, global_params, contributions = self.build([1.0, 0.6, 0.6, 0.3])
        merged = heterofl_aggregate(global_params, contributions)
        oracle = heterofl_oracle(global_params, contributions)
        for name in merged.tensors:
            np.testing.assert_allclose(merged.tensors[name], oracle[name], atol=1e-12)

    def test_uncovered_coordinates_keep_previous_value(self):
        base = mlp_spec((4,), (10,), 3)
        global_params = init_params(base, 7)
        spec = build_pruned_spec(base, 0.3)  # hidden width 3 of 10
        merged = heterofl_aggregate(global_params, [init_params(spec, 8)])
        w = merged.tensors["layer0.weight"]
        np.testing.assert_array_equal(w[3:], global_params.tensors["layer0.weight"][3:])
        assert not np.array_equal(w[:3], global_params.tensors["layer0.weight"][:3])

    def test_reduces_exactly_to_stage1_uniform_without_pruning(self):
        _, global_params, contributions = self.build([1.0, 1.0, 1.0])
        merged = heterofl_aggregate(global_params, contributions)
        plain = stage1_aggregate(contributions)
        assert params_equal(merged, plain)

    def test_permutation_is_bit_identical(self):
        _, global_params, contributions = self.build([1.0, 0.6, 0.3, 0.3, 0.6])
        a = heterofl_aggregate(global_params, contributions)
        b = heterofl_aggregate(global_params, contributions[::-1])
        assert params_equal(a, b)

    def test_rejects_empty(self):
        _, global_params, _ = self.build([1.0])
        with pytest.raises(EngineError):
            heterofl_aggregate(global_params, [])

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({}, "missing the tensor"),
            ({"layer0.weight": np.zeros((11, 6))}, "does not fit"),
            ({"layer0.weight": np.zeros((10,))}, "does not fit"),
        ],
        ids=["missing", "axis-too-long", "axis-count"],
    )
    def test_rejects_a_block_that_is_not_a_prefix(self, bad, message):
        _, global_params, contributions = self.build([1.0, 0.6])
        tensors = dict(contributions[1].tensors)
        del tensors["layer0.weight"]
        contributions[1] = ModelParams.from_tensors({**tensors, **bad})
        with pytest.raises(DimensionError, match=rf"layer0\.weight: .*{message}"):
            heterofl_aggregate(global_params, contributions)


def heterofl_canvas(global_params, contributions):
    """The merge as a mean over every client: each block is padded to the
    global shape with NaN, the stack is sorted per coordinate (NaN last) and
    summed with NaN read as +0.0.  NumPy sums a lone column pairwise, so a
    one-element tensor is summed as a column of a two-column stack, one
    operand after another like every other coordinate."""

    out = {}
    for name, base in global_params.tensors.items():
        padded = []
        for params in contributions:
            block = params.tensors[name]
            canvas = np.full(base.shape, np.nan)
            canvas[tuple(slice(0, n) for n in block.shape)] = block
            padded.append(canvas)
        stack = np.sort(np.stack(padded), axis=0).reshape(len(padded), -1)
        if stack.shape[1] == 1:
            stack = np.repeat(stack, 2, axis=1)
        count = np.sum(~np.isnan(stack), axis=0)[: base.size].reshape(base.shape)
        total = np.nansum(stack, axis=0)[: base.size].reshape(base.shape)
        out[name] = np.where(count > 0, total / np.maximum(count, 1), base)
    return ModelParams.from_tensors(out)


def assert_same_bytes(a: ModelParams, b: ModelParams):
    """Bitwise equality, which unlike ``array_equal`` tells -0.0 from +0.0."""

    assert set(a.tensors) == set(b.tensors)
    for name in a.tensors:
        assert a.tensors[name].shape == b.tensors[name].shape, name
        assert a.tensors[name].tobytes() == b.tensors[name].tobytes(), name


def spread_params(spec, seed, top=6):
    """Parameters scaled by powers of ten from 1e-6 to ``10**top`` (twelve
    decades by default), so summation order shows in the low bits.

    Training starts from ``top=0``: six decades still show the order, and the
    first batch losses stay near a uniform guess's, far below the divergence
    ceiling of :func:`local_update`, which larger weights pass at once.
    """

    rng = np.random.default_rng(seed)
    return ModelParams.from_tensors(
        {k: v * 10.0 ** rng.integers(-6, top + 1, size=v.shape) for k, v in init_params(spec, seed).tensors.items()}
    )


def random_contributions(base, rng, count):
    rates = rng.choice([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.3, 0.2], size=count)
    out = []
    for rate in rates:
        spec = build_pruned_spec(base, float(rate))
        out.append(spread_params(spec, int(rng.integers(2**31))))
    return out


def hand_built(extent_maps, seed):
    """Contributions with arbitrary (not necessarily nested) prefix extents."""

    rng = np.random.default_rng(seed)
    return [
        ModelParams.from_tensors({name: rng.normal(size=ext) for name, ext in extents.items()})
        for extents in extent_maps
    ]


def with_signed_zeros(params, rng):
    """``params`` with about a fifth of its entries set to -0.0 or +0.0."""

    hit = rng.random(params.flat.size) < 0.2
    params.flat[hit] = np.where(rng.random(hit.sum()) < 0.5, -0.0, 0.0)
    return params


@contextlib.contextmanager
def slab_budget(budget):
    """Size the reduction kernel's scratch buffer to ``budget`` float64s."""

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fedsim.engine, "_SLAB_ELEMENTS", budget)
        yield


# the reduction kernel's own scratch size, or 1-64 float64s, which split
# cells and rows into many slabs, down to single coordinates
slab_budgets = st.one_of(st.just(fedsim.engine._SLAB_ELEMENTS), st.integers(1, 64))


class TestCellMergeMatchesCanvas:
    @given(seed=st.integers(0, 10**6), budget=slab_budgets)
    @settings(max_examples=60, deadline=None)
    def test_random_mlp_specs(self, seed, budget):
        rng = np.random.default_rng(seed)
        hidden = tuple(int(h) for h in rng.integers(1, 10, size=rng.integers(1, 3)))
        base = mlp_spec((int(rng.integers(1, 6)),), hidden, int(rng.integers(2, 5)))
        global_params = spread_params(base, seed)
        contributions = [with_signed_zeros(p, rng) for p in random_contributions(base, rng, int(rng.integers(1, 20)))]
        with slab_budget(budget):
            merged = heterofl_aggregate(global_params, contributions)
        assert_same_bytes(merged, heterofl_canvas(global_params, contributions))

    @given(seed=st.integers(0, 10**6), budget=slab_budgets)
    @settings(max_examples=25, deadline=None)
    def test_random_cnn_specs(self, seed, budget):
        rng = np.random.default_rng(seed)
        channels = tuple(int(c) for c in rng.integers(1, 7, size=rng.integers(1, 3)))
        base = cnn_spec((int(rng.integers(1, 3)), 6, 6), channels, int(rng.integers(2, 4)),
                        dense_width=int(rng.integers(2, 9)))
        global_params = spread_params(base, seed)
        contributions = [with_signed_zeros(p, rng) for p in random_contributions(base, rng, int(rng.integers(1, 10)))]
        assert any(t.ndim == 4 for t in global_params.tensors.values())
        with slab_budget(budget):
            merged = heterofl_aggregate(global_params, contributions)
        assert_same_bytes(merged, heterofl_canvas(global_params, contributions))

    def test_extents_that_are_not_nested(self):
        shapes = {"w": (10, 10), "b": (10,)}
        global_params = ModelParams.from_tensors({k: np.random.default_rng(1).normal(size=v) for k, v in shapes.items()})
        extents = [
            {"w": (5, 10), "b": (5,)},
            {"w": (10, 5), "b": (10,)},
            {"w": (7, 3), "b": (7,)},
            {"w": (3, 7), "b": (3,)},
            {"w": (8, 8), "b": (8,)},
            {"w": (9, 9), "b": (9,)},
        ]
        contributions = hand_built(extents, seed=2)
        assert_same_bytes(
            heterofl_aggregate(global_params, contributions),
            heterofl_canvas(global_params, contributions),
        )

    def test_single_contributor(self):
        base = mlp_spec((5,), (9, 7), 3)
        global_params = spread_params(base, 3)
        spec = build_pruned_spec(base, 0.6)
        contributions = [spread_params(spec, 4)]
        merged = heterofl_aggregate(global_params, contributions)
        assert_same_bytes(merged, heterofl_canvas(global_params, contributions))

    def test_coordinates_nobody_covers(self):
        shapes = {"w": (6, 8), "b": (6,)}
        global_params = ModelParams.from_tensors({k: np.random.default_rng(5).normal(size=v) for k, v in shapes.items()})
        extents = [{"w": (4, 2), "b": (4,)}, {"w": (2, 5), "b": (2,)}, {"w": (0, 8), "b": (0,)}]
        contributions = hand_built(extents, seed=6)
        merged = heterofl_aggregate(global_params, contributions)
        assert_same_bytes(merged, heterofl_canvas(global_params, contributions))
        np.testing.assert_array_equal(merged.tensors["w"][4:], global_params.tensors["w"][4:])
        np.testing.assert_array_equal(merged.tensors["w"][2:, 2:], global_params.tensors["w"][2:, 2:])

    def test_lone_coordinate_sums_in_sorted_order(self):
        # Eight clients cover coordinate 3 of a 4-vector.  Summed one after
        # the other, -1e16, six 1s and 1e16 give 0, as every other coordinate
        # is summed; NumPy's pairwise sum of the column alone gives 4.
        values = [-1e16] + [1.0] * 6 + [1e16]
        assert np.sort(np.array(values)[:, None], axis=0).sum(axis=0)[0] == 4.0
        global_params = ModelParams.from_tensors({"b": np.zeros(4)})
        contributions = [ModelParams.from_tensors({"b": np.full(3, 7.0)})]
        contributions += [ModelParams.from_tensors({"b": np.full(4, v)}) for v in values]
        merged = heterofl_aggregate(global_params, contributions)
        assert_same_bytes(merged, heterofl_canvas(global_params, contributions))
        assert merged.tensors["b"][3] == 0.0

    def test_one_element_tensor_sums_as_stage1_does(self):
        # Nine full-width clients.  Summed one after the other, -1e16, seven
        # 1s and 1e16 give 0; NumPy's pairwise sum of the lone column gives 6.
        values = [-1e16] + [1.0] * 7 + [1e16]
        global_params = ModelParams.from_tensors({"w": np.zeros(2), "b": np.zeros(1)})
        contributions = [ModelParams.from_tensors({"w": np.full(2, v), "b": np.full(1, v)}) for v in values]
        merged = heterofl_aggregate(global_params, contributions)
        assert_same_bytes(merged, stage1_aggregate(contributions))
        assert_same_bytes(merged, heterofl_canvas(global_params, contributions))
        assert merged.tensors["b"][0] == 0.0 and merged.tensors["w"].tolist() == [0.0, 0.0]

    def test_negative_zeros(self):
        # NumPy starts a sum from +0.0, so a mean of -0.0s is +0.0, whether
        # or not every client covers the coordinate.
        global_params = ModelParams.from_tensors({"b": np.ones(4)})
        contributions = [ModelParams.from_tensors({"b": np.full(n, -0.0)}) for n in (2, 3, 4, 4)]
        merged = heterofl_aggregate(global_params, contributions)
        assert_same_bytes(merged, heterofl_canvas(global_params, contributions))
        assert not np.any(np.signbit(merged.tensors["b"]))

    def test_peak_memory_stays_below_a_full_size_stack(self):
        base = mlp_spec((64,), (256, 256), 10)
        global_params = init_params(base, 0)
        contributions = []
        for i in range(48):
            spec = build_pruned_spec(base, (1.0, 0.8, 0.6)[i % 3])
            contributions.append(init_params(spec, i))
        largest = max(t.nbytes for t in global_params.tensors.values())
        tracemalloc.start()
        try:
            heterofl_aggregate(global_params, contributions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * largest

    def test_peak_memory_stays_below_3_mb(self):
        # 48 clients of MLP 64-256-256-10 at rates 1.0, 0.8 and 0.6: the
        # 154x154 cell alone would stack to 9.1 MB
        base = mlp_spec((64,), (256, 256), 10)
        global_params = init_params(base, 0)
        contributions = []
        for i in range(48):
            spec = build_pruned_spec(base, (1.0, 0.8, 0.6)[i % 3])
            contributions.append(init_params(spec, i))
        tracemalloc.start()
        try:
            heterofl_aggregate(global_params, contributions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


class TestLocalUpdate:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.spec = small_spec()
        self.params = random_params(self.spec, 11)
        self.features = rng.normal(size=(10, 6))
        self.labels = rng.integers(0, 3, size=10)

    def test_zero_epochs_returns_start_unchanged(self):
        cfg = FedConfig(local_epochs=0)
        out, loss = local_update(self.spec, self.params, self.features, self.labels, cfg, seed=1)
        assert params_equal(out, self.params)
        assert np.isnan(loss)

    def test_zero_learning_rate_is_fixed_point(self):
        cfg = FedConfig(local_epochs=3, batch_size=4, learning_rate=0.0)
        out, loss = local_update(self.spec, self.params, self.features, self.labels, cfg, seed=1)
        assert params_equal(out, self.params)
        assert np.isfinite(loss)

    def test_matches_manual_sgd_with_partial_final_batch(self):
        # batch size 4 over 10 samples: batches of 4, 4 and 2 per epoch
        cfg = FedConfig(local_epochs=2, batch_size=4, learning_rate=0.05)
        seed = stream_seed(3, 1, 7, 0)
        out, loss = local_update(self.spec, self.params, self.features, self.labels, cfg, seed)

        rng = np.random.default_rng(stream_seed(3, 1, 7, 0))
        current = self.params
        losses = []
        for _ in range(2):
            order = rng.permutation(10)
            for start in range(0, 10, 4):
                take = order[start : start + 4]
                logits = model_forward(self.spec, current, self.features[take])
                val, lg = cross_entropy(logits, self.labels[take])
                grads = model_backward(self.spec, current, self.features[take], lg)
                current = ModelParams.from_tensors(
                    {k: current.tensors[k] - 0.05 * grads.tensors[k] for k in current.tensors}
                )
                losses.append(val)
        assert params_equal(out, current)
        assert loss == pytest.approx(np.mean(losses), abs=1e-15)

    def test_proximal_term_shifts_one_step_by_mu_times_gap(self):
        cfg = FedConfig(local_epochs=1, batch_size=16, learning_rate=0.1, fedprox_mu=0.7)
        ref = random_params(self.spec, 77)
        plain, _ = local_update(self.spec, self.params, self.features, self.labels, cfg, seed=2)
        prox, _ = local_update(
            self.spec, self.params, self.features, self.labels, cfg, seed=2, prox_reference=ref
        )
        for name in plain.tensors:
            expected = plain.tensors[name] - 0.1 * 0.7 * (
                self.params.tensors[name] - ref.tensors[name]
            )
            np.testing.assert_allclose(prox.tensors[name], expected, atol=1e-12)

    def test_proximal_reference_at_start_is_inactive_for_first_step(self):
        # one batch, reference == start: the proximal gradient is exactly zero
        cfg = FedConfig(local_epochs=1, batch_size=16, learning_rate=0.1, fedprox_mu=0.9)
        plain, _ = local_update(self.spec, self.params, self.features, self.labels, cfg, seed=4)
        prox, _ = local_update(
            self.spec,
            self.params,
            self.features,
            self.labels,
            cfg,
            seed=4,
            prox_reference=self.params,
        )
        assert params_equal(plain, prox)

    def test_input_params_not_mutated(self):
        cfg = FedConfig(local_epochs=1, batch_size=5, learning_rate=0.1)
        before = self.params.copy()
        local_update(self.spec, self.params, self.features, self.labels, cfg, seed=1)
        assert params_equal(self.params, before)

    def test_empty_client_rejected(self):
        cfg = FedConfig()
        with pytest.raises(EngineError):
            local_update(self.spec, self.params, self.features[:0], self.labels[:0], cfg, seed=1)

    def test_non_finite_start_raises(self):
        cfg = FedConfig(local_epochs=1, batch_size=5, learning_rate=0.1)
        broken = self.params.copy()
        broken.tensors["layer0.weight"][0, 0] = np.nan
        with pytest.raises(EngineError, match="local training diverged"):
            local_update(self.spec, broken, self.features, self.labels, cfg, seed=1)

    def test_overflowing_steps_raise(self):
        cfg = FedConfig(local_epochs=5, batch_size=5, learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(EngineError, match="diverged"):
            local_update(self.spec, self.params, self.features * 1e10, self.labels, cfg, seed=1)

    def test_divergence_stops_at_the_first_non_finite_batch(self, monkeypatch):
        losses, steps = [], []

        def counted_loss(logits, labels, real=cross_entropy):
            out = real(logits, labels)
            losses.append(out[0])
            return out

        def counted_step(flat, grad, lr, real=sgd_step):
            steps.append(lr)
            return real(flat, grad, lr)

        monkeypatch.setattr("fedsim.engine.cross_entropy", counted_loss)
        monkeypatch.setattr("fedsim.engine.sgd_step", counted_step)
        # 20 epochs of 2 batches; the first step at this rate overflows
        cfg = FedConfig(local_epochs=20, batch_size=5, learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(EngineError, match="local training diverged"):
            local_update(self.spec, self.params, self.features, self.labels, cfg, seed=1)
        assert not math.isfinite(losses[-1])
        assert all(math.isfinite(v) for v in losses[:-1])
        assert len(steps) == len(losses) - 1 < 40

    def test_parameters_are_validated_once_per_update(self, monkeypatch):
        calls = []

        def counted(spec, params, real=validate_params):
            calls.append(spec)
            real(spec, params)

        monkeypatch.setattr("fedsim.engine.validate_params", counted)
        cfg = FedConfig(local_epochs=3, batch_size=4, learning_rate=0.1)  # 9 steps
        local_update(self.spec, self.params, self.features, self.labels, cfg, seed=1)
        assert calls == [self.spec]

    def test_wrong_shaped_tensor_is_named(self):
        cfg = FedConfig(local_epochs=2, batch_size=4)
        bad = ModelParams.from_tensors({**self.params.tensors, "layer2.weight": np.zeros((3, 7))})
        with pytest.raises(DimensionError, match="layer2.weight"):
            local_update(self.spec, bad, self.features, self.labels, cfg, seed=1)

    def test_out_of_range_labels_are_rejected_before_any_forward(self, monkeypatch):
        forwards = []

        def counted(spec, params, batch, real=forward_cached):
            forwards.append(len(batch))
            return real(spec, params, batch)

        monkeypatch.setattr("fedsim.engine.forward_cached", counted)
        cfg = FedConfig(local_epochs=2, batch_size=4)
        for bad_label in (3, -1):  # the spec has 3 classes
            labels = self.labels.copy()
            labels[7] = bad_label
            with pytest.raises(DimensionError, match=r"\[0, 3\)"):
                local_update(self.spec, self.params, self.features, labels, cfg, seed=1)
        assert forwards == []


def naive_softmax(z, temperature):
    s = z / temperature
    s = s - s.max(axis=1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=1, keepdims=True)


def straight_line_dml(states, batches, temperature, lr, global_epochs):
    """The two-stage recipe written out plainly: snapshot, consensus, step."""

    params = [s.params for s in states]
    for _ in range(global_epochs):
        for batch in batches:
            snaps = [model_forward(s.spec, p, batch) for s, p in zip(states, params)]
            z_avg = sum(snaps) / len(snaps)
            target = naive_softmax(z_avg, temperature)
            new = []
            for r, s in enumerate(states):
                q = naive_softmax(snaps[r], temperature)
                logit_grad = (q - target) / temperature
                grads = model_backward(s.spec, params[r], batch, logit_grad)
                new.append(
                    ModelParams.from_tensors({k: params[r].tensors[k] - lr * g for k, g in grads.tensors.items()})
                )
            params = new
    return params


def make_states(rates, seed0=40, input_dim=6, classes=3):
    base = mlp_spec((input_dim,), (8,), classes)
    states = []
    for i, rate in enumerate(rates):
        spec = build_pruned_spec(base, rate)
        states.append(ClusterState(i, spec, init_params(spec, seed0 + i)))
    return states


def test_every_random_stream_has_its_own_id():
    ids = {k: v for k, v in vars(fedsim.config).items() if k.startswith("_STREAM_")}
    assert len(set(ids.values())) == len(ids)
    assert ids["_STREAM_DATASET"] == 6  # blob generation; moving it re-draws every blobs dataset


class TestStage2DML:
    def test_single_cluster_kl_only_is_exact_noop(self):
        states = make_states([1.0])
        before = states[0].params.copy()
        batches = split_batches(np.random.default_rng(1).normal(size=(12, 6)), 5)
        cfg = FedConfig(temperature=5.0, global_epochs=3)
        after, kl = stage2_dml(states, batches, cfg)
        assert kl == 0.0
        assert params_equal(after[0].params, before)

    def test_two_clusters_match_straight_line_reference(self):
        states = make_states([1.0, 0.5])
        batches = split_batches(np.random.default_rng(3).normal(size=(10, 6)), 4)
        cfg = FedConfig(temperature=4.0, learning_rate=0.07, global_epochs=2)
        reference = straight_line_dml(
            [ClusterState(s.cluster_id, s.spec, s.params.copy()) for s in states],
            batches,
            4.0,
            0.07,
            2,
        )
        after, kl = stage2_dml(states, batches, cfg)
        assert kl > 0.0
        for got, want in zip(after, reference):
            assert_params_close(got.params, want, atol=1e-10)

    def test_identical_clusters_stay_identical(self):
        base = small_spec()
        shared = init_params(base, 21)
        states = [
            ClusterState(0, base, shared.copy()),
            ClusterState(1, base, shared.copy()),
        ]
        batches = split_batches(np.random.default_rng(4).normal(size=(9, 6)), 3)
        after, _ = stage2_dml(states, batches, FedConfig())
        assert params_equal(after[0].params, after[1].params)

    def test_cluster_order_invariance_is_bitwise(self):
        def fresh():
            return make_states([1.0, 0.7, 0.4])

        batches = split_batches(np.random.default_rng(5).normal(size=(10, 6)), 5)
        cfg = FedConfig(temperature=3.0, learning_rate=0.05)
        plain, _ = stage2_dml(fresh(), batches, cfg)
        order = [2, 0, 1]
        shuffled_in = [fresh()[i] for i in order]
        shuffled, _ = stage2_dml(shuffled_in, batches, cfg)
        by_id = {s.cluster_id: s for s in shuffled}
        for s in plain:
            assert params_equal(s.params, by_id[s.cluster_id].params)

    def test_exclude_self_uses_peers_only(self):
        states = make_states([1.0, 0.5])
        batch = np.random.default_rng(8).normal(size=(7, 6))
        cfg = FedConfig(temperature=2.0, learning_rate=0.05, include_self_in_consensus=False)
        snaps = [model_forward(s.spec, s.params, batch) for s in states]
        reference = []
        for r, s in enumerate(states):
            target = naive_softmax(snaps[1 - r], 2.0)
            q = naive_softmax(snaps[r], 2.0)
            grads = model_backward(s.spec, s.params, batch, (q - target) / 2.0)
            reference.append(
                ModelParams.from_tensors({k: s.params.tensors[k] - 0.05 * g for k, g in grads.tensors.items()})
            )
        after, _ = stage2_dml(states, [batch], cfg)
        for got, want in zip(after, reference):
            assert_params_close(got.params, want, atol=1e-10)

    def test_exclude_self_alone_rejected(self):
        states = make_states([1.0])
        cfg = FedConfig(include_self_in_consensus=False)
        with pytest.raises(EngineError):
            stage2_dml(states, [np.zeros((2, 6))], cfg)

    def test_diverging_step_names_the_cluster(self):
        states = make_states([1.0, 0.5])
        batch = np.random.default_rng(0).normal(size=(5, 6)) * 1e10
        cfg = FedConfig(temperature=1.0, learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(EngineError, match=r"cluster \d: distillation diverged"):
            stage2_dml(states, [batch], cfg)

    def test_empty_states_rejected(self):
        with pytest.raises(EngineError):
            stage2_dml([], [np.zeros((2, 6))], FedConfig())

    def test_parameters_are_validated_once_per_cluster(self, monkeypatch):
        calls = []

        def counted(spec, params, real=validate_params):
            calls.append(spec)
            real(spec, params)

        monkeypatch.setattr("fedsim.engine.validate_params", counted)
        states = make_states([1.0, 0.5])
        batches = split_batches(np.random.default_rng(3).normal(size=(12, 6)), 5)
        stage2_dml(states, batches, FedConfig(global_epochs=2))  # 6 steps per cluster
        assert calls == [s.spec for s in states]

    def test_the_first_process_joins_every_kl_column_and_raises_the_first_failure_by_position(self):
        # one process of two owns cluster 0; ``theirs`` stands in for what
        # the other, owning cluster 1, hands over at the end of Stage 2
        class Side:
            owned = [0]

            def __init__(self, theirs, first=True):
                self.theirs, self.first, self.sent = theirs, first, []
                self.slots = type("Slots", (), {"logits": [np.zeros((2, 4, 3)) for _ in range(2)]})()

            def agree(self, ok):
                return ok

            def collect(self, value):
                self.sent.append(value)
                return [value, self.theirs] if self.first else None

        batches = split_batches(np.random.default_rng(6).normal(size=(8, 6)), 4)
        me = Side(([1], np.array([[0.25], [0.5]]), None))
        _, kl = stage2_dml(make_states([1.0, 0.5]), batches, FedConfig(), me)
        [(owned, mine, failure)] = me.sent
        assert (owned, failure) == ([0], None) and mine.shape == (2, 1)
        assert kl == (((mine[0, 0] + 0.25) + mine[1, 0]) + 0.5) / 4  # step by step, cluster by cluster

        # this process's forward fails at step 1, after the other's step 0 failed
        wide = [batches[0], np.zeros((4, 7))]
        me = Side(([1], np.zeros((2, 1)), ((0, 1, 1), EngineError("cluster 1: distillation diverged"))))
        with pytest.raises(EngineError, match="^cluster 1: distillation diverged$"):
            stage2_dml(make_states([1.0, 0.5]), wide, FedConfig(), me)
        assert me.sent[0][2][0] == (1, 0, 0)
        # a helper hands its failure over and returns, as the first process raises it
        me = Side(None, first=False)
        stage2_dml(make_states([1.0, 0.5]), wide, FedConfig(), me)
        assert type(me.sent[0][2][1]) is DimensionError

    def test_wrong_shaped_tensor_is_named(self):
        states = make_states([1.0, 0.5])
        states[1].params = ModelParams.from_tensors({**states[1].params.tensors, "layer0.bias": np.zeros(5)})
        with pytest.raises(DimensionError, match="layer0.bias"):
            stage2_dml(states, [np.zeros((2, 6))], FedConfig())


# ------------------------------------------------------------------
# The per-tensor training loops that local_update and stage2_dml ran before
# they trained one flat vector per model in place, kept as references: fresh
# gradient arrays for every tensor, a new ModelParams after every step.


def reference_backward(spec, params, caches, logit_grad):
    """Every parameter gradient as a fresh array, computed by the layer kernels'
    formulas before they wrote into ``out=`` views."""

    grad = np.asarray(logit_grad, dtype=np.float64)
    grads = {}
    first = min(i for i, layer in enumerate(spec.layers) if layer.kind in ("dense", "conv"))
    for idx in range(len(spec.layers) - 1, first - 1, -1):
        layer, cache = spec.layers[idx], caches[idx]
        if layer.kind == "dense":
            w = params.tensors[f"layer{idx}.weight"]
            grads[f"layer{idx}.weight"] = grad.T @ cache
            grads[f"layer{idx}.bias"] = grad.sum(axis=0)
            grad = grad @ w
        elif layer.kind == "conv":
            w = params.tensors[f"layer{idx}.weight"]
            cols, (n, c, h, wid) = cache
            k, s, p = layer.kernel, layer.stride, layer.padding
            dyl = grad.reshape(n, grad.shape[1], -1)
            dw = dyl[0] @ cols[0].T  # one product per sample, added in sample order
            for sample in range(1, n):
                dw = dw + dyl[sample] @ cols[sample].T
            grads[f"layer{idx}.weight"] = dw.reshape(w.shape)
            grads[f"layer{idx}.bias"] = dyl.sum(axis=(0, 2))
            grad = slice_add_conv_dx(w, k, s, p, (n, c, h, wid), grad)
        elif layer.kind == "relu":
            grad = grad * cache
        elif layer.kind == "maxpool":
            grad = fedsim.nn._maxpool_backward(grad, layer, cache)
        elif layer.kind == "flatten":
            grad = grad.reshape(cache)
    return grads


def stacked_sorted_mean(stack):
    """The mean over axis 0 of a whole stack, sorted per coordinate first."""

    return np.sort(stack, axis=0).sum(axis=0) / stack.shape[0]


def reference_stage1_aggregate(params_list, data_sizes=None, weighting="uniform"):
    """Stage 1 as it ran tensor by tensor, before the members' flat vectors
    were stacked whole."""

    if weighting == "data_size":
        sizes = np.asarray(data_sizes, dtype=np.float64)
        weights = sizes / sizes.sum()
    out = {}
    for name in params_list[0].tensors:
        if weighting == "data_size":
            stack = np.stack([w * p.tensors[name] for w, p in zip(weights, params_list)])
            out[name] = np.sort(stack, axis=0).sum(axis=0)
        else:
            out[name] = stacked_sorted_mean(np.stack([p.tensors[name] for p in params_list]))
    return ModelParams.from_tensors(out)


def reference_sgd_step(params, grads, learning_rate):
    return ModelParams.from_tensors({k: v - learning_rate * grads[k] for k, v in params.tensors.items()})


def reference_local_update(spec, params, features, labels, config, seed, prox_reference=None):
    n = features.shape[0]
    rng = np.random.default_rng(seed)
    current = params
    batch_losses = []
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            take = order[start : start + config.batch_size]
            logits, caches = forward_cached(spec, current, features[take])
            loss, logit_grad = cross_entropy(logits, labels[take])
            if not loss <= 100 * math.log(spec.class_count):
                return None, loss  # diverged: local_update raises before this step
            grads = reference_backward(spec, current, caches, logit_grad)
            if prox_reference is not None and config.fedprox_mu > 0:
                for name in grads:
                    grads[name] += config.fedprox_mu * (
                        current.tensors[name] - prox_reference.tensors[name]
                    )
            current = reference_sgd_step(current, grads, config.learning_rate)
            batch_losses.append(loss)
    mean_loss = float(np.mean(batch_losses)) if batch_losses else float("nan")
    return current, mean_loss


def reference_stage2_dml(states, batches, config):
    params = [s.params for s in states]
    kl_sum, kl_steps = 0.0, 0
    for _ in range(config.global_epochs):
        for batch in batches:
            forwards = [forward_cached(s.spec, p, batch) for s, p in zip(states, params)]
            stack = np.stack([logits for logits, _ in forwards])
            new_params = []
            for r, state in enumerate(states):
                if config.include_self_in_consensus:
                    consensus = stacked_sorted_mean(stack)
                else:
                    consensus = stacked_sorted_mean(np.delete(stack, r, axis=0))
                own, caches = forwards[r]
                kl_value, kl_grad = kl_divergence(
                    softmax_with_temperature(consensus, config.temperature), own, config.temperature
                )
                kl_sum += kl_value
                kl_steps += 1
                grads = reference_backward(state.spec, params[r], caches, kl_grad)
                new_params.append(reference_sgd_step(params[r], grads, config.learning_rate))
            params = new_params
    return params, (kl_sum / kl_steps if kl_steps else 0.0)


@st.composite
def model_specs(draw):
    """A small random MLP or CNN, pruned to a random rate."""

    classes = draw(st.integers(2, 4))
    if draw(st.booleans()):
        hidden = tuple(draw(st.lists(st.integers(1, 6), max_size=2)))
        base = mlp_spec((draw(st.integers(1, 5)),), hidden, classes)
    else:
        side = draw(st.integers(4, 7))
        channels = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
        in_channels = draw(st.integers(1, 2))
        base = cnn_spec((in_channels, side, side), channels, classes, dense_width=draw(st.integers(1, 4)))
    return build_pruned_spec(base, draw(st.sampled_from([1.0, 0.7, 0.4])))


def all_finite(params: ModelParams, losses) -> bool:
    return all(map(math.isfinite, losses)) and all(np.isfinite(t).all() for t in params.tensors.values())


def snapshot(params: ModelParams) -> dict[str, bytes]:
    return {name: t.tobytes() for name, t in params.tensors.items()}


def compare_local_update(spec, n, batch_size, epochs, mu, learning_rate, seed) -> bool:
    """Check ``local_update`` against :func:`reference_local_update` from spread
    parameters: the same bytes, or the same divergence.  True if the bytes
    were compared."""

    rng = np.random.default_rng(seed)
    params = spread_params(spec, seed, top=0)
    reference = spread_params(spec, seed + 1, top=0) if mu is not None else None
    features = rng.normal(size=(n, *spec.input_shape))
    labels = rng.integers(0, spec.class_count, size=n)
    cfg = FedConfig(
        local_epochs=epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        fedprox_mu=mu or 0.0,
    )
    with np.errstate(all="ignore"):
        want, want_loss = reference_local_update(spec, params, features, labels, cfg, seed, prox_reference=reference)
        if want is None or not all_finite(want, [want_loss] if epochs else []):
            with pytest.raises(EngineError, match="diverged"):
                local_update(spec, params, features, labels, cfg, seed, prox_reference=reference)
            return False
    got, loss = local_update(spec, params, features, labels, cfg, seed, prox_reference=reference)
    assert_same_bytes(got, want)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    return True


class TestFlatTrainingMatchesPerTensorLoops:
    @given(
        spec=model_specs(),
        n=st.integers(1, 13),
        batch_size=st.integers(1, 6),
        epochs=st.integers(0, 3),
        mu=st.sampled_from([None, 0.0, 0.3]),
        learning_rate=st.sampled_from([0.05, 0.5]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_local_update_is_bitwise_equal(self, spec, n, batch_size, epochs, mu, learning_rate, seed):
        event("compared byte for byte" if compare_local_update(spec, n, batch_size, epochs, mu, learning_rate, seed) else "diverged")

    def test_the_bitwise_comparison_is_reached_rather_than_divergence(self):
        # the examples above end at the divergence check only if their
        # starting weights are too large to train from; this fixed set of the
        # largest draws (every class count, both layer kinds, three epochs,
        # the larger rate) shows that every one is compared byte for byte
        specs = [
            spec
            for classes in (2, 3, 4)
            for spec in (
                mlp_spec((5,), (6, 4), classes),
                cnn_spec((2, 7, 7), (3, 2), classes, dense_width=4),
                build_pruned_spec(cnn_spec((1, 5, 5), (3,), classes, dense_width=3), 0.4),
            )
        ]
        compared = [
            compare_local_update(spec, 13, 6, 3, mu, 0.5, seed)
            for spec in specs
            for mu in (None, 0.3)
            for seed in range(3)
        ]
        assert all(compared)

    @given(
        spec=model_specs(),
        rates=st.lists(st.sampled_from([1.0, 0.8, 0.5]), min_size=1, max_size=3),
        n=st.integers(1, 9),
        batch_size=st.integers(1, 4),
        include_self=st.booleans(),
        global_epochs=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_stage2_is_bitwise_equal(self, spec, rates, n, batch_size, include_self, global_epochs, seed):
        assume(include_self or len(rates) > 1)
        specs = [build_pruned_spec(spec, rate) for rate in rates]
        states = [ClusterState(c, s, spread_params(s, seed + c)) for c, s in enumerate(specs)]
        inputs = np.random.default_rng(seed).normal(size=(n, *spec.input_shape))
        cfg = FedConfig(
            temperature=2.0,
            learning_rate=0.1,
            include_self_in_consensus=include_self,
            global_epochs=global_epochs,
        )
        batches = split_batches(inputs, batch_size)
        with np.errstate(all="ignore"):
            want, want_kl = reference_stage2_dml(states, batches, cfg)
            if not all(all_finite(p, [want_kl]) for p in want):
                with pytest.raises(EngineError, match="diverged"):
                    stage2_dml(states, batches, cfg)
                return
        after, kl = stage2_dml(states, batches, cfg)
        for state, params in zip(after, want):
            assert_same_bytes(state.params, params)
        assert np.float64(kl).tobytes() == np.float64(want_kl).tobytes()

    def test_local_update_leaves_its_inputs_unchanged(self):
        spec = cnn_spec((1, 6, 6), (2,), 3, dense_width=4)
        params, reference = spread_params(spec, 1, top=0), spread_params(spec, 2, top=0)
        before, before_ref = snapshot(params), snapshot(reference)
        rng = np.random.default_rng(3)
        features, labels = rng.normal(size=(7, 1, 6, 6)), rng.integers(0, 3, size=7)
        cfg = FedConfig(local_epochs=2, batch_size=3, learning_rate=0.1, fedprox_mu=0.5)
        trained, _ = local_update(spec, params, features, labels, cfg, 4, prox_reference=reference)
        assert snapshot(params) == before and snapshot(reference) == before_ref
        assert snapshot(trained) != before
        assert not np.shares_memory(trained.flat, params.flat)
        assert not np.shares_memory(trained.flat, reference.flat)

    def test_zero_epochs_return_the_starting_values_in_new_arrays(self):
        spec = small_spec()
        params = spread_params(spec, 5)
        features = np.random.default_rng(5).normal(size=(4, 6))
        out, _ = local_update(spec, params, features, np.arange(4) % 3, FedConfig(local_epochs=0), 1)
        assert_same_bytes(out, params)
        for name, tensor in out.tensors.items():
            assert not np.shares_memory(tensor, params.tensors[name])

    def test_stage2_leaves_the_input_states_unchanged(self):
        states = make_states([1.0, 0.6, 0.3])
        before = [snapshot(s.params) for s in states]
        batches = split_batches(np.random.default_rng(9).normal(size=(7, 6)), 3)
        cfg = FedConfig(learning_rate=0.2, global_epochs=2)
        after, _ = stage2_dml(states, batches, cfg)
        assert [snapshot(s.params) for s in states] == before
        assert all(snapshot(a.params) != b for a, b in zip(after, before))
        for old, new in zip(states, after):
            for name, tensor in new.params.tensors.items():
                assert not np.shares_memory(tensor, old.params.tensors[name])


class TestFlatStage1MatchesPerTensorLoop:
    @given(
        spec=model_specs(),
        members=st.integers(1, 13),
        weighting=st.sampled_from(STAGE1_WEIGHTINGS),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_on_every_tensor_of_more_than_one_element(self, spec, members, weighting, seed):
        params = [spread_params(spec, seed + i) for i in range(members)]
        sizes = [int(n) for n in np.random.default_rng(seed).integers(1, 200, size=members)]
        got = stage1_aggregate(params, data_sizes=sizes, weighting=weighting)
        want = reference_stage1_aggregate(params, data_sizes=sizes, weighting=weighting)
        assert got.layout.spans == want.layout.spans
        for name, tensor in want.tensors.items():
            if tensor.size != 1:
                assert got.tensors[name].tobytes() == tensor.tobytes(), name

    def test_one_element_tensor_sums_in_sorted_order(self):
        # Nine members of a width-1 hidden layer.  Summed one after the
        # other, as the flat stack sums every coordinate, -1e16, seven 1s and
        # 1e16 give 0; the per-tensor stack summed this (9, 1) column
        # pairwise and gave 6.
        values = [-1e16] + [1.0] * 7 + [1e16]
        assert np.sort(np.array(values)[:, None], axis=0).sum(axis=0)[0] == 6.0
        spec = mlp_spec((2,), (1,), 2)
        assert spec.layout.spans["layer0.bias"][2] == (1,)
        members = []
        for i, v in enumerate(values):
            params = init_params(spec, i)
            params.tensors["layer0.bias"][0] = v
            members.append(params)
        merged = stage1_aggregate(members)
        assert merged.tensors["layer0.bias"][0] == 0.0
        assert reference_stage1_aggregate(members).tensors["layer0.bias"][0] == 6.0 / 9
        for name in ("layer0.weight", "layer2.weight", "layer2.bias"):
            assert merged.tensors[name].tobytes() == reference_stage1_aggregate(members).tensors[name].tobytes()


def sequential_sorted_sum(stack):
    """Sort a stack per coordinate, then add its operands one after another,
    starting from +0.0 as NumPy's sum does."""

    total = np.zeros(stack.shape[1:])
    for operand in np.sort(stack, axis=0):
        total += operand
    return total


def reference_sequential_stage1(params_list, data_sizes=None, weighting="uniform"):
    """Stage 1 tensor by tensor, every coordinate (a lone one too) summed one
    operand after another."""

    out = {}
    for name in params_list[0].tensors:
        stack = np.stack([p.tensors[name] for p in params_list])
        if weighting == "data_size":
            sizes = np.asarray(data_sizes, dtype=np.float64)
            weights = (sizes / sizes.sum()).reshape(-1, *[1] * (stack.ndim - 1))
            out[name] = sequential_sorted_sum(stack * weights)
        else:
            out[name] = sequential_sorted_sum(stack) / len(params_list)
    return ModelParams.from_tensors(out)


class TestSlabBoundaries:
    """The reduction kernel at slab boundaries and within its scratch buffer."""

    def test_lone_coordinates_of_many_clients(self):
        # a budget of one float64 makes every slab of a bias one coordinate,
        # and NumPy sums a lone column of 8 or more clients pairwise
        base = mlp_spec((3,), (1, 5), 4)
        rng = np.random.default_rng(11)
        global_params = spread_params(base, 11)
        contributions = random_contributions(base, rng, 16)
        with slab_budget(1):
            merged = heterofl_aggregate(global_params, contributions)
        assert_same_bytes(merged, heterofl_canvas(global_params, contributions))

    @given(
        spec=model_specs(),
        members=st.integers(1, 13),
        weighting=st.sampled_from(STAGE1_WEIGHTINGS),
        seed=st.integers(0, 2**16),
        budget=slab_budgets,
    )
    @settings(max_examples=60, deadline=None)
    def test_stage1_matches_sequential_reference(self, spec, members, weighting, seed, budget):
        rng = np.random.default_rng(seed)
        params = [with_signed_zeros(spread_params(spec, seed + i), rng) for i in range(members)]
        sizes = [int(n) for n in rng.integers(1, 200, size=members)]
        with slab_budget(budget):
            got = stage1_aggregate(params, data_sizes=sizes, weighting=weighting)
        assert_same_bytes(got, reference_sequential_stage1(params, data_sizes=sizes, weighting=weighting))

    @pytest.mark.parametrize("weighting", STAGE1_WEIGHTINGS)
    def test_flat_vector_with_a_one_coordinate_tail_slab(self, weighting):
        # 17 parameters and nine members in 72 float64s: slabs of 8, 8 and
        # 1 coordinates.  Summed one after the other, -1.5e16, seven 1s and
        # 1.5e16 give 0 in the last coordinate, weighted by 1/9 or not;
        # NumPy's pairwise sum of the lone column gives 6/9 and 0.75.
        spec = mlp_spec((2,), (3,), 2)
        assert spec.layout.size == 17
        members = [spread_params(spec, i) for i in range(9)]
        for params, v in zip(members, [-1.5e16] + [1.0] * 7 + [1.5e16]):
            params.flat[-1] = v
        sizes = [1] * 9
        with slab_budget(72):
            merged = stage1_aggregate(members, data_sizes=sizes, weighting=weighting)
        assert merged.flat[-1] == 0.0
        assert_same_bytes(merged, reference_sequential_stage1(members, data_sizes=sizes, weighting=weighting))

    def test_stage1_works_through_one_scratch_buffer(self):
        # 48 members whose whole stack would take 33 MB: the peak is the
        # output plus one scratch buffer, and no sorted copy of it
        base = mlp_spec((64,), (256, 256), 10)
        members = [init_params(base, i) for i in range(48)]
        tracemalloc.start()
        try:
            merged = stage1_aggregate(members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < merged.flat.nbytes + 1.25 * 8 * fedsim.engine._SLAB_ELEMENTS


BENCH_CNN = cnn_spec((1, 16, 16), (8, 16), 4)


def cnn_images(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 1, 16, 16)), rng.integers(0, 4, size=n)


def evaluation_peak(spec, params, features, labels):
    """tracemalloc's peak over one :func:`evaluate` call, after a warm-up call."""

    evaluate(spec, params, features, labels)  # builds the spec's cached layout
    tracemalloc.start()
    try:
        evaluate(spec, params, features, labels)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bits(params: ModelParams) -> np.ndarray:
    return params.flat.view(np.int64)


def heterofl_in_parts(global_params, contributions, n, order=None):
    """The merge written part by part into one copy of the global model, as
    the ``n`` processes of a run write it.  Each part alone changes nothing
    but coordinates of the whole merge."""

    whole = heterofl_aggregate(global_params, contributions)
    merged = global_params.copy()
    for k in order or range(n):
        alone = heterofl_aggregate(global_params, contributions, (k, n))
        assert np.all((bits(alone) == bits(global_params)) | (bits(alone) == bits(whole)))
        assert heterofl_aggregate(global_params, contributions, (k, n), merged) is merged
    return merged


def stage1_in_parts(params, sizes, weighting, n):
    """Stage 1 written part by part into one vector of NaNs, so a coordinate
    that no part writes shows."""

    merged = ModelParams(params[0].layout, np.full(params[0].layout.size, np.nan))
    for k in range(n):
        assert stage1_aggregate(params, sizes, weighting, (k, n), merged) is merged
    return merged


class TestPartsMatchTheWholeReduction:
    """The processes of a run each write one part of the rows of every
    reduction; together the parts give the bytes of one process."""

    @given(seed=st.integers(0, 10**6), parts=st.integers(1, 5), budget=slab_budgets)
    @settings(max_examples=60, deadline=None)
    def test_heterofl_random_mlp_specs(self, seed, parts, budget):
        rng = np.random.default_rng(seed)
        hidden = tuple(int(h) for h in rng.integers(1, 10, size=rng.integers(1, 3)))
        base = mlp_spec((int(rng.integers(1, 6)),), hidden, int(rng.integers(2, 5)))
        global_params = spread_params(base, seed)
        contributions = [with_signed_zeros(p, rng) for p in random_contributions(base, rng, int(rng.integers(1, 20)))]
        with slab_budget(budget):
            merged = heterofl_in_parts(global_params, contributions, parts, rng.permutation(parts).tolist())
            assert_same_bytes(merged, heterofl_aggregate(global_params, contributions))

    @given(seed=st.integers(0, 10**6), parts=st.integers(1, 5), budget=slab_budgets)
    @settings(max_examples=25, deadline=None)
    def test_heterofl_random_cnn_specs(self, seed, parts, budget):
        rng = np.random.default_rng(seed)
        channels = tuple(int(c) for c in rng.integers(1, 7, size=rng.integers(1, 3)))
        base = cnn_spec((int(rng.integers(1, 3)), 6, 6), channels, int(rng.integers(2, 4)),
                        dense_width=int(rng.integers(2, 9)))
        global_params = spread_params(base, seed)
        contributions = [with_signed_zeros(p, rng) for p in random_contributions(base, rng, int(rng.integers(1, 10)))]
        assert any(t.ndim == 4 for t in global_params.tensors.values())
        with slab_budget(budget):
            merged = heterofl_in_parts(global_params, contributions, parts)
            assert_same_bytes(merged, heterofl_aggregate(global_params, contributions))

    @given(
        spec=model_specs(),
        members=st.integers(1, 13),
        weighting=st.sampled_from(STAGE1_WEIGHTINGS),
        parts=st.integers(1, 5),
        seed=st.integers(0, 2**16),
        budget=slab_budgets,
    )
    @settings(max_examples=60, deadline=None)
    def test_stage1_random_specs(self, spec, members, weighting, parts, seed, budget):
        rng = np.random.default_rng(seed)
        params = [with_signed_zeros(spread_params(spec, seed + i), rng) for i in range(members)]
        sizes = [int(n) for n in rng.integers(1, 200, size=members)]
        with slab_budget(budget):
            merged = stage1_in_parts(params, sizes, weighting, parts)
            assert_same_bytes(merged, stage1_aggregate(params, data_sizes=sizes, weighting=weighting))

    @pytest.mark.parametrize("parts", range(1, 6))
    def test_a_part_of_one_row_sums_in_sorted_order(self, parts):
        # the data of test_lone_coordinate_sums_in_sorted_order: the cell of
        # rows 0-2 has nine clients, so three parts make one-coordinate slabs
        # of nine operands, which NumPy would sum pairwise; five parts leave
        # some parts of the cells of four and of one row empty
        values = [-1e16] + [1.0] * 6 + [1e16]
        global_params = ModelParams.from_tensors({"b": np.zeros(4)})
        contributions = [ModelParams.from_tensors({"b": np.full(3, 7.0)})]
        contributions += [ModelParams.from_tensors({"b": np.full(4, v)}) for v in values]
        merged = heterofl_in_parts(global_params, contributions, parts)
        assert_same_bytes(merged, heterofl_canvas(global_params, contributions))
        assert merged.tensors["b"][3] == 0.0
        nine = contributions[1:] + [ModelParams.from_tensors({"b": np.full(4, 2.0)})]
        assert_same_bytes(stage1_in_parts(nine, [1] * 9, "uniform", parts), stage1_aggregate(nine))

    @pytest.mark.parametrize("parts", range(1, 6))
    def test_negative_zeros_in_parts(self, parts):
        global_params = ModelParams.from_tensors({"b": np.ones(4)})
        contributions = [ModelParams.from_tensors({"b": np.full(n, -0.0)}) for n in (2, 3, 4, 4)]
        merged = heterofl_in_parts(global_params, contributions, parts)
        assert_same_bytes(merged, heterofl_canvas(global_params, contributions))
        assert not np.any(np.signbit(merged.tensors["b"]))
        zeros = [ModelParams.from_tensors({"b": np.full(4, -0.0)}) for _ in range(3)]
        assert not np.any(np.signbit(stage1_in_parts(zeros, [1, 2, 3], "data_size", parts).flat))


class TestEvaluate:
    def test_matches_naive_argmax_across_chunks(self):
        spec = small_spec(hidden=(512,))
        params = random_params(spec, 17)
        rng = np.random.default_rng(18)
        features = rng.normal(size=(2100, 6))  # 256-row chunks: crosses eight chunk boundaries
        labels = rng.integers(0, 3, size=2100)
        got = evaluate(spec, params, features, labels)
        logits = model_forward(spec, params, features)
        want = float(np.mean(np.argmax(logits, axis=1) == labels))
        assert got == pytest.approx(want, abs=1e-12)

    def test_random_labels_score_at_chance_level(self):
        # labels drawn independently of the inputs: hits ~ Binomial(n, 1/C)
        spec = small_spec(classes=4)
        params = random_params(spec, 19)
        rng = np.random.default_rng(20)
        n, p = 2000, 0.25
        features = rng.normal(size=(n, 6))
        labels = rng.integers(0, 4, size=n)
        acc = evaluate(spec, params, features, labels)
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(acc - p) < 5 * sigma

    def test_empty_set_rejected(self):
        spec = small_spec()
        with pytest.raises(DimensionError):
            evaluate(spec, random_params(spec, 1), np.zeros((0, 6)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize(
        "base,rate,rows",
        [
            (mlp_spec((12,), (32,), 10), 1.0, 400),
            (mlp_spec((64,), (256, 256), 10), 1.0, 400),
            (BENCH_CNN, 1.0, 64),
            (BENCH_CNN, 0.8, 85),
            (BENCH_CNN, 0.6, 102),
        ],
        ids=["mlp-12-32-10", "mlp-64-256-256-10", "cnn-1.0", "cnn-0.8", "cnn-0.6"],
    )
    def test_chunk_rows_fill_the_working_set_with_the_widest_activation(self, monkeypatch, base, rate, rows):
        # 2**17 float64s over the widest per-sample array: 32 and 256 units
        # leave the MLPs' 400 rows in one pass; the CNN's widest array is its
        # conv1 output, 8, 6 or 5 channels of 16x16
        spec = build_pruned_spec(base, rate)
        seen = []

        def recording_forward(spec, params, batch):
            seen.append(len(batch))
            return model_forward(spec, params, batch)

        monkeypatch.setattr(fedsim.engine, "model_forward", recording_forward)
        features = np.random.default_rng(24).normal(size=(400, *spec.input_shape))
        evaluate(spec, init_params(spec, 0), features, np.zeros(400, dtype=int))
        assert seen == [rows] * (400 // rows) + [400 % rows] * (400 % rows > 0)

    def test_chunked_cnn_accuracy_equals_one_unchunked_pass(self):
        params = init_params(BENCH_CNN, 3)
        features, labels = cnn_images(300, 23)  # five 64-row chunks
        logits = model_forward(BENCH_CNN, params, features)
        want = int(np.sum(np.argmax(logits, axis=1) == labels)) / 300
        assert evaluate(BENCH_CNN, params, features, labels) == want

    def test_a_cnn_evaluation_keeps_no_layer_caches(self):
        # with every layer's cache held to the end of the forward pass, a
        # 64-row chunk peaks at 5.0 MiB; without, at 3.2 MiB
        features, labels = cnn_images(160, 21)
        assert evaluation_peak(BENCH_CNN, init_params(BENCH_CNN, 0), features, labels) < 4 * 2**20

    def test_a_cnn_evaluation_is_chunked_to_the_working_set(self):
        # 1,000 images in one pass peak at 48 MiB; in 64-row chunks, whose
        # conv1 output fills the 1 MiB working set, at 3.2 MiB
        features, labels = cnn_images(1000, 22)
        assert evaluation_peak(BENCH_CNN, init_params(BENCH_CNN, 0), features, labels) < 4 * 2**20


def desk_profiles(speeds):
    return [ClientProfile(client_id=i, speed_factor=s) for i, s in enumerate(speeds)]


def desk_config(**overrides):
    defaults = dict(
        algorithm="fedtsa",
        rounds=3,
        local_epochs=2,
        batch_size=20,
        learning_rate=0.05,
        temperature=5.0,
        distill_count=30,
        holdout_count=30,
        profile_noise_sd=0.01,
        master_seed=7,
    )
    defaults.update(overrides)
    return FedConfig(**defaults)


def mapping_of(array: np.ndarray) -> mmap.mmap:
    """The shared mapping whose memory ``array`` views."""

    while isinstance(array, np.ndarray):
        array = array.base
    assert isinstance(array.obj, mmap.mmap)
    return array.obj


class TestRunExperiment:
    def setup_method(self):
        self.train, self.test = make_blobs(3, 60, 30, 8, seed=123)
        self.base = mlp_spec((8,), (16,), 3)
        self.profiles = desk_profiles([1.0, 1.0, 1.0, 1.0, 2.5, 2.5])

    def test_zero_rounds_yields_no_metrics_but_initial_states(self):
        cfg = desk_config(rounds=0)
        result = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        assert result.metrics == []
        assert result.assignment is not None
        assert len(result.states) == result.assignment.cluster_count
        for state in result.states:
            assert state.params.tensors

    def test_fedtsa_learns_separable_blobs(self):
        cfg = desk_config(rounds=4)
        result = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        assert len(result.metrics) == 4
        final = result.metrics[-1]
        assert final.client_weighted_accuracy > 0.9
        assert result.assignment.cluster_count == 2
        assert result.assignment.rates == pytest.approx([1.0, 0.4], rel=0.05)

    def test_noiseless_profiling_gives_exact_rates(self):
        cfg = desk_config(rounds=0, profile_noise_sd=0.0)
        result = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        assert list(result.assignment.rates) == [1.0, 0.4]

    def test_metrics_fields_are_consistent(self):
        cfg = desk_config(rounds=2)
        result = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        for m in result.metrics:
            assert isinstance(m, RoundMetrics)
            assert len(m.cluster_accuracy) == result.assignment.cluster_count
            assert 0.0 <= m.unweighted_accuracy <= 1.0

    def test_repeat_runs_are_bit_identical(self):
        cfg = desk_config(rounds=2, partition_mode="dirichlet", dirichlet_alpha=0.6)
        a = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        b = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        assert [m.as_dict() for m in a.metrics] == [m.as_dict() for m in b.metrics]

    def test_fedavg_uses_one_cluster_at_fixed_width(self):
        cfg = desk_config(algorithm="fedavg", homogeneous_pruning=0.5, rounds=1)
        result = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        assert len(result.states) == 1
        assert result.states[0].spec.pruning_rate == 0.5
        hidden = result.states[0].spec.layers[0].width
        assert hidden == 8  # half of 16
        assert result.assignment.members(0).size == len(self.profiles)

    def test_fedprox_with_zero_mu_equals_fedavg_bitwise(self):
        avg = run_experiment(
            desk_config(algorithm="fedavg", rounds=2),
            self.base, self.train, self.test, self.profiles,
        )
        prox = run_experiment(
            desk_config(algorithm="fedprox", fedprox_mu=0.0, rounds=2),
            self.base, self.train, self.test, self.profiles,
        )
        assert [m.as_dict() for m in avg.metrics] == [m.as_dict() for m in prox.metrics]
        assert params_equal(avg.states[0].params, prox.states[0].params)

    def test_fedprox_mu_changes_trajectory(self):
        a = run_experiment(
            desk_config(algorithm="fedprox", fedprox_mu=0.0, rounds=2),
            self.base, self.train, self.test, self.profiles,
        )
        b = run_experiment(
            desk_config(algorithm="fedprox", fedprox_mu=0.5, rounds=2),
            self.base, self.train, self.test, self.profiles,
        )
        assert not params_equal(a.states[0].params, b.states[0].params)

    def test_heterofl_shares_a_global_model(self):
        cfg = desk_config(algorithm="heterofl", rounds=3)
        result = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        assert result.global_params is not None
        assert result.states[0].spec.pruning_rate == 1.0
        # every cluster's model is a leading slice of the global model
        for state in result.states:
            overlap_map(self.base, state.spec)
            assert params_equal(state.params, extract_overlap(result.global_params, state.spec))
        assert result.metrics[-1].client_weighted_accuracy > 0.8

    def test_heterofl_ignores_stage1_weighting(self):
        # the HeteroFL merge is an unweighted covering mean whatever the
        # weighting; fedavg on the same skewed partition shows it would matter
        runs = {}
        for algorithm in ("heterofl", "fedavg"):
            for weighting in ("uniform", "data_size"):
                cfg = desk_config(algorithm=algorithm, stage1_weighting=weighting, rounds=3,
                                  partition_mode="dirichlet", dirichlet_alpha=0.6)
                runs[algorithm, weighting] = run_experiment(
                    cfg, self.base, self.train, self.test, self.profiles
                )
        assert np.unique(runs["heterofl", "uniform"].partition.sizes()).size > 1
        uniform, data_size = runs["heterofl", "uniform"], runs["heterofl", "data_size"]
        assert [m.as_dict() for m in uniform.metrics] == [m.as_dict() for m in data_size.metrics]
        assert uniform.global_params.flat.tobytes() == data_size.global_params.flat.tobytes()
        assert not params_equal(runs["fedavg", "uniform"].states[0].params,
                                runs["fedavg", "data_size"].states[0].params)

    @pytest.mark.parametrize("algorithm", ["fedtsa", "fedavg", "fedprox", "heterofl"])
    def test_each_client_trains_in_the_same_slot_of_one_mapping_every_round(self, algorithm, monkeypatch):
        # every vector local_update trains, in every round, is the client's
        # own slot of the one shared mapping, so no round allocates another
        slots = {}  # client id -> the addresses its model was trained at
        mappings = set()
        original = fedsim.engine.local_update

        def tracked(spec, params, features, labels, config, seed, **kwargs):
            result = original(spec, params, features, labels, config, seed, **kwargs)
            slots.setdefault(seed.spawn_key[1], set()).add(result[0].flat.ctypes.data)
            mappings.add(id(mapping_of(result[0].flat)))
            return result

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # every update in this process
        monkeypatch.setattr(fedsim.engine, "local_update", tracked)
        run = run_experiment(desk_config(algorithm=algorithm, rounds=3), self.base, self.train, self.test,
                             self.profiles)
        assert sorted(slots) == sorted(p.client_id for p in self.profiles)
        assert all(len(addresses) == 1 for addresses in slots.values())
        assert len({address for addresses in slots.values() for address in addresses}) == len(slots)
        assert len(mappings) == 1
        assert id(mapping_of(run.states[0].params.flat)) in mappings

    @pytest.mark.parametrize(
        "overrides",
        [dict(distill_resample=True, holdout_count=60), dict(algorithm="heterofl")],
        ids=["fedtsa-resample", "heterofl"],
    )
    def test_a_fresh_run_continues_a_shorter_one_bitwise(self, overrides):
        # everything in a RunState but the models and the metrics derives
        # from the config and the master seed, so a fresh prepare_run given
        # the models of a k-round run carries it on to the N-round run
        k, n = 2, 4
        cfg = desk_config(rounds=n, **overrides)
        full = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        head = run_experiment(replace(cfg, rounds=k), self.base, self.train, self.test, self.profiles)
        run = prepare_run(cfg, self.base, self.train, self.test, self.profiles)
        run.states, run.global_params = head.states, head.global_params
        tail = [run_round(run, t) for t in range(k, n)]
        assert run.metrics == tail
        assert [m.as_dict() for m in head.metrics + tail] == [m.as_dict() for m in full.metrics]
        got = [s.params for s in run.states]
        want = [s.params for s in full.states]
        if cfg.algorithm == "heterofl":
            got.append(run.global_params)
            want.append(full.global_params)
        assert [p.flat.tobytes() for p in got] == [p.flat.tobytes() for p in want]

    def test_clients_train_under_their_ids_on_the_rows_of_their_positions(self, monkeypatch):
        # ids out of order and with gaps: a client's random stream is keyed by
        # its id, its rows are the shard of its position in the profile list.
        # local_update is recorded in this process, so it trains every client:
        # one CPU, no helper process
        ids = [40, 7, 13, 2, 25, 31]
        profiles = [ClientProfile(i, s) for i, s in zip(ids, [1.0, 2.5, 1.0, 1.0, 2.5, 1.0])]
        original, calls = fedsim.engine.local_update, []

        def recorded(spec, params, features, labels, config, seed, **kwargs):
            calls.append((seed.spawn_key, features))
            return original(spec, params, features, labels, config, seed, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(fedsim.engine, "local_update", recorded)
        run = run_experiment(desk_config(rounds=2), self.base, self.train, self.test, profiles)
        order = [pos for c in range(run.assignment.cluster_count) for pos in run.assignment.members(c)]
        assert order == [0, 2, 3, 5, 1, 4]
        assert len(calls) == 2 * len(order)
        for (key, features), (t, pos) in zip(calls, [(t, pos) for t in range(2) for pos in order]):
            assert key == (fedsim.engine._STREAM_LOCAL, ids[pos], t)
            assert np.array_equal(features, self.train.features[run.partition.client_indices[pos]])

        rows = self.train.features[run.partition.client_indices[4]]

        def diverging(spec, params, features, *args, **kwargs):
            if np.array_equal(features, rows):
                raise EngineError("local training diverged")
            return original(spec, params, features, *args, **kwargs)

        monkeypatch.setattr(fedsim.engine, "local_update", diverging)
        with pytest.raises(EngineError, match=r"^round 0, cluster 1, client 25: local training diverged$"):
            run_experiment(desk_config(rounds=1), self.base, self.train, self.test, profiles)

        # helper processes train the same clients to the same bytes
        monkeypatch.setattr(fedsim.engine, "local_update", original)
        for cpus in (2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            forked = run_experiment(desk_config(rounds=2), self.base, self.train, self.test, profiles)
            assert [m.as_dict() for m in forked.metrics] == [m.as_dict() for m in run.metrics]
            assert [s.params.flat.tobytes() for s in forked.states] == [
                s.params.flat.tobytes() for s in run.states
            ]

    def test_a_two_cpu_fedtsa_round_sends_its_helper_two_messages_per_stage2_step_and_seven_more(
        self, monkeypatch, tmp_path
    ):
        # per round: a command and a reply for each of three phases, one ok
        # each way per Stage-2 step, and the helper's hand-over at its end
        log, real = tmp_path / "senders", fedsim.procs._send

        def counted(pipe, obj):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            real(pipe, obj)

        monkeypatch.setattr(fedsim.procs, "_send", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = desk_config(rounds=2, global_epochs=2)
        run = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        steps = cfg.global_epochs * len(run.distill_batches)
        assert len(run.states) == 2 and steps > 1  # the helper owns a cluster
        senders = log.read_text().split()
        parent = senders.count(str(os.getpid()))
        assert (parent, len(senders) - parent) == (cfg.rounds * (3 + steps), cfg.rounds * (4 + steps))

    def test_a_run_holds_its_datasets_without_copying_them(self):
        run = prepare_run(desk_config(), self.base, self.train, self.test, self.profiles)
        assert run.train is self.train and run.test is self.test

    def test_one_cluster_that_excludes_itself_from_stage2_is_a_config_error(self):
        cfg = desk_config(include_self_in_consensus=False, profile_noise_sd=0.0)
        one_cluster = desk_profiles([1.0] * 4)
        with pytest.raises(ConfigError, match="distillation.include_self"):
            prepare_run(cfg, self.base, self.train, self.test, one_cluster)
        # fedavg never distils, and two clusters have peers
        prepare_run(replace(cfg, algorithm="fedavg"), self.base, self.train, self.test, one_cluster)
        prepare_run(cfg, self.base, self.train, self.test, self.profiles)

    def test_on_round_callback_sees_every_round(self):
        seen = []
        cfg = desk_config(rounds=3)
        run_experiment(
            cfg, self.base, self.train, self.test, self.profiles, on_round=seen.append
        )
        assert [m.round_index for m in seen] == [0, 1, 2]

    def test_holdout_never_trains(self):
        cfg = desk_config(rounds=0)
        result = run_experiment(cfg, self.base, self.train, self.test, self.profiles)
        used = np.concatenate(result.partition.client_indices)
        assert used.size == len(self.train) - 30  # holdout stays out of every shard

    def test_rejects_bad_inputs(self):
        cfg = desk_config()
        with pytest.raises(ConfigError):
            run_experiment(cfg, self.base, self.train, self.test, [])
        dupes = [ClientProfile(0, 1.0), ClientProfile(0, 2.0)]
        with pytest.raises(ConfigError):
            run_experiment(cfg, self.base, self.train, self.test, dupes)
        with pytest.raises(ConfigError):
            run_experiment(
                desk_config(algorithm="fedsgd"), self.base, self.train, self.test, self.profiles
            )

    @pytest.mark.parametrize("which", ["train", "test"])
    def test_samples_that_do_not_fit_the_model_are_rejected_before_training(self, which):
        other_train, other_test = make_blobs(3, 60, 30, 5, seed=123)
        train, test = (other_train, self.test) if which == "train" else (self.train, other_test)
        with pytest.raises(DimensionError, match=rf"{which} samples of shape \(5,\) do not fit model input \(8,\)"):
            prepare_run(desk_config(), self.base, train, test, self.profiles)


class TestFedConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("algorithm", "sgd"),
            ("rounds", -1),
            ("local_epochs", -2),
            ("batch_size", 0),
            ("learning_rate", 0.0),
            ("stage1_weighting", "median"),
            ("temperature", 0.0),
            ("global_epochs", 0),
            ("include_self_in_consensus", "yes"),
            ("distill_resample", 1),
            ("refine_kde", "no"),
            ("distill_kind", "internet"),
            ("distill_count", 0),
            ("holdout_count", 0),
            ("fedprox_mu", -0.1),
            ("homogeneous_pruning", 0.0),
            ("homogeneous_pruning", 1.2),
            ("partition_mode", "power-law"),
            ("dirichlet_alpha", 0.0),
            ("workload_units", 0.0),
            ("profile_noise_sd", 0.4),
            ("kde_bandwidth", 0.0),
            ("rate_ladder", ()),
            ("rate_ladder", (0.5, 1.5)),
            ("master_seed", -3),
        ],
    )
    def test_each_bad_field_is_named(self, field, value):
        cfg = FedConfig(**{field: value})
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert field in str(err.value)

    def test_directory_kind_requires_directory(self):
        with pytest.raises(ConfigError) as err:
            FedConfig(distill_kind="directory").validate()
        assert "distill_directory" in str(err.value)

    def test_defaults_follow_full_protocol(self):
        cfg = FedConfig()
        cfg.validate()
        assert (cfg.rounds, cfg.local_epochs, cfg.batch_size) == (100, 100, 100)
        assert (cfg.learning_rate, cfg.temperature, cfg.global_epochs) == (0.03, 5.0, 1)
        assert cfg.distill_count == 200
        assert cfg.fedprox_mu == 0.01
