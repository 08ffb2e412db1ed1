"""Model spec construction, pruning arithmetic, the flat parameter
representation, overlap maps and checkpoints."""

import json
import re

import numpy as np
import pytest

from fedsim.errors import DimensionError
from fedsim.models import (
    LayerSpec,
    ModelParams,
    ModelSpec,
    ParamLayout,
    build_pruned_spec,
    cnn_spec,
    extract_overlap,
    init_params,
    load_checkpoint,
    mlp_spec,
    overlap_map,
    pruned_width,
    save_checkpoint,
    spec_from_dict,
    spec_to_dict,
)


def in_header(change):
    """An edit of a checkpoint's arrays that applies ``change`` to its parsed header."""

    def edit(tensors):
        header = json.loads(str(tensors["__header__"]))
        change(header)
        tensors["__header__"] = np.array(json.dumps(header))

    return edit


def spec_update(**values):
    return in_header(lambda h: h["spec"].update(values))


def layer_update(index, **values):
    return in_header(lambda h: h["spec"]["layers"][index].update(values))


def param_shapes(spec):
    return {name: shape for name, (_, _, shape) in spec.layout.spans.items()}


class TestShapeInference:
    def test_mlp_param_shapes(self):
        spec = mlp_spec((20,), (8, 4), 3)
        assert param_shapes(spec) == {
            "layer0.weight": (8, 20),
            "layer0.bias": (8,),
            "layer2.weight": (4, 8),
            "layer2.bias": (4,),
            "layer4.weight": (3, 4),
            "layer4.bias": (3,),
        }

    def test_cnn_param_shapes(self):
        spec = cnn_spec((1, 8, 8), (4, 6), 5, kernel=3, pool=2, dense_width=10)
        shapes = param_shapes(spec)
        assert shapes["layer0.weight"] == (4, 1, 3, 3)
        assert shapes["layer3.weight"] == (6, 4, 3, 3)
        # 8x8 -> conv(pad 1) 8x8 -> pool 4x4 -> conv 4x4 -> pool 2x2
        assert shapes["layer7.weight"] == (10, 6 * 2 * 2)
        assert shapes["layer9.weight"] == (5, 10)

    def test_pooling_too_large_is_rejected(self):
        with pytest.raises(DimensionError, match="layer0"):
            ModelSpec(
                input_shape=(1, 3, 3),
                layers=(
                    LayerSpec(kind="maxpool", kernel=4, stride=4),
                    LayerSpec(kind="flatten"),
                    LayerSpec(kind="dense", width=2, base_width=2),
                ),
                class_count=2,
            )

    def test_model_must_end_in_class_dense(self):
        with pytest.raises(DimensionError, match="dense"):
            ModelSpec(
                input_shape=(4,),
                layers=(LayerSpec(kind="dense", width=3, base_width=3),),
                class_count=5,
            )


def image_spec(middle, **spec_values):
    """``middle`` between a 4-channel conv and the flatten and class dense
    layers, on (1, 6, 6) inputs; ``spec_values`` override the spec's own."""

    layers = (
        LayerSpec(kind="conv", width=4, base_width=4),
        middle,
        LayerSpec(kind="flatten"),
        LayerSpec(kind="dense", width=3, base_width=3),
    )
    return ModelSpec(layers=layers, **(dict(input_shape=(1, 6, 6), class_count=3) | spec_values))


class TestSpecChecksItself:
    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: image_spec(LayerSpec(kind="maxpool", kernel=2, stride=0)),
             "stride must be an integer of at least 1, got 0"),
            (lambda: image_spec(LayerSpec(kind="conv", width=2, base_width=2, kernel=0)),
             "kernel must be an integer of at least 1, got 0"),
            (lambda: image_spec(LayerSpec(kind="conv", width=2, base_width=2, padding=-1)),
             "padding must be an integer of at least 0, got -1"),
            (lambda: image_spec(LayerSpec(kind="relu"), pruning_rate=7.0),
             r"pruning_rate must be a number in \(0, 1\], got 7.0"),
            (lambda: mlp_spec((0,), (4,), 3), "an input_shape entry must be an integer of at least 1, got 0"),
            (lambda: ModelSpec((4,), (LayerSpec(kind="dense", width=np.int64(3), base_width=3),), 3),
             "width must be an integer of at least 1, got "),
            (lambda: image_spec(LayerSpec(kind="conv", width=True, base_width=2)),
             "width must be an integer of at least 1, got True"),
            (lambda: image_spec(LayerSpec(kind="relu"), class_count=3.0),
             "class_count must be an integer of at least 1, got 3.0"),
            (lambda: image_spec(LayerSpec(kind="relu"), input_shape=[1, 6, 6]),
             "input_shape must be a tuple of integers"),
        ],
        ids=["maxpool-stride-zero", "conv-kernel-zero", "conv-negative-padding", "rate-seven",
             "input-dim-zero", "numpy-width", "bool-width", "float-class-count", "list-input-shape"],
    )
    def test_a_malformed_spec_is_rejected_when_built(self, build, message):
        with pytest.raises(DimensionError, match=f"^{message}"):
            build()

    @pytest.mark.parametrize(
        "kind, key, value",
        [("maxpool", "padding", 1)]
        + [(kind, key, 4) for kind in ("relu", "maxpool", "flatten") for key in ("width", "base_width")]
        + [(kind, key, value) for kind in ("dense", "relu", "flatten")
           for key, value in (("kernel", 2), ("stride", 2), ("padding", 1))],
    )
    def test_a_value_the_layer_kind_never_reads_is_rejected(self, kind, key, value):
        # the kind's own fields as the model uses them: a maxpool needs a
        # kernel and a stride, a dense layer a width
        own = {"maxpool": dict(kernel=2, stride=2), "dense": dict(width=3, base_width=3)}.get(kind, {})
        LayerSpec(kind=kind, **own)
        with pytest.raises(DimensionError, match=f"^{key} does not apply to a {kind} layer, got {value}$"):
            LayerSpec(kind=kind, **own, **{key: value})

    def test_a_maxpool_with_padding_is_no_model(self):
        with pytest.raises(DimensionError, match="^padding does not apply to a maxpool layer, got 2$"):
            image_spec(LayerSpec(kind="maxpool", kernel=2, stride=2, padding=2))

    def test_a_spec_holds_its_layout_and_a_float_rate(self):
        spec = image_spec(LayerSpec(kind="maxpool", kernel=2, stride=2), pruning_rate=1)
        assert type(spec.pruning_rate) is float and spec.pruning_rate == 1.0
        assert "layout" in vars(spec)
        assert spec.layout.slots == (("layer0.weight", "layer0.bias"), None, None, ("layer3.weight", "layer3.bias"))
        # 6x6 -> conv 4x4 -> pool 2x2; the conv output is the widest
        assert spec.layout.spans["layer3.weight"][2] == (3, 4 * 2 * 2)
        assert spec.layout.widest == 4 * 4 * 4
        # the layout is derived, so it takes no part in equality or repr
        assert spec == image_spec(LayerSpec(kind="maxpool", kernel=2, stride=2))
        assert "layout" not in repr(spec)


class TestPruning:
    def test_width_rounding_is_half_up_with_floor_one(self):
        assert pruned_width(10, 0.75) == 8
        assert pruned_width(10, 0.25) == 3  # 2.5 rounds up
        assert pruned_width(5, 0.5) == 3
        assert pruned_width(4, 0.6) == 2
        assert pruned_width(1, 0.1) == 1
        assert pruned_width(3, 0.01) == 1

    def test_hidden_widths_scale_and_output_stays(self):
        base = mlp_spec((10,), (20, 10), 4)
        pruned = build_pruned_spec(base, 0.6)
        widths = [l.width for l in pruned.layers if l.kind == "dense"]
        assert widths == [12, 6, 4]
        assert pruned.pruning_rate == 0.6
        assert pruned.class_count == 4

    def test_repruning_uses_base_widths(self):
        base = mlp_spec((10,), (20,), 4)
        half = build_pruned_spec(base, 0.5)
        restored = build_pruned_spec(half, 1.0)
        assert [l.width for l in restored.layers] == [l.width for l in base.layers]

    def test_rate_bounds(self):
        base = mlp_spec((10,), (20,), 4)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(DimensionError):
                build_pruned_spec(base, bad)
        full = build_pruned_spec(base, 1.0)
        assert [l.width for l in full.layers] == [l.width for l in base.layers]

    @pytest.mark.parametrize(
        "layers",
        [
            (),
            (LayerSpec(kind="relu"),),
            (LayerSpec(kind="dense", width=4, base_width=4), LayerSpec(kind="relu")),
        ],
    )
    def test_base_without_a_dense_output_last_is_rejected(self, layers):
        with pytest.raises(DimensionError):
            ModelSpec(input_shape=(4,), layers=layers, class_count=4)

    def test_cnn_channels_prune_but_classifier_head_keeps_classes(self):
        base = cnn_spec((3, 8, 8), (16, 32), 10, dense_width=64)
        pruned = build_pruned_spec(base, 0.5)
        conv_widths = [l.width for l in pruned.layers if l.kind == "conv"]
        assert conv_widths == [8, 16]
        dense_widths = [l.width for l in pruned.layers if l.kind == "dense"]
        assert dense_widths == [32, 10]


class TestInitParams:
    def test_bounds_and_zero_biases(self):
        spec = mlp_spec((50,), (30,), 10)
        params = init_params(spec, 42)
        w0 = params.tensors["layer0.weight"]
        bound = np.sqrt(6.0 / 50)
        assert np.all(np.abs(w0) <= bound)
        assert np.abs(w0).max() > 0.8 * bound  # actually fills the range
        np.testing.assert_array_equal(params.tensors["layer0.bias"], 0.0)

    def test_conv_fan_in(self):
        spec = cnn_spec((3, 8, 8), (4,), 2, kernel=3)
        params = init_params(spec, 0)
        bound = np.sqrt(6.0 / (3 * 3 * 3))
        assert np.all(np.abs(params.tensors["layer0.weight"]) <= bound)

    def test_seed_determinism(self):
        spec = mlp_spec((5,), (4,), 3)
        a = init_params(spec, 7)
        b = init_params(spec, 7)
        c = init_params(spec, 8)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
        assert any(
            not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors
        )


class TestOverlap:
    def test_extents_are_prefix_blocks(self):
        base = mlp_spec((5,), (6,), 2)
        small = build_pruned_spec(base, 0.5)  # hidden width 3
        overlap_map(base, small)
        shapes = param_shapes(small)
        assert shapes["layer0.weight"] == (3, 5)
        assert shapes["layer2.weight"] == (2, 3)

    def test_extract_then_embed_roundtrip(self):
        base = cnn_spec((2, 6, 6), (4,), 3, dense_width=8)
        small_spec = build_pruned_spec(base, 0.5)
        overlap_map(base, small_spec)
        shapes = param_shapes(small_spec)
        large = init_params(base, 1)
        small = extract_overlap(large, small_spec)
        assert small.layout is small_spec.layout
        for name, extent in shapes.items():
            assert small.tensors[name].shape == extent
        # writing the extracted blocks back at their slices is a no-op
        back = large.copy()
        for name, extent in shapes.items():
            back.tensors[name][tuple(slice(0, n) for n in extent)] = small.tensors[name]
        for name in large.tensors:
            np.testing.assert_array_equal(back.tensors[name], large.tensors[name])

    def test_incompatible_models_rejected(self):
        a = mlp_spec((5,), (6,), 2)
        b = mlp_spec((5,), (6, 4), 2)
        with pytest.raises(DimensionError):
            overlap_map(a, b)
        c = build_pruned_spec(a, 0.5)
        with pytest.raises(DimensionError):
            overlap_map(c, a)  # small/large swapped


class TestFlatRepresentation:
    def test_tensors_cannot_be_rebound(self):
        params = init_params(mlp_spec((4,), (3,), 2), 0)
        with pytest.raises(TypeError):
            params.tensors["layer0.bias"] = np.ones(3)
        with pytest.raises(TypeError):
            del params.tensors["layer0.bias"]

    def test_an_in_place_write_shows_in_the_vector(self):
        spec = mlp_spec((4,), (3,), 2)
        params = init_params(spec, 0)
        params.tensors["layer0.bias"][1] = 7.5
        start, _, _ = spec.layout.spans["layer0.bias"]
        assert params.flat[start + 1] == 7.5
        params.flat[:] = 0.0
        assert not any(t.any() for t in params.tensors.values())

    def test_copy_shares_no_memory(self):
        params = init_params(cnn_spec((1, 6, 6), (2,), 3, dense_width=4), 2)
        copied = params.copy()
        assert copied.layout is params.layout
        assert copied.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(copied.flat, params.flat)
        for name, tensor in copied.tensors.items():
            assert not np.shares_memory(tensor, params.tensors[name])

    def test_from_tensors_copies_hand_built_extents(self):
        w, b = np.arange(6.0).reshape(2, 3), np.array([1, 2], dtype=np.int32)
        params = ModelParams.from_tensors({"w": w, "b": b})
        assert list(params.layout.spans) == ["w", "b"]
        assert params.layout.spans["b"] == (6, 8, (2,))
        assert params.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0]
        assert not np.shares_memory(params.tensors["w"], w)
        assert params.tensors["b"].dtype == np.float64

    def test_layout_check_names_the_first_difference(self):
        layout = ParamLayout({"w": (2, 3), "b": (2,)})
        layout.check(ParamLayout({"w": (2, 3), "b": (2,)}))
        with pytest.raises(DimensionError, match=r"w: expected shape \(2, 3\), got \(3, 2\)"):
            layout.check(ParamLayout({"w": (3, 2), "b": (2,)}))
        with pytest.raises(DimensionError, match="missing parameter tensor 'b'"):
            layout.check(ParamLayout({"w": (2, 3)}))
        with pytest.raises(DimensionError, match=r"unexpected parameter tensors: \['c'\]"):
            layout.check(ParamLayout({"w": (2, 3), "b": (2,), "c": (1,)}))
        with pytest.raises(DimensionError, match="order"):
            layout.check(ParamLayout({"b": (2,), "w": (2, 3)}))


class TestFlattenAndCheckpoint:
    def test_checkpoint_roundtrip_preserves_bits(self, tmp_path):
        rng = np.random.default_rng(33)
        specs = [build_pruned_spec(mlp_spec((7,), (6, 5), 3), 0.8)]
        for _ in range(8):
            classes = int(rng.integers(2, 6))
            flat_shape = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(1, 4)))
            mlp = mlp_spec(flat_shape, tuple(rng.integers(1, 9, size=rng.integers(0, 3))), classes)
            side = int(rng.integers(4, 9))
            cnn = cnn_spec(
                (int(rng.integers(1, 4)), side, side),
                tuple(rng.integers(1, 6, size=rng.integers(1, 3))),
                classes,
                kernel=int(rng.choice([1, 3])),
                dense_width=int(rng.integers(1, 9)),
            )
            for base in (mlp, cnn):
                specs += [base, build_pruned_spec(base, float(rng.uniform(0.05, 1.0)))]
        for i, spec in enumerate(specs):
            again = spec_from_dict(spec_to_dict(spec))
            assert again == spec
            assert again.layout.spans == spec.layout.spans
            params = init_params(spec, i)
            path = tmp_path / f"model{i}.npz"
            save_checkpoint(path, spec, params)
            spec2, params2 = load_checkpoint(path)
            assert spec2 == spec
            assert params2.flat.tobytes() == params.flat.tobytes()

    def test_checkpoint_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, __header__=np.array('{"format": "something-else"}'), a=np.zeros(3))
        with pytest.raises(DimensionError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda t: t.pop("layer2.bias"), "missing parameter tensor 'layer2.bias'"),
            (lambda t: t.update(extra=np.zeros(2)), r"unexpected parameter tensors: \['extra'\]"),
            (lambda t: t.update({"layer0.weight": np.zeros((6, 8))}), r"layer0\.weight: expected shape"),
        ],
        ids=["missing", "extra", "wrong-shape"],
    )
    def test_checkpoint_tensors_are_checked_against_the_spec(self, tmp_path, change, message):
        spec = mlp_spec((7,), (6,), 3)
        path = tmp_path / "model.npz"
        save_checkpoint(path, spec, init_params(spec, 1))
        with np.load(path) as archive:
            tensors = {name: archive[name] for name in archive.files}
        change(tensors)
        np.savez(path, **tensors)
        with pytest.raises(DimensionError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "change,message",
        [
            (in_header(lambda h: h.pop("spec")), "a model spec needs exactly the keys"),
            (in_header(lambda h: h["spec"].pop("class_count")), "a model spec needs exactly the keys"),
            (in_header(lambda h: h["spec"]["layers"][0].pop("width")), "a layer needs exactly the keys"),
            (layer_update(0, dilation=1), "a layer needs exactly the keys"),
            (spec_update(layers=5), "layers must be a list, got 5"),
            (layer_update(0, width="2"), "layer 0 width must be an integer"),
            (layer_update(2, base_width=0), "layer 2 base_width must be an integer"),
            (layer_update(0, kernel=True), "layer 0 kernel must be an integer"),
            (layer_update(1, stride=0), "layer 1 stride must be an integer of at least 1"),
            (layer_update(0, padding=-1), "layer 0 padding must be an integer of at least 0"),
            (layer_update(1, kind="gelu"), "layer 1 unknown layer kind 'gelu'"),
            (layer_update(1, width=4), "layer 1 width does not apply to a relu layer, got 4"),
            (spec_update(input_shape="7"), "input_shape must be a list of integers"),
            (spec_update(input_shape=[0]), "an input_shape entry must be an integer of at least 1"),
            (spec_update(class_count=4), "model must end in a dense layer with 4 units"),
            (spec_update(class_count=3.0), "class_count must be an integer"),
            (spec_update(pruning_rate=1.5), r"pruning_rate must be a number in \(0, 1\]"),
            (lambda t: t.pop("__header__"), "not a recognised checkpoint file"),
            (lambda t: t.update(__header__=np.array("{")), "not a recognised checkpoint file"),
            (lambda t: t.update(__header__=np.array("[]")), "not a recognised checkpoint file"),
        ],
        ids=[
            "no-spec", "spec-without-class-count", "layer-without-width", "layer-with-unknown-key",
            "layers-not-a-list", "width-a-string", "base-width-zero", "kernel-a-bool", "stride-zero",
            "negative-padding", "unknown-kind", "relu-with-width", "input-shape-a-string", "input-shape-zero",
            "wrong-class-count", "class-count-a-float", "rate-out-of-range", "no-header",
            "header-not-json", "header-a-list",
        ],
    )
    def test_malformed_checkpoint_header_is_named(self, tmp_path, change, message):
        # a checkpoint is read from outside: a bad header is a DimensionError
        # naming the file, not a KeyError, a TypeError or a silent load
        spec = mlp_spec((7,), (6,), 3)
        path = tmp_path / "model.npz"
        save_checkpoint(path, spec, init_params(spec, 1))
        with np.load(path) as archive:
            tensors = {name: archive[name] for name in archive.files}
        change(tensors)
        np.savez(path, **tensors)
        with pytest.raises(DimensionError, match=f"^{re.escape(str(path))}: {message}"):
            load_checkpoint(path)

    def test_checkpoint_tensors_load_in_the_spec_order(self, tmp_path):
        spec = mlp_spec((7,), (6,), 3)
        params = init_params(spec, 2)
        path = tmp_path / "model.npz"
        save_checkpoint(path, spec, params)
        with np.load(path) as archive:
            tensors = {name: archive[name] for name in reversed(archive.files)}
        np.savez(path, **tensors)
        _, loaded = load_checkpoint(path)
        assert list(loaded.tensors) == list(spec.layout.spans)
        assert loaded.flat.tobytes() == params.flat.tobytes()

    def test_float32_checkpoint_loads_as_float64(self, tmp_path):
        spec = mlp_spec((7,), (6,), 3)
        params = init_params(spec, 4)
        path = tmp_path / "model.npz"
        save_checkpoint(path, spec, params)
        with np.load(path) as archive:
            tensors = {
                name: archive[name] if name == "__header__" else archive[name].astype(np.float32)
                for name in archive.files
            }
        np.savez(path, **tensors)
        _, loaded = load_checkpoint(path)
        assert loaded.flat.dtype == np.float64
        for name, tensor in params.tensors.items():
            assert loaded.tensors[name].tobytes() == tensor.astype(np.float32).astype(np.float64).tobytes()
