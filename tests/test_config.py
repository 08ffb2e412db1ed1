"""Config layer: strict validation, explicit defaults, reproducible echo."""

import numpy as np
import pytest
import yaml

from fedsim.config import (
    ExperimentConfig,
    apply_overrides,
    build_datasets,
    build_model_spec,
    build_profiles,
    load_config_dict,
    resolve_config,
)
from fedsim.errors import ConfigError


def minimal_raw(**extra) -> dict:
    raw = {"clients": {"count": 4}}
    raw.update(extra)
    return raw


def write_config(tmp_path, raw, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


# ---------------------------------------------------------------- defaults


def test_minimal_config_resolves():
    cfg = resolve_config(minimal_raw())
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.seed == 0
    assert cfg.clients["count"] == 4
    assert cfg.clients["speed_factors"] == [1.0, 1.0, 1.0, 1.0]


def test_training_defaults_match_reference_protocol():
    cfg = resolve_config(minimal_raw())
    assert cfg.fed.rounds == 100
    assert cfg.fed.local_epochs == 100
    assert cfg.fed.batch_size == 100
    assert cfg.fed.learning_rate == pytest.approx(0.03)
    assert cfg.fed.algorithm == "fedtsa"
    assert cfg.fed.stage1_weighting == "uniform"
    assert cfg.fed.fedprox_mu == pytest.approx(0.01)


def test_distillation_defaults_match_reference_protocol():
    cfg = resolve_config(minimal_raw())
    assert cfg.fed.temperature == pytest.approx(5.0)
    assert cfg.fed.global_epochs == 1
    assert cfg.resolved["distillation"]["loss"] == "kl_only"
    assert cfg.fed.distill_kind == "holdout"
    assert cfg.fed.distill_count == 200
    assert cfg.fed.distill_resample is False
    assert cfg.fed.include_self_in_consensus is True


def test_dataset_and_clustering_defaults():
    cfg = resolve_config(minimal_raw())
    assert cfg.dataset["source"] == "blobs"
    assert cfg.dataset["classes"] == 3
    assert cfg.dataset["partition"] == "iid"
    assert cfg.dataset["dirichlet_alpha"] == pytest.approx(0.6)
    assert cfg.fed.kde_bandwidth is None
    assert cfg.fed.rate_ladder is None
    assert cfg.fed.refine_kde is True
    assert cfg.fed.workload_units == pytest.approx(10.0)
    assert cfg.fed.profile_noise_sd == pytest.approx(0.05)


def test_resolved_mapping_spells_out_every_default():
    resolved = resolve_config(minimal_raw()).resolved
    assert resolved["seed"] == 0
    assert resolved["training"]["rounds"] == 100
    assert resolved["distillation"]["temperature"] == pytest.approx(5.0)
    assert resolved["model"]["hidden"] == [32]
    assert resolved["model"]["kind"] == "auto"
    assert resolved["output"]["formats"] == ["jsonl", "csv"]
    assert resolved["output"]["write_checkpoints"] is False
    assert resolved["clustering"] == {"bandwidth": None, "rate_ladder": None, "refine": True}


# ---------------------------------------------------------------- rejection


@pytest.mark.parametrize(
    "raw, path_fragment",
    [
        ({"clients": {"count": 2}, "sede": 1}, "sede"),
        ({"clients": {"count": 2}, "dataset": {"classses": 4}}, "dataset.classses"),
        ({"clients": {"count": 2}, "training": {"lerning_rate": 0.1}}, "training.lerning_rate"),
        ({"clients": {"count": 2, "speeds": [1.0]}}, "clients.speeds"),
        ({"clients": {"count": 2}, "distillation": {"temp": 4}}, "distillation.temp"),
        ({"clients": {"count": 2}, "output": {"format": ["jsonl"]}}, "output.format"),
        ({"clients": {"count": 2}, "distillation": {"kl_direction": "forward"}},
         "distillation.kl_direction"),
        ({"clients": {"count": 2}, "distillation": {"t_squared_rescale": False}},
         "distillation.t_squared_rescale"),
        ({"clients": {"count": 2}, "distillation": {"loss_alpha": 0.5}}, "distillation.loss_alpha"),
    ],
)
def test_unknown_keys_are_rejected_with_dotted_path(raw, path_fragment):
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == path_fragment


@pytest.mark.parametrize(
    "section, key, value, path",
    [
        ("training", "rounds", True, "training.rounds"),
        ("training", "learning_rate", False, "training.learning_rate"),
        ("clients", "workload_units", True, "clients.workload_units"),
    ],
)
def test_booleans_are_not_numbers(section, key, value, path):
    raw = minimal_raw()
    raw.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == path


@pytest.mark.parametrize(
    "section, key, value, path",
    [
        ("training", "learning_rate", 0.0, "training.learning_rate"),
        ("training", "learning_rate", "fast", "training.learning_rate"),
        ("training", "batch_size", 0, "training.batch_size"),
        ("training", "rounds", -1, "training.rounds"),
        ("training", "algorithm", "sgd", "training.algorithm"),
        ("training", "homogeneous_pruning", 0.0, "training.homogeneous_pruning"),
        ("training", "homogeneous_pruning", 1.5, "training.homogeneous_pruning"),
        ("training", "fedprox_mu", -0.1, "training.fedprox_mu"),
        ("dataset", "classes", 1, "dataset.classes"),
        ("dataset", "partition", "random", "dataset.partition"),
        ("dataset", "dirichlet_alpha", 0.0, "dataset.dirichlet_alpha"),
        ("distillation", "loss", "ce_only", "distillation.loss"),
        ("distillation", "loss", "combined", "distillation.loss"),
        ("distillation", "temperature", 0.0, "distillation.temperature"),
        ("distillation", "global_epochs", 0, "distillation.global_epochs"),
        ("distillation", "loss", "mse", "distillation.loss"),
        ("distillation", "source", "imagination", "distillation.source"),
        ("model", "hidden", [0], "model.hidden[0]"),
        ("model", "hidden", ["wide"], "model.hidden[0]"),
        ("clients", "profile_noise_sd", -0.1, "clients.profile_noise_sd"),
        ("output", "formats", ["jsonl", "xml"], "output.formats[1]"),
    ],
)
def test_out_of_range_values_are_rejected(section, key, value, path):
    raw = minimal_raw()
    raw.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == path


def test_seed_must_be_a_nonnegative_integer():
    with pytest.raises(ConfigError) as err:
        resolve_config(minimal_raw(seed=-1))
    assert err.value.field == "seed"
    with pytest.raises(ConfigError):
        resolve_config(minimal_raw(seed="zero"))


def test_engine_level_errors_carry_config_paths():
    # values the section checks let through but the engine config rejects
    raw = minimal_raw(clustering={"rate_ladder": [1.0, 2.0]})
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == "clustering.rate_ladder"

    raw = minimal_raw(distillation={"source": "directory"})
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == "distillation.directory"


def test_directory_dataset_requires_a_directory():
    raw = minimal_raw(dataset={"source": "directory"})
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == "dataset.directory"


# --------------------------------------------------- clients reconciliation


def test_speed_factors_fix_the_client_count():
    cfg = resolve_config({"clients": {"speed_factors": [1.0, 2.0, 0.5]}})
    assert cfg.clients["count"] == 3
    assert cfg.clients["speed_factors"] == [1.0, 2.0, 0.5]


def test_count_and_speed_factors_must_agree():
    raw = {"clients": {"count": 2, "speed_factors": [1.0, 2.0, 0.5]}}
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == "clients.count"


def test_clients_section_is_required():
    with pytest.raises(ConfigError) as err:
        resolve_config({})
    assert err.value.field == "clients.count"


def test_empty_speed_factor_list_is_rejected():
    with pytest.raises(ConfigError) as err:
        resolve_config({"clients": {"speed_factors": []}})
    assert err.value.field == "clients.speed_factors"


def test_nonpositive_speed_factor_is_rejected():
    with pytest.raises(ConfigError) as err:
        resolve_config({"clients": {"speed_factors": [1.0, 0.0]}})
    assert err.value.field == "clients.speed_factors[1]"


# ------------------------------------------------------------------- echo


def test_echo_round_trips_byte_for_byte(tmp_path):
    raw = minimal_raw(
        seed=9,
        training={"rounds": 3, "learning_rate": 0.05},
        dataset={"classes": 4, "partition": "dirichlet"},
    )
    first = resolve_config(raw)
    echoed = write_config(tmp_path, yaml.safe_load(first.echo_text()), "echo.yaml")
    second = resolve_config(load_config_dict(echoed))
    assert second.echo_text() == first.echo_text()
    assert second.fed == first.fed


def test_echo_is_sorted_and_explicit():
    text = resolve_config(minimal_raw()).echo_text()
    lines = [l for l in text.splitlines() if l and not l.startswith(" ")]
    assert lines == sorted(lines)
    assert "rounds: 100" in text
    assert "temperature: 5.0" in text


# -------------------------------------------------------------- overrides


def test_overrides_replace_seed_algorithm_and_output():
    raw = minimal_raw(training={"rounds": 2})
    out = apply_overrides(raw, seed=13, algorithm="fedavg", out="runs/x")
    cfg = resolve_config(out)
    assert cfg.seed == 13
    assert cfg.fed.algorithm == "fedavg"
    assert cfg.output["directory"] == "runs/x"
    assert cfg.fed.rounds == 2  # untouched


def test_overrides_leave_absent_values_alone():
    raw = minimal_raw(seed=5)
    cfg = resolve_config(apply_overrides(raw))
    assert cfg.seed == 5
    assert cfg.fed.algorithm == "fedtsa"


def test_overrides_tolerate_null_sections():
    raw = {"clients": {"count": 2}, "training": None, "output": None}
    cfg = resolve_config(apply_overrides(raw, algorithm="heterofl", out="o"))
    assert cfg.fed.algorithm == "heterofl"
    assert cfg.output["directory"] == "o"


# ------------------------------------------------------------ file loading


def test_load_config_dict_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config_dict(tmp_path / "nope.yaml")


def test_load_config_dict_reports_parse_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("training:\n  rounds: 3\n   learning_rate: 0.5\n")
    with pytest.raises(ConfigError, match=r"line \d+"):
        load_config_dict(path)


def test_load_config_dict_rejects_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config_dict(path)


def test_empty_file_is_an_empty_config(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config_dict(path) == {}


# ---------------------------------------------------------------- builders


def test_build_datasets_blobs_shapes_and_determinism():
    raw = minimal_raw(
        seed=3, dataset={"classes": 4, "train_per_class": 5, "test_per_class": 2, "dim": 6}
    )
    cfg = resolve_config(raw)
    train, test = build_datasets(cfg)
    assert train.features.shape == (20, 6)
    assert test.features.shape == (8, 6)
    assert train.class_count == 4
    again, _ = build_datasets(resolve_config(raw))
    np.testing.assert_array_equal(train.features, again.features)
    other, _ = build_datasets(resolve_config({**raw, "seed": 4}))
    assert not np.array_equal(train.features, other.features)


def _write_sample_tree(root, classes, per_class, shape):
    rng = np.random.default_rng(0)
    for split, n in (("train", per_class), ("test", max(1, per_class // 2))):
        for name in classes:
            d = root / split / name
            d.mkdir(parents=True)
            for i in range(n):
                np.save(d / f"s{i}.npy", rng.normal(size=shape))


def test_build_datasets_directory_round_trip(tmp_path):
    _write_sample_tree(tmp_path, ["ant", "bee"], 3, (2, 4, 4))
    cfg = resolve_config(
        minimal_raw(dataset={"source": "directory", "directory": str(tmp_path)})
    )
    train, test = build_datasets(cfg)
    assert train.class_names == ("ant", "bee")
    assert train.input_shape == (2, 4, 4)
    assert len(train) == 6 and len(test) == 2


def test_build_datasets_directory_needs_both_splits(tmp_path):
    (tmp_path / "train" / "a").mkdir(parents=True)
    cfg = resolve_config(
        minimal_raw(dataset={"source": "directory", "directory": str(tmp_path)})
    )
    with pytest.raises(ConfigError) as err:
        build_datasets(cfg)
    assert err.value.field == "dataset.directory"


def test_build_datasets_directory_class_mismatch(tmp_path):
    _write_sample_tree(tmp_path, ["a", "b"], 2, (3,))
    extra = tmp_path / "train" / "c"
    extra.mkdir()
    np.save(extra / "s0.npy", np.zeros(3))
    cfg = resolve_config(
        minimal_raw(dataset={"source": "directory", "directory": str(tmp_path)})
    )
    with pytest.raises(ConfigError, match="disagree"):
        build_datasets(cfg)


def test_build_model_spec_auto_picks_mlp_for_flat_features():
    cfg = resolve_config(minimal_raw(model={"hidden": [16, 8]}))
    train, _ = build_datasets(cfg)
    spec = build_model_spec(cfg, train)
    kinds = [layer.kind for layer in spec.layers]
    assert "dense" in kinds
    assert "conv" not in kinds


def test_build_model_spec_auto_picks_cnn_for_images(tmp_path):
    _write_sample_tree(tmp_path, ["a", "b"], 2, (1, 8, 8))
    cfg = resolve_config(
        minimal_raw(dataset={"source": "directory", "directory": str(tmp_path)})
    )
    train, _ = build_datasets(cfg)
    spec = build_model_spec(cfg, train)
    assert any(layer.kind == "conv" for layer in spec.layers)


def test_build_model_spec_cnn_refuses_flat_features():
    cfg = resolve_config(minimal_raw(model={"kind": "cnn"}))
    train, _ = build_datasets(cfg)
    with pytest.raises(ConfigError) as err:
        build_model_spec(cfg, train)
    assert err.value.field == "model.kind"


def test_build_profiles_from_speed_factors():
    cfg = resolve_config({"clients": {"speed_factors": [1.0, 2.5]}})
    profiles = build_profiles(cfg)
    assert [p.client_id for p in profiles] == [0, 1]
    assert [p.speed_factor for p in profiles] == [1.0, 2.5]
    assert all(p.measured_duration is None for p in profiles)


def test_build_profiles_applies_durations_file(tmp_path):
    durations = tmp_path / "durations.csv"
    durations.write_text("# client_id,duration\n0,12.5\n1,30.0\n")
    cfg = resolve_config(
        {"clients": {"count": 2, "durations_file": str(durations)}}
    )
    profiles = build_profiles(cfg)
    assert [p.measured_duration for p in profiles] == [12.5, 30.0]
