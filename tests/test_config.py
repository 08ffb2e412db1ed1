"""Config layer: strict validation, explicit defaults, reproducible echo.

The per-setting cases are generated from the declarations themselves, so a
setting added later is covered without touching this file.  Each bad value
is tried through ``resolve_config`` (the error names the dotted path) and,
for the settings ``FedConfig`` holds, through ``FedConfig.validate`` (the
error names the field); a bad list entry is named at its index either way.
"""

import copy
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedsim.config import (
    SETTINGS,
    ExperimentConfig,
    FedConfig,
    build_datasets,
    build_model_spec,
    build_profiles,
    coerce,
    load_config_dict,
    resolve_config,
)
from fedsim.errors import ConfigError

FED_FIELD = {f.metadata["setting"].path: f.name for f in fields(FedConfig)}


def minimal_raw(**extra) -> dict:
    raw = {"clients": {"count": 4}}
    raw.update(extra)
    return raw


def write_config(tmp_path, raw, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def raw_with(path, value, raw=None):
    """``raw`` (a minimal config by default) with ``value`` written at the dotted ``path``."""

    raw = copy.deepcopy(raw) if raw is not None else minimal_raw()
    section, _, key = path.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[key] = value
    return raw


# ---------------------------------------------------------------- defaults


def test_minimal_config_resolves():
    cfg = resolve_config(minimal_raw())
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.fed.master_seed == 0
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
    assert resolved["output"]["write_checkpoints"] is False
    assert resolved["clustering"] == {"bandwidth": None, "rate_ladder": None, "refine": True}


def test_readme_reference_lists_every_setting_with_its_default():
    # the YAML block of the README's Configuration section is the reference:
    # a setting added or deleted without its line there fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    block = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
    documented = {}
    for key, value in block.items():
        if isinstance(value, dict):
            documented.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            documented[key] = value
    declared = {
        s.path: list(s.default) if isinstance(s.default, tuple) else s.default for s in SETTINGS
    }
    assert documented == declared


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
    assert err.value.field == "clustering.rate_ladder[1]"

    raw = minimal_raw(distillation={"source": "directory"})
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == "distillation.directory"


def test_directory_dataset_requires_a_directory():
    raw = minimal_raw(dataset={"source": "directory"})
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == "dataset.directory"


# ----------------------------------------------------- every setting, by kind


def wrong_types(s):
    """Single values of the wrong type for the setting's kind."""

    if s.kind is bool:
        bad = [1, "yes"]
    elif s.kind is str or isinstance(s.kind, tuple):
        bad = [5]
    elif s.kind is int:
        bad = ["x", True, 1.5]
    else:
        bad = ["x", False]
    return bad if s.default is None else bad + [None]


def nudge(s, value, direction):
    """The next value of the setting's kind above (+1) or below (-1) ``value``."""

    if s.kind is int:
        return value + direction
    return float(np.nextafter(value, direction * np.inf))


def edges(s):
    """(just outside, just inside) a pair of values for each bound of a number."""

    pairs = []
    bounds = ((s.gt, -1, False), (s.ge, -1, True), (s.lt, 1, False), (s.le, 1, True))
    for bound, outward, closed in bounds:
        if bound is not None:
            bound = s.kind(bound)
            if closed:
                pairs.append((nudge(s, bound, outward), bound))
            else:
                pairs.append((bound, nudge(s, bound, -outward)))
    return pairs


def past_bounds(s):
    """Single values just outside each bound (or not among the choices)."""

    if isinstance(s.kind, tuple):
        return ["not-a-choice"]
    return [outside for outside, _ in edges(s)]


def bad_cases(s):
    """(value, dotted path of the error, field-name error) for one setting.

    A bad list entry is named at its index, whichever dataclass holds the list.
    """

    name = FED_FIELD.get(s.path)
    singles = wrong_types(s) + past_bounds(s)
    if not s.many:
        return [(v, s.path, name) for v in singles]
    return [("x" if s.kind is not str else 5, s.path, name)] + [
        ([v], f"{s.path}[0]", name and f"{name}[0]") for v in singles if v is not None
    ]


CASES = [(s, *case) for s in SETTINGS for case in bad_cases(s)]


def test_each_path_is_declared_once():
    assert len({s.path for s in SETTINGS}) == len(SETTINGS)


@pytest.mark.parametrize(
    "s, value, path, name", CASES, ids=[f"{c[0].path}={c[1]!r}" for c in CASES]
)
def test_bad_value_is_rejected_at_its_path(s, value, path, name):
    with pytest.raises(ConfigError) as err:
        resolve_config(raw_with(s.path, value))
    assert err.value.field == path
    if name is not None:
        with pytest.raises(ConfigError) as err:
            FedConfig(**{FED_FIELD[s.path]: value}).validate()
        assert err.value.field == name


@pytest.mark.parametrize("s", [s for s in SETTINGS if edges(s)], ids=lambda s: s.path)
def test_values_on_the_inner_side_of_each_bound_pass(s):
    for _, value in edges(s):
        given = [value] if s.many else value
        assert coerce(s, given, s.path) == given


def test_ints_widen_to_floats_and_lists_stay_lists():
    cfg = resolve_config(raw_with("clients.workload_units", 10))
    assert cfg.resolved["clients"]["workload_units"] == 10.0
    assert isinstance(cfg.fed.workload_units, float)
    cfg = resolve_config(raw_with("clustering.rate_ladder", (1, 0.5)))
    assert cfg.resolved["clustering"]["rate_ladder"] == [1.0, 0.5]
    assert cfg.fed.rate_ladder == (1.0, 0.5)


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
    overrides = {"seed": 13, "training.algorithm": "fedavg", "output.directory": "runs/x"}
    cfg = resolve_config(raw, overrides)
    assert cfg.fed.master_seed == 13
    assert cfg.fed.algorithm == "fedavg"
    assert cfg.output["directory"] == "runs/x"
    assert cfg.fed.rounds == 2  # untouched
    assert raw == minimal_raw(training={"rounds": 2})  # the file's mapping is not edited


def test_overrides_leave_absent_values_alone():
    raw = minimal_raw(seed=5)
    cfg = resolve_config(raw, {})
    assert cfg.fed.master_seed == 5
    assert cfg.fed.algorithm == "fedtsa"
    assert cfg.echo_text() == resolve_config(raw).echo_text()


def test_overrides_tolerate_null_sections():
    raw = {"clients": {"count": 2}, "training": None, "output": None}
    cfg = resolve_config(raw, {"training.algorithm": "heterofl", "output.directory": "o"})
    assert cfg.fed.algorithm == "heterofl"
    assert cfg.output["directory"] == "o"


# an override only needs a section's key to exist when the section points there
OVERRIDE_BASE = {
    "clients": {"count": 4},
    "dataset": {"directory": "data"},
    "distillation": {"directory": "distil"},
}


def other_entry(s, default):
    """A legal value of the setting's kind other than ``default``."""

    if isinstance(s.kind, tuple):
        return next(choice for choice in s.kind if choice != default)
    if s.kind is bool:
        return not default
    if s.kind is str:
        return f"other-{default}"
    if s.kind is int:
        return 2 if default is None else default + 1
    return 0.5 if default is None else default / 2  # inside every declared float bound


def other_value(s):
    """One legal value of the setting other than its default, or None when it has none."""

    if isinstance(s.kind, tuple) and len(s.kind) == 1:
        return None
    if s.path == "clients.speed_factors":
        return [0.5] * OVERRIDE_BASE["clients"]["count"]
    if not s.many:
        return other_entry(s, s.default)
    return [other_entry(s, d) for d in s.default or [None]]


OVERRIDABLE = [(s, other_value(s)) for s in SETTINGS if other_value(s) is not None]


@pytest.mark.parametrize("s, value", OVERRIDABLE, ids=[s.path for s, _ in OVERRIDABLE])
def test_an_override_resolves_as_the_same_value_in_the_file(s, value):
    overridden = resolve_config(OVERRIDE_BASE, {s.path: value})
    written = resolve_config(raw_with(s.path, value, OVERRIDE_BASE))
    assert overridden.echo_text() == written.echo_text()
    assert overridden.fed == written.fed
    assert overridden.echo_text() != resolve_config(OVERRIDE_BASE).echo_text()


@pytest.mark.parametrize("path", ["sede", "training.lerning_rate", "trainning.rounds", "training"])
def test_an_unknown_override_path_is_rejected_at_that_path(path):
    with pytest.raises(ConfigError, match="unknown key") as err:
        resolve_config(minimal_raw(), {path: 1})
    assert err.value.field == path


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
