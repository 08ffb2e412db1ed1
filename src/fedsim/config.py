"""Experiment configuration: strict schema, explicit defaults, byte-stable echo.

Configs are nested YAML documents.  Every key has a default, every value is
type- and range-checked, and unknown keys are rejected with their dotted path
-- a silently ignored typo ("lerning_rate") is the easiest way to publish a
result that nobody can reproduce.  The resolved form (all defaults made
explicit) can be written back out and re-run to reproduce a run exactly.

Every setting is declared once: the settings a run needs on
:class:`~fedsim.engine.FedConfig`, the data, fleet, model and output settings
in ``SETTINGS`` below.  The declarations give the known keys, the defaults,
the checks, the resolved mapping and the ``FedConfig`` a file resolves to.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from fedsim.clustering import ClientProfile, apply_durations, load_durations
from fedsim.data import LabeledDataset, load_image_directory, make_blobs
from fedsim.engine import _STREAM_DATASET, FedConfig, stream_seed
from fedsim.errors import ConfigError
from fedsim.models import ModelSpec, cnn_spec, mlp_spec
from fedsim.settings import Setting, coerce

DATASET_SOURCES = ("blobs", "directory")
MODEL_KINDS = ("auto", "mlp", "cnn")

# the settings FedConfig holds, by field name
_FED_SETTINGS = {f.name: f.metadata["setting"] for f in fields(FedConfig)}
_FED_PATHS = {s.path for s in _FED_SETTINGS.values()}

# every setting: FedConfig's, then the ones only the builders below read
SETTINGS = (
    *_FED_SETTINGS.values(),
    # Stage 2 has one loss; nothing reads this, but bench/workloads.py writes it
    Setting("distillation.loss", ("kl_only",), "kl_only"),
    Setting("dataset.source", DATASET_SOURCES, "blobs"),
    Setting("dataset.directory", str),
    Setting("dataset.classes", int, 3, ge=2),
    Setting("dataset.train_per_class", int, 60, ge=1),
    Setting("dataset.test_per_class", int, 30, ge=1),
    Setting("dataset.dim", int, 8, ge=1),
    Setting("dataset.center_spread", float, 3.0, gt=0.0),
    Setting("dataset.noise_sd", float, 1.0, gt=0.0),
    Setting("clients.count", int, ge=1),
    Setting("clients.speed_factors", float, many=True, gt=0.0),
    Setting("clients.durations_file", str),
    Setting("model.kind", MODEL_KINDS, "auto"),
    Setting("model.hidden", int, (32,), many=True, ge=1),
    Setting("model.conv_channels", int, (8, 16), many=True, ge=1),
    Setting("model.kernel", int, 3, ge=1),
    Setting("model.pool", int, 2, ge=1),
    Setting("model.dense_width", int, 64, ge=1),
    Setting("output.directory", str),
    Setting("output.write_checkpoints", bool, False),
)
_PATHS = {s.path for s in SETTINGS}
_SECTIONS = sorted({p.split(".")[0] for p in _PATHS if "." in p})
_TOP_LEVEL = sorted({p.split(".")[0] for p in _PATHS})


@dataclass
class ExperimentConfig:
    """A fully resolved experiment: every default explicit, everything checked."""

    resolved: dict
    dataset: dict
    clients: dict
    model: dict
    output: dict
    fed: FedConfig

    def echo_text(self) -> str:
        """The canonical YAML form; re-running it reproduces the run."""

        return yaml.safe_dump(self.resolved, sort_keys=True, default_flow_style=False)


def load_config_dict(path) -> dict:
    """Raw nested mapping from a YAML file, with parse errors located."""

    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"{p}: not valid YAML{where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be a mapping of sections")
    return raw


def _blocks(raw: dict) -> dict[str, dict]:
    """Each section's mapping (top-level settings under ``""``), unknown keys rejected."""

    for key in raw:
        if key not in _TOP_LEVEL:
            raise ConfigError(f"unknown key (known: {', '.join(_TOP_LEVEL)})", field=str(key))
    blocks = {"": raw}
    for section in _SECTIONS:
        block = raw.get(section)
        block = {} if block is None else block
        if not isinstance(block, dict):
            raise ConfigError("expected a mapping of settings", field=section)
        for key in block:
            if f"{section}.{key}" not in _PATHS:
                known = sorted(p.split(".")[1] for p in _PATHS if p.startswith(f"{section}."))
                raise ConfigError(
                    f"unknown key (known: {', '.join(known)})", field=f"{section}.{key}"
                )
        blocks[section] = block
    return blocks


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping and make every default explicit.

    Errors name the dotted path.  A bad entry of a list that ``FedConfig``
    holds is reported at the list, as :meth:`FedConfig.validate` reports it.
    """

    blocks = _blocks(raw)
    values = {}
    for s in SETTINGS:
        section, _, key = s.path.rpartition(".")
        value = blocks[section].get(key, s.default)
        values[s.path] = coerce(s, value, s.path, entry_paths=s.path not in _FED_PATHS)

    if values["dataset.source"] == "directory" and values["dataset.directory"] is None:
        raise ConfigError("required when dataset.source is 'directory'", field="dataset.directory")
    count, speed_factors = values["clients.count"], values["clients.speed_factors"]
    if speed_factors == []:
        raise ConfigError("must list at least one speed factor", field="clients.speed_factors")
    if speed_factors is not None and count is not None and count != len(speed_factors):
        raise ConfigError(
            f"count ({count}) disagrees with the {len(speed_factors)} speed factors",
            field="clients.count",
        )
    if speed_factors is None:
        if count is None:
            raise ConfigError("set clients.count or clients.speed_factors", field="clients.count")
        values["clients.speed_factors"] = [1.0] * count
    values["clients.count"] = len(values["clients.speed_factors"])

    held = {name: values[s.path] for name, s in _FED_SETTINGS.items()}
    fed = FedConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in held.items()})
    try:
        fed.validate()
    except ConfigError as exc:
        raise ConfigError(exc.message, field=_FED_SETTINGS[exc.field].path) from exc

    resolved: dict = {}
    for path, value in values.items():
        section, _, key = path.rpartition(".")
        (resolved.setdefault(section, {}) if section else resolved)[key] = value
    return ExperimentConfig(
        resolved=resolved,
        dataset=resolved["dataset"],
        clients=resolved["clients"],
        model=resolved["model"],
        output=resolved["output"],
        fed=fed,
    )


def apply_overrides(
    raw: dict, seed: int | None = None, algorithm: str | None = None, out: str | None = None
) -> dict:
    """Fold command-line overrides into a raw config mapping.

    A section that is present but not a mapping is left as it is, for
    :func:`resolve_config` to reject as it rejects it without an override.
    """

    if seed is not None:
        raw["seed"] = seed
    for section, key, value in (("training", "algorithm", algorithm), ("output", "directory", out)):
        if value is None:
            continue
        if raw.get(section) is None:
            raw[section] = {}
        if isinstance(raw[section], dict):
            raw[section][key] = value
    return raw


def build_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """The train/test pair a config describes.

    ``blobs`` generates from the config's seed (its own stream, so engine
    randomness is unaffected); ``directory`` expects ``train/`` and ``test/``
    subdirectories, each with one folder of samples per class.
    """

    ds = cfg.dataset
    if ds["source"] == "blobs":
        return make_blobs(
            ds["classes"],
            ds["train_per_class"],
            ds["test_per_class"],
            ds["dim"],
            stream_seed(cfg.fed.master_seed, _STREAM_DATASET),
            center_spread=ds["center_spread"],
            noise_sd=ds["noise_sd"],
        )
    root = Path(ds["directory"])
    train_dir, test_dir = root / "train", root / "test"
    if not train_dir.is_dir() or not test_dir.is_dir():
        raise ConfigError(
            f"{root} must contain train/ and test/ directories", field="dataset.directory"
        )
    train = load_image_directory(train_dir)
    test = load_image_directory(test_dir)
    if train.class_count != test.class_count or train.class_names != test.class_names:
        raise ConfigError(
            f"{root}: train/ and test/ disagree on classes", field="dataset.directory"
        )
    return train, test


def build_profiles(cfg: ExperimentConfig) -> list[ClientProfile]:
    """Client fleet from speed factors, with durations applied when given.

    A durations file fixes measured durations up front; otherwise the engine
    profiles the fleet itself (speed x workload, seeded noise).
    """

    profiles = [
        ClientProfile(client_id=i, speed_factor=s)
        for i, s in enumerate(cfg.clients["speed_factors"])
    ]
    if cfg.clients["durations_file"]:
        durations = load_durations(cfg.clients["durations_file"])
        profiles = apply_durations(profiles, durations)
    return profiles


def build_model_spec(cfg: ExperimentConfig, train: LabeledDataset) -> ModelSpec:
    """The full-width architecture for a dataset: MLP for flat features,
    small convnet for channel-first images; ``model.kind`` overrides."""

    kind = cfg.model["kind"]
    if kind == "auto":
        kind = "cnn" if len(train.input_shape) == 3 else "mlp"
    if kind == "cnn":
        if len(train.input_shape) != 3:
            raise ConfigError(
                f"a convnet needs (channels, height, width) inputs, got {train.input_shape}",
                field="model.kind",
            )
        return cnn_spec(
            train.input_shape,
            tuple(cfg.model["conv_channels"]),
            train.class_count,
            kernel=cfg.model["kernel"],
            pool=cfg.model["pool"],
            dense_width=cfg.model["dense_width"],
        )
    return mlp_spec(train.input_shape, tuple(cfg.model["hidden"]), train.class_count)
