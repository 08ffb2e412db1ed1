"""Experiment configuration: every setting declared once, a strict schema, a byte-stable echo.

Configs are nested YAML documents.  Every key has a default, every value is
type- and range-checked, and unknown keys are rejected with their dotted path
-- a silently ignored typo ("lerning_rate") is the easiest way to publish a
result that nobody can reproduce.  The resolved form (all defaults made
explicit) can be written back out and re-run to reproduce a run exactly.

Each setting is declared once, with its dotted YAML path, its kind, its
bounds and its default (a :class:`Setting`): the settings a run needs as the
fields of :class:`FedConfig` (see :func:`setting`), the data, fleet, model
and output settings in ``SETTINGS`` below.  :func:`coerce` checks a value
against its declaration both when a YAML file is resolved and when
``FedConfig`` validates itself, so the declarations are the only place a
bound is enforced.  They give the known keys, the defaults, the checks, the
resolved mapping and the ``FedConfig`` a file resolves to.  The named random
streams that every seeded draw of a run takes (:func:`stream_seed`) are
declared here too, beside the master seed they derive from.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from fedsim.clustering import ClientProfile, apply_durations, load_durations
from fedsim.data import DISTILLATION_KINDS, LabeledDataset, load_image_directory, make_blobs
from fedsim.errors import ConfigError
from fedsim.models import ModelSpec, cnn_spec, mlp_spec

_BOUNDS = (
    ("gt", ">", operator.gt),
    ("ge", ">=", operator.ge),
    ("lt", "<", operator.lt),
    ("le", "<=", operator.le),
)


@dataclass(frozen=True)
class Setting:
    """One config setting.

    ``kind`` is ``int``, ``float``, ``bool``, ``str`` or a tuple of allowed
    strings; with ``many`` the setting is a list of such values.  A setting
    whose default is ``None`` may be null.  ``gt``/``ge``/``lt``/``le`` are
    open and closed bounds on a number (on every entry of a list).
    """

    path: str
    kind: object
    default: object = None
    many: bool = False
    gt: float | None = None
    ge: float | None = None
    lt: float | None = None
    le: float | None = None


def setting(path: str, kind, default=None, **declaration):
    """A dataclass field whose default and metadata come from one declaration."""

    return field(default=default, metadata={"setting": Setting(path, kind, default, **declaration)})


def coerce(setting: Setting, value, where: str, entry_paths: bool = True):
    """``value`` in the setting's kind (ints widen to floats, lists stay lists).

    Raises :class:`ConfigError` at ``where`` when the value does not fit.  A
    bad list entry is reported at ``where[i]``, or at ``where`` itself when
    ``entry_paths`` is false.
    """

    if value is None and setting.default is None:
        return None
    if not setting.many:
        return _coerce_one(setting, value, where)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"expected a list, got {value!r}", field=where)
    return [
        _coerce_one(setting, v, f"{where}[{i}]" if entry_paths else where)
        for i, v in enumerate(value)
    ]


def _coerce_one(setting: Setting, value, where: str):
    kind = setting.kind
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"expected true or false, got {value!r}", field=where)
        return value
    if kind is str or isinstance(kind, tuple):
        if not isinstance(value, str):
            raise ConfigError(f"expected a string, got {value!r}", field=where)
        if isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"must be one of {kind}, got {value!r}", field=where)
        return value
    if isinstance(value, bool):
        raise ConfigError("expected a number, got a boolean", field=where)
    if kind is int and not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", field=where)
    if not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", field=where)
    value = kind(value)
    for name, sign, holds in _BOUNDS:
        limit = getattr(setting, name)
        if limit is not None and not holds(value, limit):
            raise ConfigError(f"must be {sign} {limit}, got {value}", field=where)
    return value


ALGORITHMS = ("fedtsa", "fedavg", "fedprox", "heterofl")
STAGE1_WEIGHTINGS = ("uniform", "data_size")
PARTITION_MODES = ("iid", "dirichlet")

# Disjoint random streams spawned off the master seed.  Each consumer gets its
# own spawn key so adding rounds, clients or draws never shifts another
# stream's values.
_STREAM_INIT = 0  # (stream, cluster_id) - per-cluster model init
_STREAM_LOCAL = 1  # (stream, client_id, round) - minibatch order per client
_STREAM_PARTITION = 2
_STREAM_HOLDOUT = 3
_STREAM_DISTILL = 4  # (stream, round) when resampling, (stream, 0) otherwise
_STREAM_PROFILE = 5
_STREAM_DATASET = 6  # blobs generation, drawn by build_datasets below


def stream_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    """A named, independent random stream derived from the master seed."""

    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))


@dataclass(frozen=True)
class FedConfig:
    """Everything a run needs besides the data, the model and the clients.

    Defaults follow the full protocol (batch 100, 100 local epochs, learning
    rate 0.03, 100 rounds, temperature 5, one global distillation epoch,
    200 distillation samples); desk-scale runs override the counts, not the
    structure.  Each field declares its config path, kind, bounds and
    default once (see :class:`Setting`).
    """

    algorithm: str = setting("training.algorithm", ALGORITHMS, "fedtsa")
    rounds: int = setting("training.rounds", int, 100, ge=0)
    local_epochs: int = setting("training.local_epochs", int, 100, ge=0)
    batch_size: int = setting("training.batch_size", int, 100, ge=1)
    learning_rate: float = setting("training.learning_rate", float, 0.03, gt=0.0)
    stage1_weighting: str = setting("training.stage1_weighting", STAGE1_WEIGHTINGS, "uniform")

    # Stage-2 mutual distillation
    temperature: float = setting("distillation.temperature", float, 5.0, gt=0.0)
    global_epochs: int = setting("distillation.global_epochs", int, 1, ge=1)
    include_self_in_consensus: bool = setting("distillation.include_self", bool, True)
    distill_kind: str = setting("distillation.source", DISTILLATION_KINDS, "holdout")
    distill_count: int = setting("distillation.count", int, 200, ge=1)
    distill_prompts: tuple[str, ...] = setting("distillation.prompts", str, (), many=True)
    distill_directory: str | None = setting("distillation.directory", str)
    distill_resample: bool = setting("distillation.resample", bool, False)
    holdout_count: int | None = setting("distillation.holdout_count", int, ge=1)

    # baselines
    fedprox_mu: float = setting("training.fedprox_mu", float, 0.01, ge=0.0)
    homogeneous_pruning: float = setting(
        "training.homogeneous_pruning", float, 1.0, gt=0.0, le=1.0
    )

    # data partitioning
    partition_mode: str = setting("dataset.partition", PARTITION_MODES, "iid")
    dirichlet_alpha: float = setting("dataset.dirichlet_alpha", float, 0.6, gt=0.0)

    # profiling and clustering
    workload_units: float = setting("clients.workload_units", float, 10.0, gt=0.0)
    profile_noise_sd: float = setting(
        "clients.profile_noise_sd", float, 0.05, ge=0.0, lt=1.0 / 3.0
    )
    kde_bandwidth: float | None = setting("clustering.bandwidth", float, gt=0.0)
    rate_ladder: tuple[float, ...] | None = setting(
        "clustering.rate_ladder", float, many=True, gt=0.0, le=1.0
    )
    refine_kde: bool = setting("clustering.refine", bool, True)

    master_seed: int = setting("seed", int, 0, ge=0)

    @staticmethod
    def path(name: str) -> str:
        """The dotted config key that sets field ``name``."""

        return FedConfig.__dataclass_fields__[name].metadata["setting"].path

    def validate(self) -> None:
        """Check every field against its declaration, then the cross-field rules.

        Errors name the field; a bad list entry is reported at the list.
        """

        for f in fields(self):
            coerce(f.metadata["setting"], getattr(self, f.name), f.name, entry_paths=False)
        if self.distill_kind == "directory" and not self.distill_directory:
            raise ConfigError(
                "required when distill_kind is 'directory'", field="distill_directory"
            )
        if self.rate_ladder is not None and not self.rate_ladder:
            raise ConfigError("must be non-empty when set", field="rate_ladder")


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
    if train.input_shape != test.input_shape:
        raise ConfigError(
            f"{root}: train/ samples of shape {train.input_shape} and test/ samples of shape "
            f"{test.input_shape} differ",
            field="dataset.directory",
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
