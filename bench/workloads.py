"""The three benchmark workloads: their configs and the inputs made from a seed.

fedsim's own master seed is 0 in every workload, as in the bundled configs.
The benchmark seed makes what fedsim is handed: the fleet's speed factors
(which client sits in which speed tier, and each factor's jitter) and, for
``cnn-images``, the image set itself.  The work a run does therefore has the
same size on every seed: ``protocol-mlp`` keeps the Dirichlet split of master
seed 0, whose client sizes set the number of SGD steps (12 to 15 per epoch
over master seeds 0-19, a spread that would swamp the timing), and the other
two workloads split IID, where client sizes never depend on a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# Speed-tier multipliers relative to the fastest tier.  Their inverses,
# 1.0 / 0.8 / 0.6, are the rate ladder, so each tier snaps to its own rung.
TIER_SCALE = (1.0, 1.25, 1.0 / 0.6)
RATE_LADDER = [1.0, 0.8, 0.6]


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    rounds: int
    local_epochs: int
    batch_size: int
    learning_rate: float
    tier_sizes: tuple[int, ...]
    classes: int
    train_per_class: int
    test_per_class: int
    holdout: int  # distillation inputs reserved from train (fedtsa only)
    accuracy_floor: float  # final client-weighted accuracy must reach this
    designed_tiers: bool  # clusters must reproduce the tiers exactly
    dataset: dict  # the config's dataset section, less what the fields above give
    model: dict
    images: bool = False  # written by the benchmark, read through source: directory

    @property
    def clients(self) -> int:
        return sum(self.tier_sizes)

    @property
    def fedtsa(self) -> bool:
        return self.algorithm == "fedtsa"


WORKLOADS = {
    w.name: w
    for w in (
        # configs/full-protocol.yaml, cut to 12 of its 100 rounds.
        Workload(
            name="protocol-mlp", algorithm="fedtsa", rounds=12, local_epochs=100,
            batch_size=100, learning_rate=0.03, tier_sizes=(2, 5, 5), classes=10,
            train_per_class=100, test_per_class=40, holdout=200, accuracy_floor=0.6,
            designed_tiers=False,
            dataset={"partition": "dirichlet", "dirichlet_alpha": 0.6, "dim": 12, "center_spread": 2.8},
            model={"hidden": [32]},
        ),
        Workload(
            name="cnn-images", algorithm="fedtsa", rounds=5, local_epochs=4,
            batch_size=10, learning_rate=0.05, tier_sizes=(4, 4, 4), classes=4,
            train_per_class=120, test_per_class=40, holdout=200, accuracy_floor=0.6,
            designed_tiers=True,
            dataset={"partition": "iid"},
            model={"kind": "cnn", "conv_channels": [8, 16], "kernel": 3, "pool": 2, "dense_width": 64},
            images=True,
        ),
        Workload(
            name="heterofl-wide", algorithm="heterofl", rounds=20, local_epochs=1,
            batch_size=10, learning_rate=0.05, tier_sizes=(16, 16, 16), classes=10,
            train_per_class=96, test_per_class=40, holdout=0, accuracy_floor=0.5,
            designed_tiers=True,
            dataset={"partition": "iid", "dim": 64, "center_spread": 1.0},
            model={"hidden": [256, 256]},
        ),
    )
}

# protocol-mlp follows the reference fleet: factors 2.0 / 2.5 / 3.33 and 5 %
# profiling noise, so its clustering lands where the reference's does (one to
# three clusters, depending on the draw).  The designed-tier workloads use
# 0.5 % noise and a fixed KDE bandwidth of 1 s, far below the smallest gap
# between tiers (3.75 s) and far above the spread inside a tier, so their three
# tiers come back as three clusters on every seed.  Silverman's default
# bandwidth does not: on heterofl-wide, refinement splits a 16-client tier in
# 311 of the fleets of seeds 0-999.
PROTOCOL_BASE_FACTOR = 2.0
PROTOCOL_NOISE_SD = 0.05
TIERED_NOISE_SD = 0.005
TIERED_BANDWIDTH = 1.0


@dataclass(frozen=True)
class Fleet:
    speed_factors: list[float]
    tier_of: list[int]  # designed tier per client id, 0 = fastest


def make_fleet(workload: Workload, rng: np.random.Generator) -> Fleet:
    """Speed factors per client id: tier sizes are fixed, the seed picks which
    ids land in which tier, the fastest tier's base factor, and a small
    per-client jitter."""

    tiers = np.repeat(np.arange(len(workload.tier_sizes)), workload.tier_sizes)
    tiers = rng.permutation(tiers)
    if workload.designed_tiers:
        base = rng.uniform(1.5, 3.0)
        jitter = rng.uniform(-0.003, 0.003, size=tiers.size)
    else:
        base = PROTOCOL_BASE_FACTOR
        jitter = rng.uniform(-0.02, 0.02, size=tiers.size)
    factors = [float(base * TIER_SCALE[t] * (1.0 + j)) for t, j in zip(tiers, jitter)]
    return Fleet(factors, [int(t) for t in tiers])


def _class_prototypes(size: int) -> np.ndarray:
    """Four fixed 1 x size x size patterns: horizontal bar, vertical bar,
    diagonal and ring."""

    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    c = (size - 1) / 2.0
    protos = [
        np.exp(-((yy - c) ** 2) / 4.0),
        np.exp(-((xx - c) ** 2) / 4.0),
        np.exp(-((yy - xx) ** 2) / 4.0),
        np.exp(-((np.hypot(yy - c, xx - c) - size / 3.0) ** 2) / 2.0),
    ]
    return np.stack(protos)[:, None, :, :]


IMAGE_SIZE = 16
IMAGE_NOISE_SD = 0.35


def make_images(workload: Workload, rng: np.random.Generator, per_class: int) -> tuple[np.ndarray, np.ndarray]:
    """Noisy, randomly shifted copies of each class pattern, in class order."""

    protos = _class_prototypes(IMAGE_SIZE)
    feats, labels = [], []
    for label in range(workload.classes):
        for _ in range(per_class):
            dy, dx = rng.integers(-2, 3, size=2)
            img = np.roll(protos[label], (int(dy), int(dx)), axis=(1, 2))
            feats.append(img + rng.normal(0.0, IMAGE_NOISE_SD, size=img.shape))
            labels.append(label)
    return np.stack(feats), np.asarray(labels, dtype=np.int64)


def write_image_dir(root: Path, feats: np.ndarray, labels: np.ndarray) -> None:
    """One folder per class, one ``.npy`` per image, as ``dataset.source:
    directory`` reads them."""

    for label in np.unique(labels):
        (root / f"class{label}").mkdir(parents=True, exist_ok=True)
    for i, (x, label) in enumerate(zip(feats, labels)):
        np.save(root / f"class{label}" / f"{i:05d}.npy", x)


@dataclass
class Inputs:
    """Everything one workload run needs, generated from the benchmark seed."""

    workload: Workload
    config_path: Path  # the full run
    setup_config_path: Path  # the same config with training.rounds: 0
    fleet: Fleet
    image_test: tuple[np.ndarray, np.ndarray] | None  # cnn-images only


def workload_rng(workload: Workload, seed: int) -> np.random.Generator:
    index = list(WORKLOADS).index(workload.name)
    return np.random.default_rng([int(seed), index])


def config_dict(workload: Workload, fleet: Fleet, image_dir: Path | None, rounds: int) -> dict:
    w = workload
    dataset = dict(w.dataset)
    if image_dir is not None:
        dataset.update(source="directory", directory=str(image_dir))
    else:
        dataset.update(classes=w.classes, train_per_class=w.train_per_class, test_per_class=w.test_per_class)
    cfg = {
        "seed": 0,
        "dataset": dataset,
        "clients": {
            "speed_factors": fleet.speed_factors,
            "workload_units": 10.0,
            "profile_noise_sd": TIERED_NOISE_SD if w.designed_tiers else PROTOCOL_NOISE_SD,
        },
        "model": w.model,
        "training": {
            "algorithm": w.algorithm, "rounds": rounds, "local_epochs": w.local_epochs,
            "batch_size": w.batch_size, "learning_rate": w.learning_rate,
        },
        "output": {"write_checkpoints": True},
    }
    if w.designed_tiers:
        cfg["clustering"] = {"bandwidth": TIERED_BANDWIDTH, "rate_ladder": RATE_LADDER}
    if w.fedtsa:
        cfg["distillation"] = {
            "source": "holdout", "count": w.holdout, "temperature": 5.0,
            "global_epochs": 1, "loss": "kl_only",
        }
    return cfg


def prepare(workload: Workload, seed: int, work: Path) -> Inputs:
    """Write the configs (and images) for one seed under ``work``."""

    rng = workload_rng(workload, seed)
    fleet = make_fleet(workload, rng)
    image_dir = None
    image_test = None
    if workload.images:
        image_dir = work / "images"
        train = make_images(workload, rng, workload.train_per_class)
        image_test = make_images(workload, rng, workload.test_per_class)
        write_image_dir(image_dir / "train", *train)
        write_image_dir(image_dir / "test", *image_test)
    paths = []
    for name, rounds in (("run.yaml", workload.rounds), ("setup.yaml", 0)):
        path = work / name
        path.write_text(yaml.safe_dump(config_dict(workload, fleet, image_dir, rounds), sort_keys=True))
        paths.append(path)
    return Inputs(workload, paths[0], paths[1], fleet, image_test)


def samples_per_round(workload: Workload, clusters: int) -> int:
    """Samples through forward and backward in one round: the training pool
    times local epochs, plus the distillation inputs once per cluster."""

    train_size = workload.classes * workload.train_per_class
    pool = train_size - (workload.holdout if workload.fedtsa else 0)
    local = pool * workload.local_epochs
    distill = workload.holdout * clusters if workload.fedtsa else 0
    return local + distill
