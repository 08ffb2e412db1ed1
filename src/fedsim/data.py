"""Datasets, client partitioning and distillation-batch sources.

Datasets are plain float64 feature arrays plus integer labels.  Two loaders
are built in:

* ``"blobs"`` -- a seeded synthetic Gaussian-blob classification set.  Class
  centres are drawn once, then train and test sets are sampled around the
  same centres, so both splits come from one distribution.
* a directory path -- one subdirectory per class (class names are the sorted
  subdirectory names); files may be ``.npy`` arrays or binary/ascii netpbm
  images (``.pgm``/``.ppm``).  Integer-typed pixel data is scaled by 1/255;
  float arrays are taken as-is.

Partitioning comes in two flavours: a stratified IID split (client sizes
differ by at most one) and the standard per-class Dirichlet split whose
``alpha`` controls label skew.  Both are pure functions of their seed.

Distillation batches -- the unlabeled inputs the server uses for mutual
learning -- are drawn here from a held-out slice of the training pool or from
a directory of pre-generated images (the third source, standard-normal noise,
needs no data and is drawn by the engine).  A prompt list steers class
balance (holdout: prompts naming classes; directory: prompts matching file
names).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fedsim.errors import ConfigError, DimensionError

DISTILLATION_KINDS = ("holdout", "directory", "noise")


@dataclass
class LabeledDataset:
    features: np.ndarray  # (n, *input_shape), float64
    labels: np.ndarray  # (n,), int64
    class_count: int
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim < 2:
            raise DimensionError("features must be at least 2-d (samples, ...)")
        if self.labels.shape != (self.features.shape[0],):
            raise DimensionError("labels must be 1-d and match the number of samples")
        if self.class_count < 2:
            raise DimensionError("need at least two classes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DimensionError(f"labels must lie in [0, {self.class_count})")
        if not self.class_names:
            self.class_names = tuple(str(i) for i in range(self.class_count))

    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(self.features.shape[1:])

    def __len__(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True)
class Partition:
    """Disjoint client index sets over a training pool."""

    client_indices: tuple[np.ndarray, ...]

    def sizes(self) -> np.ndarray:
        return np.array([len(ix) for ix in self.client_indices])


def make_blobs(
    class_count: int,
    train_per_class: int,
    test_per_class: int,
    dim: int,
    seed,
    center_spread: float = 3.0,
    noise_sd: float = 1.0,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded Gaussian blobs; train and test share the same class centres."""

    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(class_count, dim)) * center_spread

    def draw(per_class: int) -> LabeledDataset:
        labels = np.repeat(np.arange(class_count), per_class)
        feats = centers[labels] + rng.normal(size=(labels.size, dim)) * noise_sd
        order = rng.permutation(labels.size)
        return LabeledDataset(feats[order], labels[order], class_count)

    return draw(train_per_class), draw(test_per_class)


_NETPBM_MAGIC = {b"P2": ("ascii", 1), b"P3": ("ascii", 3), b"P5": ("raw", 1), b"P6": ("raw", 3)}


def _read_netpbm(path: Path) -> np.ndarray:
    """Grey (1,h,w) or colour (3,h,w) array from a PGM/PPM file, scaled to [0,1]."""

    data = path.read_bytes()
    tokens: list[bytes] = []
    pos = 0
    # header: magic, width, height, maxval -- comments start with '#'
    while len(tokens) < 4 and pos < len(data):
        m = re.compile(rb"\s*(#[^\n]*\n|\S+)").match(data, pos)
        if m is None:
            break
        pos = m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    if len(tokens) < 4 or tokens[0] not in _NETPBM_MAGIC:
        raise ConfigError(f"{path}: not a supported netpbm image")
    mode, channels = _NETPBM_MAGIC[tokens[0]]
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    count = width * height * channels
    if mode == "raw":
        # exactly one whitespace byte separates the maxval token from the pixels
        if pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        raw = data[pos : pos + count]
        if len(raw) != count:
            raise ConfigError(f"{path}: truncated image data")
        pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    else:
        pixels = np.array(data[pos:].split()[:count], dtype=np.float64)
        if pixels.size != count:
            raise ConfigError(f"{path}: truncated image data")
    pixels = pixels.reshape(height, width, channels) / float(maxval)
    return np.moveaxis(pixels, -1, 0)


def _read_feature_file(path: Path) -> np.ndarray:
    """A single sample from a ``.npy`` / netpbm file.

    2-d arrays become (1, h, w); integer dtypes are scaled by 1/255.  A
    non-finite value is a :class:`ConfigError` naming the file.
    """

    if path.suffix == ".npy":
        arr = np.load(path, allow_pickle=False)
        if np.issubdtype(arr.dtype, np.integer):
            arr = arr.astype(np.float64) / 255.0
        arr = np.asarray(arr, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ConfigError(f"{path}: sample holds a non-finite value")
        if arr.ndim == 2:
            arr = arr[None, :, :]
        return arr
    if path.suffix in (".pgm", ".ppm"):
        return _read_netpbm(path)
    raise ConfigError(f"{path}: unsupported file type (expected .npy, .pgm or .ppm)")


def _gather_files(root: Path) -> list[Path]:
    return sorted(
        p for p in root.rglob("*") if p.is_file() and p.suffix in (".npy", ".pgm", ".ppm")
    )


def load_image_directory(path) -> LabeledDataset:
    """One subdirectory per class; class ids follow sorted directory names."""

    root = Path(path)
    if not root.is_dir():
        raise ConfigError(f"dataset directory {root} does not exist")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if len(class_dirs) < 2:
        raise ConfigError(f"{root}: need at least two class subdirectories")
    features: list[np.ndarray] = []
    labels: list[int] = []
    for class_id, class_dir in enumerate(class_dirs):
        files = _gather_files(class_dir)
        if not files:
            raise ConfigError(f"{class_dir}: class directory has no samples")
        for f in files:
            features.append(_read_feature_file(f))
            labels.append(class_id)
    shapes = {f.shape for f in features}
    if len(shapes) != 1:
        raise ConfigError(f"{root}: samples disagree on shape: {sorted(shapes)}")
    return LabeledDataset(
        np.stack(features),
        np.array(labels),
        len(class_dirs),
        tuple(d.name for d in class_dirs),
    )


def reserve_indices(n: int, count: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """(reserved, remaining) index split drawn uniformly without replacement."""

    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:count]), np.sort(perm[count:])


def partition_iid(
    labels: np.ndarray, client_count: int, seed, indices: np.ndarray | None = None
) -> Partition:
    """Stratified IID split: class-balanced, client sizes differ by <= 1.

    Indices of each class are shuffled and dealt round-robin; the dealing
    cursor runs on across classes so overall sizes stay balanced.
    """

    labels = np.asarray(labels)
    pool = np.arange(labels.size) if indices is None else np.asarray(indices)
    if pool.size < client_count:
        raise ConfigError(f"cannot split {pool.size} samples across {client_count} clients")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(client_count)]
    cursor = 0
    for c in np.unique(labels[pool]):
        class_pool = pool[labels[pool] == c]
        for idx in rng.permutation(class_pool):
            buckets[cursor % client_count].append(int(idx))
            cursor += 1
    return Partition(tuple(np.sort(np.array(b, dtype=np.int64)) for b in buckets))


def partition_dirichlet(
    labels: np.ndarray,
    client_count: int,
    alpha: float,
    seed,
    indices: np.ndarray | None = None,
) -> Partition:
    """Label-skewed split: per class, client shares are drawn from Dir(alpha).

    Small ``alpha`` concentrates each class on few clients; large ``alpha``
    approaches the IID split.  Clients left empty by the draw are repaired by
    donating one sample from the currently largest client, so every client
    ends up non-empty.
    """

    labels = np.asarray(labels)
    pool = np.arange(labels.size) if indices is None else np.asarray(indices)
    if pool.size < client_count:
        raise ConfigError(f"cannot split {pool.size} samples across {client_count} clients")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(client_count)]
    for c in np.unique(labels[pool]):
        class_pool = rng.permutation(pool[labels[pool] == c])
        shares = rng.dirichlet(np.full(client_count, float(alpha)))
        splits = (np.cumsum(shares)[:-1] * class_pool.size).astype(int)
        for client, chunk in enumerate(np.split(class_pool, splits)):
            buckets[client].extend(int(i) for i in chunk)
    # repair: donate one sample from the largest client to each empty one
    for client in range(client_count):
        if not buckets[client]:
            donor = max(range(client_count), key=lambda k: len(buckets[k]))
            buckets[client].append(buckets[donor].pop())
    return Partition(tuple(np.sort(np.array(b, dtype=np.int64)) for b in buckets))


def classes_named_in_prompts(
    prompts: tuple[str, ...], class_names: tuple[str, ...]
) -> list[int]:
    """Class ids whose name appears (case-insensitively) in any prompt."""

    hits = []
    for class_id, name in enumerate(class_names):
        lowered = name.lower()
        if any(lowered in p.lower() for p in prompts):
            hits.append(class_id)
    return hits


def _balanced_draw(rng, groups: list[np.ndarray], count: int) -> np.ndarray:
    """Roughly ``count / len(groups)`` picks per group, without replacement."""

    quota = [count // len(groups)] * len(groups)
    for i in range(count - sum(quota)):
        quota[i] += 1
    picks = []
    for group, q in zip(groups, quota):
        if q > group.size:
            raise ConfigError(
                f"distillation source needs {q} samples from a group of {group.size}"
            )
        picks.append(rng.choice(group, size=q, replace=False))
    return np.concatenate(picks)


def draw_from_holdout(
    dataset: LabeledDataset, pool: np.ndarray, prompts: tuple[str, ...], count: int, seed
) -> np.ndarray:
    """The features of ``count`` rows of ``dataset`` drawn from the reserved ``pool``.

    If prompts name dataset classes, the draw is balanced across those
    classes.  Raises :class:`~fedsim.errors.ConfigError` when the pool cannot
    supply ``count`` distinct samples.
    """

    rng = np.random.default_rng(seed)
    pool = np.asarray(pool)
    wanted = classes_named_in_prompts(prompts, dataset.class_names)
    if wanted:
        groups = [pool[dataset.labels[pool] == c] for c in wanted]
        groups = [g for g in groups if g.size]
        if not groups:
            raise ConfigError("no holdout samples match the prompt classes")
        chosen = _balanced_draw(rng, groups, count)
    else:
        if count > pool.size:
            raise ConfigError(f"holdout has {pool.size} samples, distillation needs {count}")
        chosen = rng.choice(pool, size=count, replace=False)
    return dataset.features[np.sort(chosen)].copy()


def draw_from_directory(directory, prompts: tuple[str, ...], count: int | None, seed) -> np.ndarray:
    """``count`` samples loaded from the files under ``directory`` (recursively).

    If prompts match file names, the draw is balanced across the matching
    prompts; a file that matches several prompts belongs to the first.  With
    ``count`` None, every file a draw can choose is loaded.
    Raises :class:`~fedsim.errors.ConfigError` when the directory cannot
    supply ``count`` distinct samples of one shape.
    """

    rng = np.random.default_rng(seed)
    root = Path(directory)
    if not root.is_dir():
        raise ConfigError(f"distillation directory {root} does not exist")
    files = _gather_files(root)
    if not files:
        raise ConfigError(f"{root}: no usable files for distillation")
    first_prompt = {
        f: next((i for i, p in enumerate(prompts) if p.lower() in f.name.lower()), None) for f in files
    }
    groups_files = [[f for f in files if first_prompt[f] == i] for i in range(len(prompts))]
    groups_files = [g for g in groups_files if g]
    if groups_files:
        idx_groups = []
        offset = 0
        flat: list[Path] = []
        for g in groups_files:
            idx_groups.append(np.arange(offset, offset + len(g)))
            flat.extend(g)
            offset += len(g)
        chosen_idx = np.arange(offset) if count is None else _balanced_draw(rng, idx_groups, count)
        chosen_files = [flat[i] for i in np.sort(chosen_idx)]
    else:
        count = len(files) if count is None else count
        if count > len(files):
            raise ConfigError(f"{root}: has {len(files)} files, distillation needs {count}")
        chosen_files = [files[i] for i in np.sort(rng.choice(len(files), count, replace=False))]
    feats = [_read_feature_file(f) for f in chosen_files]
    shapes = {f.shape for f in feats}
    if len(shapes) != 1:
        raise ConfigError(f"{root}: distillation samples disagree on shape: {sorted(shapes)}")
    return np.stack(feats)
