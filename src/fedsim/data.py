"""Datasets, client partitioning and distillation-batch sources.

Datasets are plain float64 feature arrays plus integer labels.  Two loaders
are built in:

* ``"blobs"`` -- a seeded synthetic Gaussian-blob classification set.  Class
  centres are drawn once, then train and test sets are sampled around the
  same centres, so both splits come from one distribution.
* a directory path -- one subdirectory per class (class names are the sorted
  subdirectory names); files may be ``.npy`` arrays or binary/ascii netpbm
  images (``.pgm``/``.ppm``).  A ``.npy`` file is read by its raw bytes;
  each distinct header is parsed once per load, by NumPy's own header
  reader, and only numeric arrays of format 1.0 or 2.0 are read, so nothing
  is ever unpickled.  Integer-typed ``.npy`` data is scaled by 1/255; float
  arrays are taken as-is.  A netpbm image is scaled by its
  ``maxval``, which must lie in 1..65535; above 255 a binary sample takes two
  bytes, most significant first.  A header that is not whole numbers, or a
  sample that is not a whole number in ``[0, maxval]``, is a
  :class:`ConfigError` naming the file.

Partitioning comes in two flavours: a stratified IID split (client sizes
differ by at most one) and the standard per-class Dirichlet split whose
``alpha`` controls label skew.  Both are pure functions of their seed.

Distillation batches -- the unlabeled inputs the server uses for mutual
learning -- are drawn here from a held-out slice of the training pool or from
a directory of pre-generated images (the third source, standard-normal noise,
needs no data and is drawn by the engine).  A prompt list steers class
balance (holdout: prompts naming classes; directory: prompts matching file
names).  Both sources make every draw through one sampler: the candidates
are split into groups (one per matching prompt, or a single group when no
prompt matches), each group gives an even share of the count, and the picks
come back sorted, so a directory draw returns its files prompt by prompt.
"""

from __future__ import annotations

import io
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

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
    if len(tokens) < 4 or tokens[0] not in _NETPBM_MAGIC or not all(t.isdigit() for t in tokens[1:]):
        raise ConfigError(f"{path}: not a supported netpbm image")
    mode, channels = _NETPBM_MAGIC[tokens[0]]
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if not 1 <= maxval <= 65535:
        raise ConfigError(f"{path}: netpbm maxval {maxval} lies outside 1..65535")
    count = width * height * channels
    if mode == "raw":
        # exactly one whitespace byte separates the maxval token from the pixels;
        # above maxval 255 a sample takes two bytes, most significant first
        if pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        raw = data[pos : pos + count * dtype.itemsize]
        if len(raw) != count * dtype.itemsize:
            raise ConfigError(f"{path}: truncated image data")
        pixels = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    else:
        samples = data[pos:].split()[:count]
        if len(samples) != count:
            raise ConfigError(f"{path}: truncated image data")
        if not all(s.isdigit() for s in samples):
            raise ConfigError(f"{path}: netpbm sample is not a whole number in [0, {maxval}]")
        pixels = np.array(samples, dtype=np.float64)
    if (pixels > maxval).any():
        raise ConfigError(f"{path}: netpbm sample is not a whole number in [0, {maxval}]")
    pixels = pixels.reshape(height, width, channels) / float(maxval)
    return np.moveaxis(pixels, -1, 0)


_NPY_HEADER_READERS = {(1, 0): npy_format.read_array_header_1_0, (2, 0): npy_format.read_array_header_2_0}


def _npy_header(path: Path, header: bytes) -> tuple[tuple[int, ...], bool, np.dtype]:
    """(shape, fortran_order, dtype) of a ``.npy`` header, checked by NumPy's reader."""

    stream = io.BytesIO(header)
    try:
        version = npy_format.read_magic(stream)
        if version not in _NPY_HEADER_READERS:
            raise ValueError(f"format {version[0]}.{version[1]} is not read, only 1.0 and 2.0")
        shape, fortran_order, dtype = _NPY_HEADER_READERS[version](stream)
    except ValueError as exc:
        raise ConfigError(f"{path}: not a readable .npy file: {exc}") from None
    if dtype.kind not in "biuf":  # an object array would need unpickling
        raise ConfigError(f"{path}: a .npy sample must hold numbers, not {dtype}")
    return shape, fortran_order, dtype


def _read_npy(path: Path, headers: dict) -> np.ndarray:
    """The array in a ``.npy`` file; ``headers`` maps header bytes to their parse."""

    data = path.read_bytes()
    width = 2 if data[6:7] == b"\x01" else 4  # bytes of the header length, by major version
    header = data[: 8 + width + int.from_bytes(data[8 : 8 + width], "little")]
    if header not in headers:
        headers[header] = _npy_header(path, header)
    shape, fortran_order, dtype = headers[header]
    count = math.prod(shape)
    size, needed = len(data) - len(header), count * dtype.itemsize
    if size != needed:
        raise ConfigError(f"{path}: .npy data is {size} bytes, its header says {needed}")
    array = np.frombuffer(data, dtype, count, len(header))
    return array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape)


def _read_feature_file(path: Path, headers: dict) -> np.ndarray:
    """A single sample from a ``.npy`` / netpbm file found by ``_gather_files``.

    2-d arrays become (1, h, w); integer dtypes are scaled by 1/255.  A
    non-finite value is a :class:`ConfigError` naming the file.
    """

    if path.suffix != ".npy":
        return _read_netpbm(path)
    arr = _read_npy(path, headers)
    if np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype(np.float64) / 255.0
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{path}: sample holds a non-finite value")
    return arr[None] if arr.ndim == 2 else arr


def _gather_files(root: Path) -> list[Path]:
    """The ``.npy``/netpbm files under ``root``, sorted as paths.

    As ``Path.rglob`` in Python 3.11: dotfiles and symlinked files are read,
    symlinked directories are not entered, unreadable directories are skipped.
    """

    found, pending = [], [str(root)]
    while pending:
        try:
            with os.scandir(pending.pop()) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(entry.path)
                    elif (path := Path(entry.path)).suffix in (".npy", ".pgm", ".ppm") and entry.is_file():
                        found.append(path)
        except PermissionError:
            continue
    return sorted(found)


def _read_samples(files: list[Path], what: str) -> np.ndarray:
    """The samples in ``files``, stacked; ``what`` names them in a shape error."""

    headers: dict = {}
    samples = [_read_feature_file(f, headers) for f in files]
    shapes = {s.shape for s in samples}
    if len(shapes) != 1:
        raise ConfigError(f"{what} disagree on shape: {sorted(shapes)}")
    return np.stack(samples)


def load_image_directory(path) -> LabeledDataset:
    """One subdirectory per class; class ids follow sorted directory names."""

    root = Path(path)
    if not root.is_dir():
        raise ConfigError(f"dataset directory {root} does not exist")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if len(class_dirs) < 2:
        raise ConfigError(f"{root}: need at least two class subdirectories")
    per_class = [_gather_files(d) for d in class_dirs]
    for class_dir, files in zip(class_dirs, per_class):
        if not files:
            raise ConfigError(f"{class_dir}: class directory has no samples")
    return LabeledDataset(
        _read_samples([f for files in per_class for f in files], f"{root}: samples"),
        np.repeat(np.arange(len(class_dirs)), [len(files) for files in per_class]),
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
    for c in np.flatnonzero(np.bincount(labels[pool])):  # the classes present, ascending
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
    for c in np.flatnonzero(np.bincount(labels[pool])):  # the classes present, ascending
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


def _draw(seed, groups: list[np.ndarray], count: int | None) -> np.ndarray:
    """Sorted picks from ``groups``, ``count`` of them or, if None, every member.

    Each group gives ``count // len(groups)`` picks without replacement, the
    first ``count % len(groups)`` groups one more, all from one generator, so
    a single group is exactly ``rng.choice(group, count, replace=False)``.
    """

    if count is None:
        return np.sort(np.concatenate(groups))
    rng = np.random.default_rng(seed)
    base, extra = divmod(count, len(groups))
    picks = []
    for i, group in enumerate(groups):
        quota = base + (i < extra)
        if quota > group.size:
            raise ConfigError(f"distillation needs {quota} samples from a group of {group.size}")
        picks.append(rng.choice(group, size=quota, replace=False))
    return np.sort(np.concatenate(picks))


def draw_from_holdout(
    dataset: LabeledDataset, pool: np.ndarray, prompts: tuple[str, ...], count: int, seed
) -> np.ndarray:
    """The features of ``count`` rows of ``dataset`` drawn from the reserved ``pool``.

    If prompts name dataset classes, the draw is balanced across those
    classes.  Raises :class:`~fedsim.errors.ConfigError` when the pool cannot
    supply ``count`` distinct samples.
    """

    pool = np.asarray(pool)
    wanted = classes_named_in_prompts(prompts, dataset.class_names)
    groups = [g for g in (pool[dataset.labels[pool] == c] for c in wanted) if g.size]
    if wanted and not groups:
        raise ConfigError("no holdout samples match the prompt classes")
    return dataset.features[_draw(seed, groups or [pool], count)]


def draw_from_directory(directory, prompts: tuple[str, ...], count: int | None, seed) -> np.ndarray:
    """``count`` samples loaded from the files under ``directory`` (recursively).

    If prompts match file names, the draw is balanced across the matching
    prompts; a file that matches several prompts belongs to the first, and
    the samples come back prompt by prompt.  With ``count`` None, every file
    a draw can choose is loaded.  Raises :class:`~fedsim.errors.ConfigError`
    when the directory cannot supply ``count`` distinct samples of one shape.
    """

    root = Path(directory)
    if not root.is_dir():
        raise ConfigError(f"distillation directory {root} does not exist")
    files = _gather_files(root)
    if not files:
        raise ConfigError(f"{root}: no usable files for distillation")
    first_prompt = [
        next((i for i, p in enumerate(prompts) if p.lower() in f.name.lower()), None) for f in files
    ]
    grouped = [[f for f, k in zip(files, first_prompt) if k == i] for i in range(len(prompts))]
    grouped = [g for g in grouped if g] or [files]
    flat = [f for g in grouped for f in g]
    groups = np.split(np.arange(len(flat)), np.cumsum([len(g) for g in grouped])[:-1])
    chosen = _draw(seed, groups, count)
    return _read_samples([flat[i] for i in chosen], f"{root}: distillation samples")
