"""Dataset construction, partition laws and distillation sources."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.data import (
    LabeledDataset,
    _gather_files,
    classes_named_in_prompts,
    draw_from_directory,
    draw_from_holdout,
    load_image_directory,
    make_blobs,
    partition_dirichlet,
    partition_iid,
    reserve_indices,
)
from fedsim.engine import FedConfig, distillation_batches
from fedsim.errors import ConfigError, DimensionError


def assert_disjoint_cover(partition, pool):
    all_idx = np.concatenate(partition.client_indices)
    assert len(all_idx) == len(set(all_idx.tolist())), "client sets overlap"
    assert set(all_idx.tolist()) == set(np.asarray(pool).tolist()), "client sets do not cover"


class TestBlobs:
    def test_shapes_counts_and_determinism(self):
        train, test = make_blobs(4, 50, 10, 8, seed=42)
        assert train.features.shape == (200, 8)
        assert test.features.shape == (40, 8)
        assert np.bincount(train.labels, minlength=4).tolist() == [50] * 4
        assert np.bincount(test.labels, minlength=4).tolist() == [10] * 4
        train2, test2 = make_blobs(4, 50, 10, 8, seed=42)
        np.testing.assert_array_equal(train.features, train2.features)
        np.testing.assert_array_equal(test.labels, test2.labels)
        train3, _ = make_blobs(4, 50, 10, 8, seed=43)
        assert not np.array_equal(train.features, train3.features)

    def test_train_and_test_share_centres(self):
        train, test = make_blobs(3, 400, 400, 5, seed=1, center_spread=5.0, noise_sd=0.5)
        for c in range(3):
            mu_train = train.features[train.labels == c].mean(axis=0)
            mu_test = test.features[test.labels == c].mean(axis=0)
            assert np.linalg.norm(mu_train - mu_test) < 0.5

    def test_wide_blobs_are_nearest_centre_separable(self):
        train, test = make_blobs(4, 200, 100, 6, seed=3, center_spread=5.0, noise_sd=0.5)
        centers = np.stack(
            [train.features[train.labels == c].mean(axis=0) for c in range(4)]
        )
        d = ((test.features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        accuracy = (d.argmin(axis=1) == test.labels).mean()
        assert accuracy > 0.95

    def test_bad_parameters_rejected(self):
        with pytest.raises(DimensionError, match="two classes"):
            make_blobs(1, 10, 10, 4, seed=0)


class TestLabeledDatasetValidation:
    def test_label_bounds(self):
        with pytest.raises(DimensionError):
            LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 2, 3]), class_count=3)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            LabeledDataset(np.zeros((4, 2)), np.zeros(3, dtype=int), class_count=2)

    def test_default_class_names(self):
        ds = LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), class_count=2)
        assert ds.class_names == ("0", "1")


class TestIidPartition:
    @given(seed=st.integers(0, 10**6), clients=st.integers(1, 9))
    @settings(max_examples=25, deadline=None)
    def test_disjoint_cover_and_balance(self, seed, clients):
        labels = np.repeat(np.arange(4), 25)  # 100 samples
        part = partition_iid(labels, clients, seed)
        assert_disjoint_cover(part, np.arange(100))
        sizes = part.sizes()
        assert sizes.max() - sizes.min() <= 1

    def test_stratified_within_one_per_class(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, size=237)
        part = partition_iid(labels, 7, seed=11)
        for c in range(5):
            per_client = [int((labels[ix] == c).sum()) for ix in part.client_indices]
            assert max(per_client) - min(per_client) <= 1

    def test_determinism_and_seed_sensitivity(self):
        labels = np.repeat(np.arange(3), 30)
        a = partition_iid(labels, 4, seed=5)
        b = partition_iid(labels, 4, seed=5)
        c = partition_iid(labels, 4, seed=6)
        for x, y in zip(a.client_indices, b.client_indices):
            np.testing.assert_array_equal(x, y)
        assert any(
            not np.array_equal(x, y) for x, y in zip(a.client_indices, c.client_indices)
        )

    def test_respects_index_pool(self):
        labels = np.repeat(np.arange(2), 20)
        pool = np.arange(10, 30)
        part = partition_iid(labels, 3, seed=0, indices=pool)
        assert_disjoint_cover(part, pool)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigError):
            partition_iid(np.array([0, 1]), 3, seed=0)


class TestDirichletPartition:
    @given(seed=st.integers(0, 10**6), alpha=st.sampled_from([0.1, 0.6, 5.0]))
    @settings(max_examples=25, deadline=None)
    def test_disjoint_cover_and_nonempty(self, seed, alpha):
        labels = np.repeat(np.arange(4), 30)
        part = partition_dirichlet(labels, 6, alpha, seed)
        assert_disjoint_cover(part, np.arange(120))
        assert part.sizes().min() >= 1

    def test_small_alpha_is_more_skewed(self):
        labels = np.repeat(np.arange(5), 200)

        def mean_label_entropy(part):
            ents = []
            for ix in part.client_indices:
                p = np.bincount(labels[ix], minlength=5) / max(len(ix), 1)
                p = p[p > 0]
                ents.append(-(p * np.log(p)).sum())
            return np.mean(ents)

        skewed = np.mean(
            [mean_label_entropy(partition_dirichlet(labels, 8, 0.1, s)) for s in range(5)]
        )
        uniform = np.mean(
            [mean_label_entropy(partition_dirichlet(labels, 8, 100.0, s)) for s in range(5)]
        )
        assert skewed < uniform - 0.3

    def test_pinned_seed_regression(self):
        labels = np.repeat(np.arange(3), 40)
        part = partition_dirichlet(labels, 4, 0.5, seed=2024)
        again = partition_dirichlet(labels, 4, 0.5, seed=2024)
        for x, y in zip(part.client_indices, again.client_indices):
            np.testing.assert_array_equal(x, y)


class TestReserveAndSplit:
    def test_reserve_is_disjoint_exact_and_deterministic(self):
        held, rest = reserve_indices(100, 20, seed=9)
        assert held.size == 20 and rest.size == 80
        assert not set(held.tolist()) & set(rest.tolist())
        held2, _ = reserve_indices(100, 20, seed=9)
        np.testing.assert_array_equal(held, held2)


class TestDistillationSources:
    def test_noise_shape_and_determinism(self):
        cfg = FedConfig(distill_kind="noise", distill_count=7, batch_size=10)
        images = LabeledDataset(np.zeros((2, 3, 4, 4)), np.array([0, 1]), 2)
        (a,) = distillation_batches(cfg, images, None, seed=1)
        (b,) = distillation_batches(cfg, images, None, seed=1)
        (c,) = distillation_batches(cfg, images, None, seed=2)
        assert a.shape == (7, 3, 4, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_holdout_draws_from_reserved_rows(self):
        train, _ = make_blobs(3, 40, 10, 5, seed=0)
        held, _ = reserve_indices(len(train), 30, seed=1)
        batch = draw_from_holdout(train, held, (), 12, seed=2)
        assert batch.shape == (12, 5)
        held_rows = {tuple(r) for r in train.features[held]}
        for row in batch:
            assert tuple(row) in held_rows

    def test_holdout_insufficient_raises(self):
        train, _ = make_blobs(3, 10, 5, 4, seed=0)
        held, _ = reserve_indices(len(train), 5, seed=1)
        with pytest.raises(ConfigError):
            draw_from_holdout(train, held, (), 6, seed=0)

    def test_prompts_balance_named_classes(self):
        train, _ = make_blobs(4, 50, 10, 3, seed=5)
        held = np.arange(len(train))
        prompts = ("an example of class 0", "an example of class 2")
        assert classes_named_in_prompts(prompts, train.class_names) == [0, 2]
        batch = draw_from_holdout(train, held, prompts, 20, seed=3)
        # recover labels by matching rows
        row_label = {tuple(r): l for r, l in zip(train.features, train.labels)}
        drawn = np.array([row_label[tuple(r)] for r in batch])
        assert set(drawn.tolist()) == {0, 2}
        assert (drawn == 0).sum() == 10 and (drawn == 2).sum() == 10

    def test_directory_source_with_prompt_filter(self, tmp_path):
        rng = np.random.default_rng(0)
        names = ["cat_1", "cat_2", "cat_3", "dog_1", "dog_2", "dog_3"]
        for name in names:
            np.save(tmp_path / f"{name}.npy", rng.normal(size=(2, 4, 4)))
        # no count: every file a draw can choose, in file order
        files = np.stack([np.load(tmp_path / f"{name}.npy") for name in names])
        np.testing.assert_array_equal(draw_from_directory(tmp_path, ("cat",), None, seed=1), files[:3])
        np.testing.assert_array_equal(draw_from_directory(tmp_path, (), None, seed=1), files)
        batch = draw_from_directory(tmp_path, ("cat",), 3, seed=1)
        assert batch.shape == (3, 2, 4, 4)
        batch2 = draw_from_directory(tmp_path, ("cat", "dog"), 6, seed=1)
        assert batch2.shape == (6, 2, 4, 4)
        with pytest.raises(ConfigError):
            draw_from_directory(tmp_path, ("cat",), 4, seed=1)  # only 3 cat files

    def test_a_file_matching_two_prompts_is_drawn_at_most_once(self, tmp_path):
        for i in range(3):
            np.save(tmp_path / f"cat_small_{i}.npy", np.full(2, float(i)))
        # every file matches both prompts, so it joins the first group only
        np.testing.assert_array_equal(
            draw_from_directory(tmp_path, ("cat", "small"), None, seed=0)[:, 0], [0.0, 1.0, 2.0]
        )
        batch = draw_from_directory(tmp_path, ("cat", "small"), 3, seed=0)
        assert sorted(batch[:, 0].tolist()) == [0.0, 1.0, 2.0]
        with pytest.raises(ConfigError):
            draw_from_directory(tmp_path, ("cat", "small"), 4, seed=0)  # only 3 distinct files

    @pytest.mark.parametrize("prompts", [(), ("a photo of a zebra",)])
    def test_holdout_without_matching_prompts_is_one_uniform_choice(self, prompts):
        train, _ = make_blobs(3, 20, 5, 4, seed=0)
        held, _ = reserve_indices(len(train), 25, seed=1)
        seed = np.random.SeedSequence(9, spawn_key=(4, 0))
        rows = np.sort(np.random.default_rng(seed).choice(held, 11, replace=False))
        np.testing.assert_array_equal(draw_from_holdout(train, held, prompts, 11, seed), train.features[rows])

    @pytest.mark.parametrize("prompts", [(), ("zebra",)])
    def test_directory_without_matching_prompts_is_one_uniform_choice(self, tmp_path, prompts):
        names = ["cat_1", "cat_2", "dog_1", "dog_2", "dog_3", "owl_1", "owl_2"]
        for i, name in enumerate(names):
            np.save(tmp_path / f"{name}.npy", np.full(2, float(i)))
        seed = np.random.SeedSequence(5, spawn_key=(4, 0))
        picks = np.sort(np.random.default_rng(seed).choice(np.arange(len(names)), 4, replace=False))
        batch = draw_from_directory(tmp_path, prompts, 4, seed)
        np.testing.assert_array_equal(batch[:, 0], picks.astype(float))

    def test_directory_prompts_return_their_samples_group_by_group(self, tmp_path):
        names = ["cat_1", "cat_2", "cat_3", "dog_1", "dog_2", "dog_3", "dog_4"]
        for i, name in enumerate(names):
            np.save(tmp_path / f"{name}.npy", np.full(2, float(i)))
        # files in prompt order: dogs (ids 3-6), then cats (ids 0-2)
        flat = np.array([3, 4, 5, 6, 0, 1, 2], dtype=float)
        np.testing.assert_array_equal(draw_from_directory(tmp_path, ("dog", "cat"), None, 0)[:, 0], flat)
        # five picks: three from the first group, two from the second, one generator
        rng = np.random.default_rng(7)
        dogs = rng.choice(np.arange(4), 3, replace=False)
        cats = rng.choice(np.arange(4, 7), 2, replace=False)
        chosen = np.sort(np.concatenate([dogs, cats]))
        np.testing.assert_array_equal(draw_from_directory(tmp_path, ("dog", "cat"), 5, 7)[:, 0], flat[chosen])

    def test_missing_directory_raises(self):
        with pytest.raises(ConfigError):
            draw_from_directory("/nonexistent/path", (), 2, seed=0)

    def test_non_finite_sample_is_rejected_by_name(self, tmp_path):
        for i in range(3):
            np.save(tmp_path / f"s{i}.npy", np.zeros((1, 2, 2)))
        np.save(tmp_path / "s1.npy", np.array([[[0.0, np.inf], [0.0, 0.0]]]))
        with pytest.raises(ConfigError, match=r"s1\.npy: sample holds a non-finite value"):
            draw_from_directory(tmp_path, (), 3, seed=0)


class TestImageDirectory:
    def _write_pgm(self, path, array):
        h, w = array.shape
        path.write_bytes(b"P5\n# comment\n%d %d\n255\n" % (w, h) + array.astype(np.uint8).tobytes())

    def test_npy_tree_with_integer_scaling(self, tmp_path):
        (tmp_path / "apple").mkdir()
        (tmp_path / "banana").mkdir()
        np.save(tmp_path / "apple" / "a0.npy", np.full((1, 2, 2), 255, dtype=np.uint8))
        np.save(tmp_path / "apple" / "a1.npy", np.zeros((1, 2, 2), dtype=np.uint8))
        np.save(tmp_path / "banana" / "b0.npy", np.full((1, 2, 2), 0.5))
        np.save(tmp_path / "banana" / "b1.npy", np.full((1, 2, 2), 0.25))
        ds = load_image_directory(tmp_path)
        assert ds.class_names == ("apple", "banana")
        assert ds.features.shape == (4, 1, 2, 2)
        np.testing.assert_allclose(ds.features[0], 1.0)  # uint8 scaled by 1/255
        np.testing.assert_allclose(ds.features[2], 0.5)  # float kept as-is
        np.testing.assert_array_equal(ds.labels, [0, 0, 1, 1])

    def test_pgm_round_trip(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        self._write_pgm(tmp_path / "x" / "img.pgm", img)
        self._write_pgm(tmp_path / "y" / "img.pgm", img + 100)
        ds = load_image_directory(tmp_path)
        assert ds.features.shape == (2, 1, 3, 4)
        np.testing.assert_allclose(ds.features[0, 0], img / 255.0)

    def test_ascii_pgm(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        (tmp_path / "x" / "img.pgm").write_text("P2\n2 2\n255\n0 128\n255 64\n")
        self._write_pgm(tmp_path / "y" / "img.pgm", np.zeros((2, 2)))
        ds = load_image_directory(tmp_path)
        np.testing.assert_allclose(
            ds.features[0, 0], np.array([[0, 128], [255, 64]]) / 255.0
        )

    def test_sixteen_bit_binary_samples_are_big_endian(self, tmp_path):
        pixels = np.array([1000, 2000, 30000, 65535])
        (tmp_path / "grey.pgm").write_bytes(b"P5 2 2 65535\n" + pixels.astype(">u2").tobytes())
        (grey,) = draw_from_directory(tmp_path, (), None, seed=0)
        np.testing.assert_array_equal(grey, (pixels / 65535.0).reshape(1, 2, 2))

    def test_sixteen_bit_colour_keeps_channels_apart(self, tmp_path):
        rgb = np.array([[[300, 600, 900], [1200, 1500, 1800]]])  # (h, w, channel)
        (tmp_path / "colour.ppm").write_bytes(b"P6 2 1 2000\n" + rgb.astype(">u2").tobytes())
        (colour,) = draw_from_directory(tmp_path, (), None, seed=0)
        np.testing.assert_array_equal(colour, np.moveaxis(rgb / 2000.0, -1, 0))

    @pytest.mark.parametrize("maxval", [0, 65536])
    def test_maxval_outside_the_format_is_rejected_by_name(self, tmp_path, maxval):
        (tmp_path / "bad.pgm").write_text(f"P2 2 1 {maxval}\n0 0\n")
        with pytest.raises(ConfigError, match=rf"bad\.pgm: netpbm maxval {maxval} lies outside"):
            draw_from_directory(tmp_path, (), None, seed=0)

    @pytest.mark.parametrize(
        "image",
        [
            b"P2 2 1 255\n300 0\n",
            b"P2 2 1 255\n0 -5\n",
            b"P2 2 1 255\n0 1.5\n",
            b"P2 2 1 255\n0 zz\n",
            b"P5 2 1 100\n\xc8\x00",
        ],
    )
    def test_sample_not_a_whole_number_up_to_maxval_is_rejected_by_name(self, tmp_path, image):
        (tmp_path / "bad.pgm").write_bytes(image)
        message = r"bad\.pgm: netpbm sample is not a whole number in \[0, (255|100)\]"
        with pytest.raises(ConfigError, match=message):
            draw_from_directory(tmp_path, (), None, seed=0)

    @pytest.mark.parametrize("header", [b"P2 2 x 255", b"P2 -2 -1 255", b"P2 2 1 2.5e2"])
    def test_header_that_is_not_whole_numbers_is_rejected_by_name(self, tmp_path, header):
        (tmp_path / "bad.pgm").write_bytes(header + b"\n0 0\n")
        with pytest.raises(ConfigError, match=r"bad\.pgm: not a supported netpbm image"):
            draw_from_directory(tmp_path, (), None, seed=0)

    def test_shape_disagreement_rejected(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        np.save(tmp_path / "x" / "a.npy", np.zeros((1, 2, 2)))
        np.save(tmp_path / "y" / "b.npy", np.zeros((1, 3, 3)))
        with pytest.raises(ConfigError):
            load_image_directory(tmp_path)

    def test_missing_directory_rejected(self):
        with pytest.raises(ConfigError):
            load_image_directory("/nonexistent/classes")

    def test_non_finite_sample_is_rejected_by_name(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        np.save(tmp_path / "x" / "a.npy", np.zeros((1, 2, 2)))
        np.save(tmp_path / "y" / "b.npy", np.array([[0.0, np.nan], [0.5, 0.5]]))
        with pytest.raises(ConfigError, match=r"b\.npy: sample holds a non-finite value"):
            load_image_directory(tmp_path)


def test_gather_files_pins_which_files_are_read_and_their_order(tmp_path):
    outside = tmp_path.parent / f"{tmp_path.name}-outside"
    outside.mkdir()
    (outside / "x.npy").write_bytes(b"")
    root = tmp_path / "root"
    (root / "a" / "b").mkdir(parents=True)
    (root / "dir.npy").mkdir()  # a directory with a sample's suffix is entered, not read
    for name in ["z.npy", ".hidden.npy", "..npy", ".npy", "a-c.pgm", "a/b.ppm", "a/b/deep.npy",
                 "notes.txt", "a/upper.NPY", "data.npy.bak", "dir.npy/inner.ppm"]:
        (root / name).write_bytes(b"")
    (root / "linked.npy").symlink_to(outside / "x.npy")
    (root / "linked-dir").symlink_to(outside, target_is_directory=True)
    (root / "broken.npy").symlink_to(root / "missing.npy")
    # dotfiles are read (".npy" alone has no suffix), a symlinked file is read,
    # a symlinked directory and a broken link are not, and the paths sort as
    # Paths, part by part: "a/b/deep.npy" < "a/b.ppm" < "a-c.pgm"
    expected = ["..npy", ".hidden.npy", "a/b/deep.npy", "a/b.ppm", "a-c.pgm",
                "dir.npy/inner.ppm", "linked.npy", "z.npy"]
    assert _gather_files(root) == [root / name for name in expected]
    assert all(type(p) is type(root) for p in _gather_files(root))


def npy_oracle(path):
    """A sample as ``np.load`` plus the conversions every ``.npy`` sample gets."""

    arr = np.load(path, allow_pickle=False)
    if np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype(np.float64) / 255.0
    arr = np.asarray(arr, dtype=np.float64)
    return arr[None] if arr.ndim == 2 else arr


def write_npy(path, array, version):
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, array, version=version, allow_pickle=False)


def write_npy_grid(directory, shape, rng):
    """Two samples for every dtype, memory order and format version, so one
    directory holds many headers and repeats each of them."""

    directory.mkdir(parents=True)
    grid = itertools.product(["<f8", "<f4", "u1", "<i2", ">f8"], "CF", [(1, 0), (2, 0)], range(2))
    for i, (dtype, order, version, _) in enumerate(grid):
        if dtype[-2] in "iu":
            values = rng.integers(-300 if dtype[-2] == "i" else 0, 256, size=shape)
        else:
            values = rng.normal(size=shape)
        array = np.asarray(values, dtype=dtype, order=order)
        assert order == "C" or not array.flags.c_contiguous
        write_npy(directory / f"s{i:02d}.npy", array, version)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(4, 5), (2, 4, 5)], ids=["2-d", "3-d"])
def test_the_npy_reader_returns_what_np_load_does(tmp_path, shape):
    rng = np.random.default_rng(11)
    write_npy_grid(tmp_path / "pool", shape, rng)
    files = sorted((tmp_path / "pool").iterdir())
    want = np.stack([npy_oracle(f) for f in files])
    assert_bitwise(draw_from_directory(tmp_path / "pool", (), None, seed=0), want)
    chosen = np.sort(np.random.default_rng(3).choice(len(files), 7, replace=False))
    assert_bitwise(draw_from_directory(tmp_path / "pool", (), 7, seed=3), want[chosen])

    write_npy_grid(tmp_path / "tree" / "a", shape, rng)
    write_npy_grid(tmp_path / "tree" / "b", shape, rng)
    files = sorted((tmp_path / "tree").rglob("*.npy"))
    dataset = load_image_directory(tmp_path / "tree")
    assert_bitwise(dataset.features, np.stack([npy_oracle(f) for f in files]))


def test_a_directory_that_mixes_two_headers_reads_each_file_by_its_own(tmp_path):
    rng = np.random.default_rng(5)
    for i in range(4):
        write_npy(tmp_path / f"f{i}.npy", np.asfortranarray(rng.normal(size=(1, 3, 2))), (1, 0))
        np.save(tmp_path / f"u{i}.npy", rng.integers(0, 256, size=(1, 3, 2), dtype=np.uint8))
    files = sorted(tmp_path.iterdir())
    got = draw_from_directory(tmp_path, (), None, seed=0)
    assert_bitwise(got, np.stack([npy_oracle(f) for f in files]))


def truncated(path):
    np.save(path, np.zeros((1, 2, 2)))
    path.write_bytes(path.read_bytes()[:-1])


def pickled(path):
    np.save(path, np.array([{"a": 1}, None], dtype=object), allow_pickle=True)


def not_npy(path):
    path.write_bytes(b"P2 2 2 255\n0 0 0 0\n")


def trailing_byte(path):
    np.save(path, np.zeros((1, 2, 2)))
    path.write_bytes(path.read_bytes() + b"\0")


def format_three(path):
    write_npy(path, np.zeros((1, 2, 2)), (3, 0))


UNREADABLE_NPY = {
    "truncated": (truncated, r"\.npy data is 31 bytes, its header says 32"),
    "pickled": (pickled, r"a \.npy sample must hold numbers, not object"),
    "not npy": (not_npy, r"not a readable \.npy file"),
    "trailing byte": (trailing_byte, r"\.npy data is 33 bytes, its header says 32"),
    "format 3.0": (format_three, r"not a readable \.npy file: format 3\.0 is not read"),
}


@pytest.mark.parametrize("case", UNREADABLE_NPY)
def test_an_unreadable_npy_is_a_config_error_naming_it(tmp_path, case, monkeypatch):
    write, message = UNREADABLE_NPY[case]
    for c in "xy":
        (tmp_path / c).mkdir()
        np.save(tmp_path / c / "a.npy", np.zeros((1, 2, 2)))
    bad = tmp_path / "y" / "bad.npy"
    write(bad)
    for name in ("pickle.load", "pickle.loads"):  # nothing is unpickled on the way
        monkeypatch.setattr(name, lambda *args, **kwargs: pytest.fail("unpickled"))
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(bad))}: {message}"):
        load_image_directory(tmp_path)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(bad))}: {message}"):
        draw_from_directory(tmp_path / "y", (), None, seed=0)
