"""Golden fingerprints: the exact bytes a fixed set of runs produces.

A refactor must keep these hashes.  A change that moves them on purpose
re-pins them here and says why in CHANGES.md.  Each golden run writes
checkpoints, so the cluster report and every checkpoint are pinned along
with ``metrics.jsonl``.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedsim.cli import main
from fedsim.config import load_config_dict, resolve_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

METRICS_SHA256 = {
    "quickstart-fedtsa": "8a112488cdef10541387818b867121a2eb60647638919bde1d37f1955c4f43ab",
    "quickstart-fedavg": "144c052ea7ce0416396163cd60e71ee92560864eb54c17ba41a1815c0580b3b9",
    "quickstart-fedprox": "63fcc485e6d466ccb1653bfef70fbdb19315e3d3388930cc9a43da06a5515fd9",
    "quickstart-heterofl": "9b7d4fa60c527b98c46f44e1399d83f2af61c4e3eef2bc1a86644e1018090864",
    "quickstart-dirichlet": "23f4d4e1067b5b5e6244f2bb2590017016e4170789e8ee09c65922baaa4d15dc",
    "quickstart-no-self": "81d016d1dad110b84433f6392a88a39b7c51f075c49a30002677ecb6cc4cdde6",
    "quickstart-no-refine": "3c6e15b73a06e9973447550a7ed5f76fd8f853a24311ec66ff82c7f244b4ff0a",
    "quickstart-dirichlet-data-size": "f049c1be18b293756af89d34714a2eddb7ada144da9d3b9fdf63be0515f8283a",
    "quickstart-resample": "d349753569f8694ecadf0420a4c7103e43a7560f1841ebcef21aa55c48b978f5",
    "cnn-images": "2da0d7bcf093e5b2c1cb63d482a553d7c8a9359a824e5f049044ab139cb115cf",
}

# over cluster_report.txt and checkpoints/*, each file's relative path and
# bytes in sorted path order
OUTPUT_SHA256 = {
    "quickstart-fedtsa": "1ca5c1dd0e74bf17d3f49b3302dc02d3638c6d895e2e534ce63aeb1e841d7111",
    "quickstart-fedavg": "0966586429ae1368ce55a45be0c1f81ef9f3817142fe21fc7222b7b8daf01f31",
    "quickstart-fedprox": "92b6768a1f4ddfbfe996caac48e014ad483e1678781e64344c871ba782159686",
    "quickstart-heterofl": "3fd4aa955a1269a6579d61258971fed8056a88e4ff477c6ad0d5cfd4136c5e4b",
    "quickstart-dirichlet": "c58d9835570eec400e3efec042a3b2f561186da982eaaa95fae137eb186e9a14",
    "quickstart-no-self": "e8770b378505b5eff405532925bdee670f2c44f22ce4cca0c4b33e79ba2d91c4",
    "quickstart-no-refine": "df7a4474636e00d4e1f2db195278f76bd068c15da78dbcbe078818bd36a8b1b6",
    "quickstart-dirichlet-data-size": "f44ff00fcfd6a45399164ab451c2cd103b268619ac1d74cea674285afb2a0524",
    "quickstart-resample": "16f3171efe918b559f291a7f18efa0d544ca0b28fd638b17ad6ab9e16fbe64d6",
    "cnn-images": "f889823df8d1d532038fd5c111a2988f20fece2ef618e326424ac15b5a13ad43",
}

ECHO_SHA256 = {
    "quickstart.yaml": "e5f0d33ef7a0a74a469f292a9daac1e2688c0f572008cac84cf989ff71ecb222",
    "full-protocol.yaml": "38f80a8cc4793c8b6c57f24c01a4fc4c1eef6ba1981c299c159fcacfca9bec1c",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_images(root: Path, seed: int = 17) -> None:
    """Three classes of 1x8x8 images: a bright quadrant per class plus noise."""

    rng = np.random.default_rng(seed)
    for split, per_class in (("train", 10), ("test", 4)):
        for c in range(3):
            folder = root / split / f"c{c}"
            folder.mkdir(parents=True)
            for i in range(per_class):
                image = rng.normal(0.0, 0.3, size=(1, 8, 8))
                image[0, (c % 2) * 4 : (c % 2) * 4 + 4, (c // 2) * 4 : (c // 2) * 4 + 4] += 1.0
                np.save(folder / f"s{i}.npy", image)


# each quickstart variant's settings over configs/quickstart.yaml, by section
QUICKSTART_VARIANTS = {
    "quickstart-fedtsa": {},
    "quickstart-fedavg": {"training": {"algorithm": "fedavg"}},
    "quickstart-fedprox": {"training": {"algorithm": "fedprox"}},
    "quickstart-heterofl": {"training": {"algorithm": "heterofl"}},
    "quickstart-dirichlet": {"dataset": {"partition": "dirichlet"}},
    "quickstart-no-self": {"distillation": {"include_self": False}},
    "quickstart-no-refine": {"clustering": {"refine": False}},
    "quickstart-dirichlet-data-size": {
        "dataset": {"partition": "dirichlet"},
        "training": {"stage1_weighting": "data_size"},
    },
    # holdout_count above count: with the default (holdout_count = count)
    # every round draws the whole holdout, sorted, and the bytes equal the
    # fixed pool's
    "quickstart-resample": {"distillation": {"resample": True, "holdout_count": 120}},
}

# a variant that sets one non-default value, and the run without it
DEFAULT_TWIN = {
    "quickstart-no-self": "quickstart-fedtsa",
    "quickstart-no-refine": "quickstart-fedtsa",
    "quickstart-dirichlet-data-size": "quickstart-dirichlet",
    "quickstart-resample": "quickstart-fedtsa",
}


def golden_config(name: str, tmp_path: Path) -> dict:
    if name == "cnn-images":
        write_images(tmp_path / "images")
        return {
            "output": {"write_checkpoints": True},
            "seed": 2,
            "dataset": {"source": "directory", "directory": str(tmp_path / "images")},
            "clients": {"speed_factors": [1.0, 1.0, 2.0, 2.0]},
            "clustering": {"rate_ladder": [1.0, 0.5]},
            "model": {"conv_channels": [4], "dense_width": 8},
            "training": {"rounds": 2, "local_epochs": 1, "batch_size": 8, "learning_rate": 0.05},
            "distillation": {"count": 6, "holdout_count": 6},
        }
    raw = load_config_dict(CONFIGS / "quickstart.yaml")
    for section, values in QUICKSTART_VARIANTS[name].items():
        raw[section].update(values)
    raw["output"] = {"write_checkpoints": True}
    return raw


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The output directory of each golden run, run once per module."""

    outs = {}

    def run(name: str) -> Path:
        if name not in outs:
            root = tmp_path_factory.mktemp(name)
            path = root / "exp.yaml"
            path.write_text(yaml.safe_dump(golden_config(name, root)))
            assert main(["run", "--config", str(path), "--out", str(root / "out")]) == 0
            outs[name] = root / "out"
        return outs[name]

    return run


def output_sha256(out: Path) -> str:
    h = hashlib.sha256()
    files = [out / "cluster_report.txt", *(out / "checkpoints").iterdir()]
    for rel in sorted(str(f.relative_to(out)) for f in files):
        h.update(rel.encode() + b"\0" + (out / rel).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(METRICS_SHA256))
def test_metrics_bytes_are_pinned(name, golden_run):
    out = golden_run(name)
    assert sha256((out / "metrics.jsonl").read_bytes()) == METRICS_SHA256[name]


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_report_and_checkpoint_bytes_are_pinned(name, golden_run):
    assert output_sha256(golden_run(name)) == OUTPUT_SHA256[name]


@pytest.mark.parametrize("name", sorted(DEFAULT_TWIN))
def test_variant_metrics_differ_from_default_twin(name, golden_run):
    variant, twin = (golden_run(n) / "metrics.jsonl" for n in (name, DEFAULT_TWIN[name]))
    assert variant.read_bytes() != twin.read_bytes()


@pytest.mark.parametrize("name", sorted(ECHO_SHA256))
def test_resolved_echo_bytes_are_pinned(name):
    text = resolve_config(load_config_dict(CONFIGS / name)).echo_text()
    assert sha256(text.encode()) == ECHO_SHA256[name]
