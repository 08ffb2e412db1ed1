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
    "cnn-images": "a16a5fc8d5424b9111c100d8ebbb13698d39b61bc67c9cab11fb98d5ca68e614",
}

# over cluster_report.txt and checkpoints/*, each file's relative path and
# bytes in sorted path order
OUTPUT_SHA256 = {
    "quickstart-fedtsa": "1ca5c1dd0e74bf17d3f49b3302dc02d3638c6d895e2e534ce63aeb1e841d7111",
    "quickstart-fedavg": "0966586429ae1368ce55a45be0c1f81ef9f3817142fe21fc7222b7b8daf01f31",
    "quickstart-fedprox": "92b6768a1f4ddfbfe996caac48e014ad483e1678781e64344c871ba782159686",
    "quickstart-heterofl": "3fd4aa955a1269a6579d61258971fed8056a88e4ff477c6ad0d5cfd4136c5e4b",
    "quickstart-dirichlet": "c58d9835570eec400e3efec042a3b2f561186da982eaaa95fae137eb186e9a14",
    "cnn-images": "447227f6de4c27045db8a85f5b5ab822bbeaf4858dd78edcb86fa9ee5b56be1c",
}

ECHO_SHA256 = {
    "quickstart.yaml": "770913f0e04790d3e9e8b1a19137e1014bce23d87635f8c8ab4e5f5a9e8711d7",
    "full-protocol.yaml": "88ef2c394d7a289025c0a080d9d98d3d818c791b6adaf9f8451a904425c0eccd",
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
    variant = name.split("-", 1)[1]
    if variant == "dirichlet":
        raw["dataset"]["partition"] = "dirichlet"
    else:
        raw["training"]["algorithm"] = variant
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


@pytest.mark.parametrize("name", sorted(ECHO_SHA256))
def test_resolved_echo_bytes_are_pinned(name):
    text = resolve_config(load_config_dict(CONFIGS / name)).echo_text()
    assert sha256(text.encode()) == ECHO_SHA256[name]
