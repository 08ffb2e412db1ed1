"""Self-tests of the benchmark's output checks: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks


def _metrics_line(round_index: int, **overrides) -> str:
    rec = {
        "round": round_index,
        "cluster_accuracy": [0.9, 0.8],
        "client_weighted_accuracy": 0.85,
        "data_weighted_accuracy": 0.85,
        "unweighted_accuracy": 0.85,
        "mean_local_loss": 0.3,
        "stage2_kl": 0.1,
    }
    rec.update(overrides)
    return json.dumps(rec)


def _save(path, spec: dict, tensors: dict) -> None:
    header = json.dumps({"format": "fedsim-checkpoint-v1", "spec": spec})
    np.savez(path, __header__=np.array(header), **tensors)


def _layer(kind, kernel=3, stride=1, padding=0):
    return {"kind": kind, "width": None, "base_width": None, "kernel": kernel,
            "stride": stride, "padding": padding}


def test_good_metrics_pass():
    text = "\n".join(_metrics_line(r) for r in range(3)) + "\n"
    records, problems = checks.parse_metrics(text, 3)
    assert problems == [] and len(records) == 3


@pytest.mark.parametrize("bad", ["null", "NaN", "Infinity"])
def test_non_finite_loss_is_rejected(bad):
    lines = [_metrics_line(0), _metrics_line(1).replace('"mean_local_loss": 0.3', f'"mean_local_loss": {bad}')]
    _, problems = checks.parse_metrics("\n".join(lines), 2)
    assert any("non-finite" in p for p in problems)


def test_missing_round_line_is_rejected():
    text = "\n".join(_metrics_line(r) for r in range(2))
    _, problems = checks.parse_metrics(text, 3)
    assert problems == ["metrics.jsonl has 2 lines, expected 3"]
    skipped = "\n".join(_metrics_line(r) for r in (0, 2))
    _, problems = checks.parse_metrics(skipped, 2)
    assert any("expected 1" in p for p in problems)


def _tiny_classifier(tmp_path):
    spec = {"input_shape": [2], "class_count": 2, "pruning_rate": 1.0,
            "layers": [_layer("dense")]}
    tensors = {"layer0.weight": np.array([[1.0, 0.0], [0.0, 1.0]]), "layer0.bias": np.zeros(2)}
    path = tmp_path / "cluster0.npz"
    _save(path, spec, tensors)
    x = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 1.0], [1.0, 4.0]])
    y = np.array([0, 1, 1, 1])  # the third sample is misclassified: accuracy 3/4
    return path, x, y


def test_cluster_accuracy_matches_exactly(tmp_path):
    path, x, y = _tiny_classifier(tmp_path)
    assert checks.check_cluster_accuracy({"cluster_accuracy": [0.75]}, [path], x, y) == []


def test_cluster_accuracy_off_by_one_sample_is_rejected(tmp_path):
    path, x, y = _tiny_classifier(tmp_path)
    for reported in (0.5, 1.0):
        problems = checks.check_cluster_accuracy({"cluster_accuracy": [reported]}, [path], x, y)
        assert len(problems) == 1 and "recomputed 0.75" in problems[0]


def test_heterofl_prefix(tmp_path):
    spec = {"input_shape": [3], "class_count": 2, "pruning_rate": 1.0, "layers": [_layer("dense")]}
    rng = np.random.default_rng(0)
    full = {"layer0.weight": rng.normal(size=(4, 3)), "layer0.bias": rng.normal(size=4)}
    _save(tmp_path / "global.npz", spec, full)
    part = {"layer0.weight": full["layer0.weight"][:2, :3].copy(), "layer0.bias": full["layer0.bias"][:2].copy()}
    _save(tmp_path / "cluster0.npz", spec, part)
    assert checks.check_heterofl_prefix(tmp_path / "global.npz", [tmp_path / "cluster0.npz"]) == []
    part["layer0.weight"][1, 2] = np.nextafter(part["layer0.weight"][1, 2], np.inf)
    _save(tmp_path / "cluster1.npz", spec, part)
    problems = checks.check_heterofl_prefix(tmp_path / "global.npz", [tmp_path / "cluster1.npz"])
    assert problems == ["cluster1.npz: layer0.weight differs from the prefix of the global model"]


def test_designed_tiers():
    clusters = [
        {"size": 2, "mean": 20.0, "rate": 1.0, "clients": [3, 0]},
        {"size": 1, "mean": 25.0, "rate": 0.8, "clients": [1]},
        {"size": 1, "mean": 33.0, "rate": 0.6, "clients": [2]},
    ]
    ladder = [1.0, 0.8, 0.6]
    assert checks.check_designed_tiers(clusters, [0, 1, 2, 0], ladder) == []
    assert checks.check_designed_tiers(clusters, [0, 2, 1, 0], ladder) != []
    assert checks.check_designed_tiers(clusters[:2], [0, 1, 1, 0], ladder) != []


def test_rates_fall():
    clusters = [
        {"size": 2, "mean": 20.0, "rate": 1.0, "clients": [0, 2]},
        {"size": 1, "mean": 30.0, "rate": 0.7, "clients": [1]},
    ]
    assert checks.check_rates_fall(clusters, 3) == []
    assert checks.check_rates_fall(clusters, 4) != []
    clusters[1]["rate"] = 1.0
    assert checks.check_rates_fall(clusters, 3) != []


def test_dense_forward_by_hand():
    spec = {"layers": [_layer("dense"), _layer("relu"), _layer("dense")]}
    tensors = {
        "layer0.weight": np.array([[1.0, 2.0], [-1.0, 1.0]]),
        "layer0.bias": np.array([0.5, -4.0]),
        "layer2.weight": np.array([[1.0, 1.0], [2.0, -1.0]]),
        "layer2.bias": np.array([0.0, 1.0]),
    }
    x = np.array([[1.0, 3.0]])
    # hidden: [1 + 6 + 0.5, -1 + 3 - 4] = [7.5, -2] -> relu [7.5, 0]
    # logits: [7.5, 15 + 1]
    np.testing.assert_array_equal(checks.reference_forward(spec, tensors, x), [[7.5, 16.0]])


def test_conv_forward_by_hand():
    spec = {"layers": [
        _layer("conv", kernel=2), _layer("relu"), _layer("maxpool", kernel=2, stride=2),
        _layer("flatten"), _layer("dense"),
    ]}
    tensors = {
        "layer0.weight": np.array([[[[1.0, 0.0], [0.0, -1.0]]]]),
        "layer0.bias": np.array([1.0]),
        "layer4.weight": np.array([[1.0], [-2.0]]),
        "layer4.bias": np.array([0.0, 3.0]),
    }
    x = np.array([[[[1.0, 2.0, 0.0], [4.0, 0.0, 5.0], [1.0, 3.0, 2.0]]]])
    # conv (x[i,j] - x[i+1,j+1] + 1): [[1-0+1, 2-5+1], [4-3+1, 0-2+1]] = [[2, -2], [2, -1]]
    # relu -> [[2, 0], [2, 0]]; 2x2 maxpool -> 2; dense -> [2, -4 + 3]
    np.testing.assert_array_equal(checks.reference_forward(spec, tensors, x), [[2.0, -1.0]])


def test_padded_conv_by_hand():
    spec = {"layers": [_layer("conv", kernel=3, padding=1)]}
    kernel = np.zeros((1, 1, 3, 3))
    kernel[0, 0, 1, 2] = 1.0  # picks the right-hand neighbour
    tensors = {"layer0.weight": kernel, "layer0.bias": np.zeros(1)}
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    np.testing.assert_array_equal(checks.reference_forward(spec, tensors, x), [[[[2.0, 0.0], [4.0, 0.0]]]])
