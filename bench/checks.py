"""Output checks for one ``fedsim run``, computed apart from fedsim.

Nothing here imports fedsim.  Checkpoints are read straight from their
``.npz`` layout, and the forward pass is written afresh: dense layers as a
matrix product, conv and maxpool as direct sums and maxima over the k x k
window offsets (fedsim uses im2col and argmax gathers).  Every check returns a
list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np


def load_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """(spec dict, tensors) from a ``fedsim-checkpoint-v1`` file."""

    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(str(archive["__header__"]))
        tensors = {k: np.array(archive[k]) for k in archive.files if k != "__header__"}
    if header.get("format") != "fedsim-checkpoint-v1":
        raise ValueError(f"{path}: unknown checkpoint format {header.get('format')!r}")
    return header["spec"], tensors


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int) -> np.ndarray:
    n, _, h, wid = x.shape
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (wid + 2 * padding - k) // stride + 1
    y = np.zeros((n, w.shape[0], out_h, out_w))
    for di in range(k):
        for dj in range(k):
            patch = xp[:, :, di : di + stride * out_h : stride, dj : dj + stride * out_w : stride]
            y += np.einsum("nchw,oc->nohw", patch, w[:, :, di, dj])
    return y + b[None, :, None, None]


def _maxpool(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    _, _, h, wid = x.shape
    out_h = (h - k) // stride + 1
    out_w = (wid - k) // stride + 1
    windows = [
        x[:, :, di : di + stride * out_h : stride, dj : dj + stride * out_w : stride]
        for di in range(k)
        for dj in range(k)
    ]
    return np.max(np.stack(windows), axis=0)


def reference_forward(spec: dict, tensors: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Class logits of a checkpointed model on a batch of inputs."""

    x = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(spec["layers"]):
        kind = layer["kind"]
        if kind == "dense":
            x = x @ tensors[f"layer{i}.weight"].T + tensors[f"layer{i}.bias"]
        elif kind == "conv":
            x = _conv(x, tensors[f"layer{i}.weight"], tensors[f"layer{i}.bias"],
                      layer["stride"], layer["padding"])
        elif kind == "relu":
            x = np.maximum(x, 0.0)
        elif kind == "maxpool":
            x = _maxpool(x, layer["kernel"], layer["stride"])
        elif kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return x


def accuracy(spec: dict, tensors: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray) -> float:
    hits = int(np.sum(np.argmax(reference_forward(spec, tensors, x), axis=1) == y))
    return hits / len(y)


def _numbers(value):
    if isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    else:
        yield value


def parse_metrics(text: str, rounds: int) -> tuple[list[dict], list[str]]:
    """Rounds from ``metrics.jsonl``: exactly ``rounds`` lines, every value a
    finite number (fedsim writes a non-finite value as ``null``)."""

    lines = text.splitlines()
    if len(lines) != rounds:
        return [], [f"metrics.jsonl has {len(lines)} lines, expected {rounds}"]
    records, problems = [], []
    for n, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"metrics line {n + 1} is not JSON: {exc}")
            continue
        if rec.get("round") != n:
            problems.append(f"metrics line {n + 1} is round {rec.get('round')}, expected {n}")
        for v in _numbers(rec):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                problems.append(f"metrics line {n + 1} holds a non-finite value {v!r}")
                break
        records.append(rec)
    return records, problems


_CLUSTER_LINE = re.compile(
    r"^cluster (\d+): size=(\d+) mean_duration=(\S+)s rate=(\S+) clients=\[([\d, ]*)\]$"
)


def parse_cluster_report(text: str) -> list[dict]:
    """One dict per cluster line of ``cluster_report.txt``, fastest first."""

    clusters = []
    for line in text.splitlines():
        m = _CLUSTER_LINE.match(line)
        if m:
            ids = [int(s) for s in m.group(5).split(",") if s.strip()]
            clusters.append({
                "size": int(m.group(2)), "mean": float(m.group(3)),
                "rate": float(m.group(4)), "clients": ids,
            })
    return clusters


def check_designed_tiers(clusters: list[dict], tier_of: list[int], ladder: list[float]) -> list[str]:
    """Every client sits in the cluster of its designed tier, and the tiers
    carry the ladder's rates from fastest to slowest."""

    expected = [sorted(i for i, t in enumerate(tier_of) if t == k) for k in range(len(ladder))]
    got = [sorted(c["clients"]) for c in clusters]
    problems = []
    if got != expected:
        problems.append(f"clusters {got} do not match the designed tiers {expected}")
    rates = [c["rate"] for c in clusters]
    if rates != ladder:
        problems.append(f"cluster rates {rates}, expected {ladder}")
    return problems


def check_rates_fall(clusters: list[dict], client_count: int) -> list[str]:
    """Member counts cover the fleet; the fastest cluster has rate 1 and the
    rate falls as the mean duration rises."""

    problems = []
    if sum(c["size"] for c in clusters) != client_count:
        problems.append(f"cluster sizes sum to {sum(c['size'] for c in clusters)}, not {client_count}")
    if sorted(i for c in clusters for i in c["clients"]) != list(range(client_count)):
        problems.append("cluster members are not each client exactly once")
    if not clusters or clusters[0]["rate"] != 1.0:
        problems.append("the fastest cluster does not train at rate 1.0")
    for a, b in zip(clusters, clusters[1:]):
        if not (b["mean"] > a["mean"] and b["rate"] < a["rate"]):
            problems.append(f"rate does not fall as duration rises: {a} then {b}")
    return problems


def check_cluster_accuracy(
    last: dict, checkpoints: list[Path], test_x: np.ndarray, test_y: np.ndarray
) -> list[str]:
    """The last round's ``cluster_accuracy`` equals the accuracy of each
    cluster checkpoint under the reference forward pass."""

    reported = last["cluster_accuracy"]
    if len(reported) != len(checkpoints):
        return [f"{len(reported)} cluster accuracies for {len(checkpoints)} checkpoints"]
    problems = []
    for c, path in enumerate(checkpoints):
        spec, tensors = load_checkpoint(path)
        mine = accuracy(spec, tensors, test_x, test_y)
        if mine != reported[c]:
            problems.append(f"cluster {c}: reported accuracy {reported[c]!r}, recomputed {mine!r}")
    return problems


def check_heterofl_prefix(global_path: Path, cluster_paths: list[Path]) -> list[str]:
    """Every cluster model is bitwise the leading block of the global model."""

    _, full = load_checkpoint(global_path)
    problems = []
    for path in cluster_paths:
        _, part = load_checkpoint(path)
        for name, tensor in part.items():
            block = full[name][tuple(slice(0, s) for s in tensor.shape)]
            if block.dtype != tensor.dtype or block.tobytes() != tensor.tobytes():
                problems.append(f"{path.name}: {name} differs from the prefix of the global model")
    return problems


def check_stage2_kl(records: list[dict]) -> list[str]:
    return [
        f"round {r['round']}: stage-2 KL {r['stage2_kl']!r} is not above 0"
        for r in records
        if not r["stage2_kl"] > 0
    ]


def check_accuracy_floor(last: dict, floor: float) -> list[str]:
    acc = last["client_weighted_accuracy"]
    return [] if acc >= floor else [f"final client-weighted accuracy {acc} is below {floor}"]
