"""Command line harness: files written, exit codes, reproducibility."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import fedsim
from fedsim.cli import SUMMARY_COLUMNS, main
from fedsim.clustering import load_durations
from fedsim.models import load_checkpoint


def tiny_config(**overrides) -> dict:
    raw = {
        "seed": 5,
        "dataset": {"classes": 3, "train_per_class": 8, "test_per_class": 4, "dim": 4},
        "clients": {"speed_factors": [1.0, 1.0, 2.0, 4.0]},
        "model": {"hidden": [6]},
        "training": {"rounds": 2, "local_epochs": 1, "batch_size": 8, "learning_rate": 0.1},
        "distillation": {"count": 6, "holdout_count": 6},
    }
    for section, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(section), dict):
            raw[section].update(value)
        else:
            raw[section] = value
    return raw


def write_config(tmp_path, raw, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def read_metrics(out_dir):
    return [json.loads(line) for line in (out_dir / "metrics.jsonl").read_text().splitlines()]


# ------------------------------------------------------------------ run


def test_run_writes_the_full_output_set(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0

    assert (out / "config.yaml").is_file()
    assert (out / "cluster_report.txt").is_file()
    assert (out / "summary.csv").is_file()
    lines = read_metrics(out)
    assert len(lines) == 2
    for i, record in enumerate(lines):
        assert record["round"] == i
        assert set(record) >= {
            "round", "client_weighted_accuracy", "data_weighted_accuracy",
            "unweighted_accuracy", "mean_local_loss", "stage2_kl",
        }
        assert "wall_seconds" not in record

    with (out / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert list(rows[0]) == list(SUMMARY_COLUMNS)
    assert rows[0]["algorithm"] == "fedtsa"
    assert float(rows[0]["total_wall_seconds"]) > 0.0

    stdout = capsys.readouterr().out
    assert "round 1/2" in stdout
    assert "done: 2 rounds" in stdout


def test_run_is_deterministic_across_invocations(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
        tmp_path / "b" / "metrics.jsonl"
    ).read_bytes()


def test_echoed_config_reproduces_the_run(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    echoed = str(tmp_path / "a" / "config.yaml")
    main(["run", "--config", echoed, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
        tmp_path / "b" / "metrics.jsonl"
    ).read_bytes()
    first = yaml.safe_load((tmp_path / "a" / "config.yaml").read_text())
    second = yaml.safe_load((tmp_path / "b" / "config.yaml").read_text())
    first["output"].pop("directory"), second["output"].pop("directory")
    assert first == second


def test_seed_override_changes_the_run(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "99"])
    a, b = read_metrics(tmp_path / "a"), read_metrics(tmp_path / "b")
    assert a != b
    echoed = yaml.safe_load((tmp_path / "b" / "config.yaml").read_text())
    assert echoed["seed"] == 99


def test_algo_override_lands_in_the_summary(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--algo", "fedavg"])
    with (tmp_path / "o" / "summary.csv").open() as fh:
        row = next(csv.DictReader(fh))
    assert row["algorithm"] == "fedavg"
    assert row["clusters"] == "1"


def test_flags_echo_the_same_config_as_the_file_setting_them(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, tiny_config())
    argv = ["run", "--config", cfg, "--seed", "7", "--algo", "fedavg", "--out", str(out)]
    assert main(argv) == 0
    by_flags = (out / "config.yaml").read_bytes()
    shutil.rmtree(out)
    raw = tiny_config(seed=7, training={"algorithm": "fedavg"}, output={"directory": str(out)})
    assert main(["run", "--config", write_config(tmp_path, raw, "set.yaml")]) == 0
    assert (out / "config.yaml").read_bytes() == by_flags


def test_default_output_directory_is_derived(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, tiny_config(), name="myexp.yaml")
    assert main(["run", "--config", cfg]) == 0
    out = tmp_path / "runs" / "myexp-fedtsa-seed5"
    assert (out / "metrics.jsonl").is_file()


def test_checkpoints_round_trip(tmp_path):
    raw = tiny_config(output={"write_checkpoints": True})
    cfg = write_config(tmp_path, raw)
    main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    ck_dir = tmp_path / "o" / "checkpoints"
    paths = sorted(ck_dir.glob("cluster*.npz"))
    assert paths
    spec, params = load_checkpoint(paths[0])
    assert params.tensors
    for tensor in params.tensors.values():
        assert np.all(np.isfinite(tensor))


def test_run_refuses_to_append_to_existing_metrics(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_config())
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "metrics.jsonl").read_bytes()
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert (out / "metrics.jsonl").read_bytes() == first
    assert "already exists" in capsys.readouterr().err


def test_unknown_config_key_fails_before_output(tmp_path, capsys):
    raw = tiny_config()
    raw["training"]["lerning_rate"] = 0.5
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()
    assert "training.lerning_rate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,value,flag",
    [("training", [1, 2], ["--algo", "fedavg"]), ("output", 7, ["--out", "D"])],
)
def test_override_on_a_section_that_is_not_a_mapping_is_a_config_error(
    section, value, flag, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    raw = tiny_config()
    raw[section] = value
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", cfg, *flag]) == 1
    assert f"config error: {section}: expected a mapping of settings" in capsys.readouterr().err
    assert not (tmp_path / "D").exists() and not (tmp_path / "runs").exists()


def test_config_error_raised_inside_the_run_writes_nothing(tmp_path, capsys):
    # prepare_run reserves the holdout and clusters the clients after the
    # config resolved; one cluster has no stage-2 peer unless it includes itself
    one_cluster = tiny_config(
        clients={"speed_factors": [1.0] * 4, "profile_noise_sd": 0.0},
        distillation={"include_self": False},
    )
    cases = [
        ({"clients": {"count": 4}, "distillation": {"count": 500}}, "holdout of 500 leaves no training data"),
        (one_cluster, "distillation.include_self: a single cluster has no peers to distil from"),
    ]
    for n, (raw, message) in enumerate(cases):
        cfg = write_config(tmp_path, raw, name=f"exp{n}.yaml")
        out = tmp_path / f"o{n}"
        for _ in range(2):  # so the same command can be run again
            assert main(["run", "--config", cfg, "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "distillation, key",
    [({"count": 500}, "distillation.count"), ({"holdout_count": 500}, "distillation.holdout_count")],
    ids=["count", "holdout_count"],
)
def test_holdout_error_names_the_key_that_sets_it(tmp_path, capsys, distillation, key):
    cfg = write_config(tmp_path, {"clients": {"count": 4}, "distillation": distillation})
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {key}: holdout of 500 leaves no training data (have 180)" in err
    assert not out.exists()


def write_image_classes(root, rng, side=4):
    for c in range(2):
        (root / f"c{c}").mkdir(parents=True)
        for i in range(4):
            np.save(root / f"c{c}" / f"s{i}.npy", rng.normal(size=(1, side, side)))


@pytest.mark.parametrize("where", ["dataset", "distillation", "resampled distillation"])
def test_a_non_finite_sample_fails_before_output(tmp_path, capsys, where):
    # resampled: round 0 draws 3 of the 8 files and skips the bad one,
    # which round 1 draws
    rng = np.random.default_rng(0)
    for split in ("train", "test", "distill"):
        write_image_classes(tmp_path / split, rng)
    bad = tmp_path / ("train" if where == "dataset" else "distill") / "c1" / "s2.npy"
    image = np.load(bad)
    image[0, 1, 2] = np.nan
    np.save(bad, image)
    raw = tiny_config(
        dataset={"source": "directory", "directory": str(tmp_path)},
        clients={"speed_factors": [1.0, 2.0]},
        model={"kind": "cnn", "conv_channels": [2], "dense_width": 4},
        distillation={"source": "directory", "directory": str(tmp_path / "distill"), "count": 8},
    )
    if where == "resampled distillation":
        raw["distillation"].update(count=3, resample=True)
        raw["training"]["rounds"] = 4
    raw["distillation"].pop("holdout_count")
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert f"{bad}: sample holds a non-finite value" in capsys.readouterr().err
    assert not out.exists()


def truncate(path):
    path.write_bytes(path.read_bytes()[:-1])


def pickle_objects(path):
    np.save(path, np.array([{"pixels": 1}], dtype=object), allow_pickle=True)


def write_netpbm(path):
    path.write_bytes(b"P2 4 4 255\n" + b"0 " * 16)


@pytest.mark.parametrize(
    "spoil, message",
    [(truncate, "data is 127 bytes"), (pickle_objects, "must hold numbers"), (write_netpbm, "not a readable")],
    ids=["truncated", "pickled", "not npy"],
)
@pytest.mark.parametrize("where", ["dataset", "distillation"])
def test_an_unreadable_npy_fails_before_output_naming_the_file(tmp_path, capsys, spoil, message, where):
    rng = np.random.default_rng(0)
    for split in ("train", "test", "distill"):
        write_image_classes(tmp_path / split, rng)
    bad = tmp_path / ("train" if where == "dataset" else "distill") / "c0" / "s1.npy"
    spoil(bad)
    raw = tiny_config(
        dataset={"source": "directory", "directory": str(tmp_path)},
        clients={"speed_factors": [1.0, 2.0]},
        model={"kind": "cnn", "conv_channels": [2], "dense_width": 4},
        distillation={"source": "directory", "directory": str(tmp_path / "distill"), "count": 8},
    )
    raw["distillation"].pop("holdout_count")
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {bad}: " in err and message in err and "Traceback" not in err
    assert not out.exists()


def test_a_run_of_zero_rounds_writes_the_echo_and_an_empty_metrics_file(tmp_path):
    cfg = write_config(tmp_path, tiny_config(training={"rounds": 0}))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "config.yaml").is_file()
    assert (out / "metrics.jsonl").read_bytes() == b""


def test_missing_durations_file_fails_before_output(tmp_path):
    raw = tiny_config(clients={"speed_factors": [1.0, 2.0], "durations_file": "nowhere.csv"})
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("resample", [False, True])
def test_distillation_samples_that_do_not_fit_the_model_fail_before_output(tmp_path, capsys, resample):
    # flat samples of 7 features against a model of 4 inputs
    rng = np.random.default_rng(0)
    for name in ("a", "b"):
        d = tmp_path / "distill" / "train" / name
        d.mkdir(parents=True)
        for i in range(4):
            np.save(d / f"s{i}.npy", rng.normal(size=7))
    raw = tiny_config(
        distillation={
            "source": "directory", "directory": str(tmp_path / "distill" / "train"), "resample": resample
        }
    )
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: distillation.directory: samples of shape (7,) do not fit model input (4,)" in err, err
    assert not out.exists()


def test_test_samples_of_another_shape_than_train_fail_before_output(tmp_path, capsys):
    rng = np.random.default_rng(0)
    write_image_classes(tmp_path / "train", rng, side=6)
    write_image_classes(tmp_path / "test", rng, side=5)
    raw = tiny_config(
        dataset={"source": "directory", "directory": str(tmp_path)},
        clients={"speed_factors": [1.0, 2.0]},
        model={"kind": "cnn", "conv_channels": [2], "dense_width": 4},
        distillation={"source": "noise"},
    )
    raw["distillation"].pop("holdout_count")
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: dataset.directory: " in err and "(1, 6, 6) and test/ samples of shape (1, 5, 5)" in err, err
    assert not out.exists()


def test_output_path_collision_exits_2(tmp_path):
    cfg = write_config(tmp_path, tiny_config())
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    assert main(["run", "--config", cfg, "--out", str(blocker)]) == 2


# a second-round local update that raises what no fedsim code raises
FAIL_IN_ROUND_1 = """
import runpy
import fedsim.engine

trained = fedsim.engine.local_update

def local_update(*args, **kwargs):
    if args[5].spawn_key[-1] == 1:  # the stream's last key is the round
        raise ValueError("planted failure")
    return trained(*args, **kwargs)

fedsim.engine.local_update = local_update
runpy.run_module("fedsim.cli", run_name="__main__", alter_sys=True)
"""


def test_exit_codes_of_the_module_run_as_a_program(tmp_path):
    src = str(Path(fedsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = write_config(tmp_path, tiny_config(training={"rounds": 3}))

    def fedsim_run(*args, program=("-m", "fedsim.cli")):
        command = [sys.executable, *program, "run", "--config", cfg, *args]
        return subprocess.run(command, env=env, capture_output=True, text=True, cwd=tmp_path)

    assert fedsim_run("--out", "ok").returncode == 0

    bad = fedsim_run("--algo", "sgd", "--out", "bad")
    assert bad.returncode == 1, bad.stderr
    assert "config error: training.algorithm: must be one of" in bad.stderr
    assert not (tmp_path / "bad").exists()

    failed = fedsim_run("--out", "failed", program=("-c", FAIL_IN_ROUND_1))
    assert failed.returncode == 2, failed.stderr
    assert "Traceback" in failed.stderr and "ValueError: planted failure" in failed.stderr
    text = (tmp_path / "failed" / "metrics.jsonl").read_text()
    assert text.endswith("\n")
    assert [json.loads(line)["round"] for line in text.splitlines()] == [0]
    assert (tmp_path / "failed" / "config.yaml").read_text() == (
        (tmp_path / "ok" / "config.yaml").read_text().replace("directory: ok", "directory: failed")
    )


# ------------------------------------------------------- profile / cluster


def test_profile_writes_a_loadable_durations_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, tiny_config())
    assert main(["profile", "--config", cfg, "--out", "durations.csv"]) == 0
    durations = load_durations(tmp_path / "durations.csv")
    assert sorted(durations) == [0, 1, 2, 3]
    assert all(d > 0 for d in durations.values())


def test_profiled_durations_scale_with_the_speed_factor(tmp_path):
    raw = tiny_config(clients={"speed_factors": [1.0, 10.0], "profile_noise_sd": 0.0})
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "durations.csv"
    main(["profile", "--config", cfg, "--out", str(out)])
    durations = load_durations(out)
    assert durations[1] == pytest.approx(10.0 * durations[0])


def test_cluster_reports_without_training(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_config())
    report_path = tmp_path / "report.txt"
    assert main(["cluster", "--config", cfg, "--out", str(report_path)]) == 0
    stdout = capsys.readouterr().out
    assert "cluster" in stdout.lower()
    assert report_path.read_text().strip() in stdout


@pytest.mark.parametrize("algorithm", ["fedtsa", "fedavg", "fedprox", "heterofl"])
def test_cluster_and_run_agree_on_the_report(tmp_path, algorithm):
    cfg = write_config(tmp_path, tiny_config(training={"algorithm": algorithm}))
    report_path = tmp_path / "report.txt"
    assert main(["cluster", "--config", cfg, "--out", str(report_path)]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert report_path.read_text() == (tmp_path / "o" / "cluster_report.txt").read_text()


# ------------------------------------------------------------------ misc


def test_no_arguments_prints_help_and_fails(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_missing_config_file_exits_1(tmp_path):
    assert main(["run", "--config", str(tmp_path / "ghost.yaml")]) == 1


def test_a_config_that_picks_output_formats_is_rejected(tmp_path, capsys):
    # metrics.jsonl and summary.csv are always written; no setting chooses them
    cfg = write_config(tmp_path, tiny_config(output={"formats": ["csv"]}))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "config error: output.formats: unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("learning_rate", [1.0, 5.0, 50.0])
def test_an_exploding_loss_stops_the_run_before_round_3(learning_rate, cpus, tmp_path, capsys, monkeypatch):
    # finite batch losses far above 100 * ln(10) = 230 are divergence too; no
    # errstate here, so an overflow warning (an error under this suite's
    # filterwarnings) would fail the run before the ceiling stops it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    raw = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / "quickstart.yaml").read_text())
    raw["training"]["learning_rate"] = learning_rate
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"round [01], cluster \d+, client \d+: local training diverged: batch loss \S+ \(ceiling 230.3\)", err), err
    assert len(read_metrics(out)) < 2


def test_diverging_run_exits_2_and_keeps_earlier_rounds(tmp_path, capsys):
    raw = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / "quickstart.yaml").read_text())
    raw["training"].update(learning_rate=500, rounds=10)
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"round \d+, cluster \d+, client \d+: local training diverged", err), err
    assert (out / "config.yaml").is_file()
    lines = read_metrics(out)
    assert len(lines) <= 7
    assert [r["round"] for r in lines] == list(range(len(lines)))
    assert all(np.isfinite(r["mean_local_loss"]) for r in lines)
