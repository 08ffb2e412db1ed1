"""The names the benchmark's tracer wraps must exist with the signatures it reads.

``bench/tracer.py`` replaces public functions of ``fedsim.cli`` and
``fedsim.engine`` by timing wrappers.  A refactor that renames or reshapes one
of them would break the traced benchmark without failing any program test;
these checks fail first.  The per-step functions must also keep their call
counts, so the traced counts stay comparable from one version to the next.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest
import yaml

import fedsim.cli
import fedsim.engine
from fedsim.clustering import ClientProfile
from fedsim.data import make_blobs
from fedsim.engine import ClusterState, FedConfig, split_batches
from fedsim.nn import model_forward
from fedsim.models import build_pruned_spec, cnn_spec, init_params, mlp_spec, spec_to_dict

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """A module of ``bench/`` loaded by path, as ``bench_<name>``."""

    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_callable():
    spans = load_bench("tracer").SPANS
    assert spans
    for module, attr, _span, _counted in spans:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_forward_cached_takes_the_batch_third():
    # the tracer counts local samples as len(args[2]) of each forward call
    params = list(inspect.signature(fedsim.engine.forward_cached).parameters)
    assert params[2] == "batch"


def traced(monkeypatch):
    """A tracer whose wrappers replace every span target for this test only."""

    module = load_bench("tracer")
    tracer = module.Tracer()
    for target, attr, span, counted in module.SPANS:
        monkeypatch.setattr(target, attr, tracer.wrap(getattr(target, attr), span, counted))
    return tracer


STEP_SPANS = ("nn.forward", "losses.cross_entropy", "nn.backward", "nn.sgd_step")


def test_a_local_update_calls_each_step_function_once_per_batch(monkeypatch):
    tracer = traced(monkeypatch)
    spec = mlp_spec((5,), (6,), 3)
    rng = np.random.default_rng(0)
    features, labels = rng.normal(size=(10, 5)), rng.integers(0, 3, size=10)
    epochs = 3  # batches of 4, 4 and 2
    cfg = FedConfig(local_epochs=epochs, batch_size=4, learning_rate=0.1)
    fedsim.engine.local_update(spec, init_params(spec, 0), features, labels, cfg, 1)
    assert {span: tracer.calls[span] for span in STEP_SPANS} == dict.fromkeys(STEP_SPANS, epochs * 3)
    assert tracer.counts["engine.local_steps"] == epochs * 3
    assert tracer.counts["engine.local_samples"] == epochs * 10
    assert tracer.calls["engine.local_update"] == 1


def test_stage2_calls_each_step_function_once_per_cluster_per_batch(monkeypatch):
    tracer = traced(monkeypatch)
    base = mlp_spec((5,), (6,), 3)
    specs = [build_pruned_spec(base, rate) for rate in (1.0, 0.7, 0.4)]
    states = [ClusterState(c, s, init_params(s, c)) for c, s in enumerate(specs)]
    batches = split_batches(np.random.default_rng(1).normal(size=(9, 5)), 4)  # 3 batches
    fedsim.engine.stage2_dml(states, batches, FedConfig(global_epochs=2))
    steps = 3 * 2 * len(batches)
    step_spans = ("nn.forward", "nn.backward", "nn.sgd_step", "losses.kl")
    assert {span: tracer.calls[span] for span in step_spans} == dict.fromkeys(step_spans, steps)
    assert tracer.calls["losses.cross_entropy"] == 0
    assert tracer.counts["engine.distill_steps"] == steps
    assert tracer.counts["engine.local_steps"] == 0


def run_heterofl(rounds):
    """A heterofl run of five clients in two speed tiers."""

    train, test = make_blobs(3, 40, 10, 5, seed=1)
    profiles = [ClientProfile(i, s) for i, s in enumerate([1.0, 1.0, 1.0, 2.5, 2.5])]
    cfg = FedConfig(algorithm="heterofl", rounds=rounds, local_epochs=1, batch_size=20,
                    profile_noise_sd=0.0, master_seed=2)
    return fedsim.engine.run_experiment(cfg, mlp_spec((5,), (8,), 3), train, test, profiles)


def test_a_heterofl_run_extracts_each_cluster_model_once_per_round(monkeypatch):
    # the traced models.init and models.extract_overlap spans time these
    # calls: one overlap check per cluster, one extraction per cluster at
    # the start and after every round's merge
    calls = {"overlap_map": 0, "extract_overlap": 0}
    for name in calls:
        def counted(*args, real=getattr(fedsim.engine, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(fedsim.engine, name, counted)
    rounds = 3
    result = run_heterofl(rounds)
    clusters = len(result.states)
    assert clusters == 2
    assert calls == {"overlap_map": clusters, "extract_overlap": clusters * (rounds + 1)}


def test_a_heterofl_run_merges_every_member_once_per_round(monkeypatch):
    # engine.heterofl_aggregate.alloc_mb is the allocation peak of the first
    # traced call, so every round must merge the same set: each member's model
    merged = []

    def recorded(global_params, contributions, *args, real=fedsim.engine.heterofl_aggregate, **kwargs):
        merged.append([p.layout.spans for p in contributions])
        return real(global_params, contributions, *args, **kwargs)

    monkeypatch.setattr(fedsim.engine, "heterofl_aggregate", recorded)
    rounds = 3
    result = run_heterofl(rounds)
    members = [s.spec.layout.spans for s in result.states for _ in result.assignment.members(s.cluster_id)]
    assert len(members) == 5
    assert merged == [members] * rounds


def test_every_round_line_is_printed_inside_the_one_run_experiment_call(tmp_path, monkeypatch, capsys):
    # bench/run.py times rounds by the gaps between the "round k/N" lines,
    # and the tracer takes rounds_end when fedsim.cli.run_experiment returns
    printed = []  # (output before the call, output during the call)

    def watched(*args, real=fedsim.cli.run_experiment, **kwargs):
        before = capsys.readouterr().out
        result = real(*args, **kwargs)
        printed.append((before, capsys.readouterr().out))
        return result

    monkeypatch.setattr(fedsim.cli, "run_experiment", watched)
    raw = {
        "dataset": {"classes": 3, "train_per_class": 8, "test_per_class": 4, "dim": 4},
        "clients": {"speed_factors": [1.0, 1.0, 2.0, 4.0]},
        "model": {"hidden": [6]},
        "training": {"rounds": 3, "local_epochs": 1, "batch_size": 8},
        "distillation": {"count": 6},
    }
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(raw))
    assert fedsim.cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    after = capsys.readouterr().out
    assert len(printed) == 1
    (before, during), = printed
    round_lines = [line for line in during.splitlines() if line.startswith("round ")]
    assert [line.split(":")[0] for line in round_lines] == ["round 1/3", "round 2/3", "round 3/3"]
    assert not [line for line in (before + after).splitlines() if line.startswith("round ")]


@pytest.mark.parametrize("pool", [2, 3])
def test_model_forward_matches_the_checkers_reference_forward(pool):
    # the benchmark marks a cnn-images run incorrect when a checkpoint's
    # accuracy under checks.reference_forward differs from the reported one
    checks = load_bench("checks")
    rng = np.random.default_rng(pool)
    for trial in range(6):
        layers = int(rng.integers(1, 3))
        side = 7 if pool == 2 else 10  # every pool crops a border
        spec = cnn_spec(
            (int(rng.integers(1, 3)), side, side),
            tuple(int(c) for c in rng.integers(1, 5, size=layers)),
            int(rng.integers(2, 5)),
            pool=pool,
            dense_width=int(rng.integers(2, 9)),
        )
        params = init_params(spec, trial)
        x = rng.normal(size=(12, *spec.input_shape))
        # the zero half of each image makes conv outputs of +0.0 (biases
        # start at zero), which relu keeps next to the -0.0 of negative
        # outputs, so the pools see ties of -0.0 and +0.0
        x[:, :, : side // 2] = 0.0
        got = model_forward(spec, params, x)
        want = checks.reference_forward(spec_to_dict(spec), dict(params.tensors), x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))
