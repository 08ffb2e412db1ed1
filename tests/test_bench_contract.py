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

import fedsim.engine
from fedsim.clustering import ClientProfile
from fedsim.data import make_blobs
from fedsim.engine import ClusterState, FedConfig, split_batches
from fedsim.models import build_pruned_spec, init_params, mlp_spec

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_callable():
    spans = load_tracer().SPANS
    assert spans
    for module, attr, _span, _counted in spans:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_forward_cached_takes_the_batch_third():
    # the tracer counts local samples as len(args[2]) of each forward call
    params = list(inspect.signature(fedsim.engine.forward_cached).parameters)
    assert params[2] == "batch"


def traced(monkeypatch):
    """A tracer whose wrappers replace every span target for this test only."""

    module = load_tracer()
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
    states = [ClusterState(c, s, init_params(s, c), (c,)) for c, s in enumerate(specs)]
    batches = split_batches(np.random.default_rng(1).normal(size=(9, 5)), 4)  # 3 batches
    cfg = FedConfig(loss_mode="combined", global_epochs=2)
    fedsim.engine.stage2_dml(states, batches, cfg)
    steps = 3 * 2 * len(batches)
    assert {span: tracer.calls[span] for span in STEP_SPANS} == dict.fromkeys(STEP_SPANS, steps)
    assert tracer.calls["losses.kl"] == steps
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

    def recorded(global_params, contributions, real=fedsim.engine.heterofl_aggregate):
        merged.append([p.layout.spans for p in contributions])
        return real(global_params, contributions)

    monkeypatch.setattr(fedsim.engine, "heterofl_aggregate", recorded)
    rounds = 3
    result = run_heterofl(rounds)
    members = [s.spec.layout.spans for s in result.states for _ in s.member_ids]
    assert len(members) == 5
    assert merged == [members] * rounds

