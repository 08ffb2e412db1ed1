"""Rounds run in forked helper processes give the bytes of one process.

``run_experiment`` forks ``min(CPUs, clients) - 1`` helpers before the first
round, where CPUs is ``len(os.sched_getaffinity(0))``.  Each helper trains a
share of the clients, and runs Stage 2 and the evaluation of the clusters it
owns.  These tests set that count by patching ``os.sched_getaffinity``, so
they fork up to two helpers on any Linux machine, and record every fork
through a wrapper of ``os.fork``.
"""

import os
import signal
import time
import traceback

import numpy as np
import pytest

import fedsim.engine
from fedsim.clustering import ClientProfile
from fedsim.data import make_blobs
from fedsim.engine import FedConfig, run_experiment
from fedsim.errors import EngineError
from fedsim.models import mlp_spec

BASE = mlp_spec((6,), (10,), 3)
TRAIN, TEST = make_blobs(3, 40, 12, 6, seed=11)
PROFILES = [ClientProfile(i, s) for i, s in enumerate([1.0, 1.0, 1.6, 1.6, 1.6, 2.5, 2.5])]
# three clusters (rates 1.0, 0.5 and 0.25) under config(kde_bandwidth=1.0): at
# two CPUs the parent owns cluster 0 and the helper clusters 1 and 2, at three
# each process owns one
THREE_TIERS = [ClientProfile(i, s) for i, s in enumerate([1.0, 1.0, 2.0, 2.0, 2.0, 4.0, 4.0])]


def config(**overrides) -> FedConfig:
    fields = dict(rounds=2, local_epochs=2, batch_size=8, learning_rate=0.1, distill_count=12,
                  holdout_count=12, profile_noise_sd=0.01, master_seed=4)
    fields.update(overrides)
    return FedConfig(**fields)


@pytest.fixture(autouse=True)
def time_limit():
    """A helper that never ends fails its test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the next runs see ``n`` CPUs; it returns the list
    that collects the pid of every process forked in this test."""

    forked = []

    def fork(real=os.fork):
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def pin(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        return forked

    return pin


def outputs(run) -> tuple:
    """A finished run's metrics and every model's bytes."""

    models = [s.params for s in run.states] + [run.global_params] * (run.global_params is not None)
    return [m.as_dict() for m in run.metrics], [p.flat.tobytes() for p in models]


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("partition", ["iid", "dirichlet"])
@pytest.mark.parametrize("algorithm", ["fedtsa", "fedavg", "fedprox", "heterofl"])
def test_every_algorithm_gives_the_same_bytes_at_one_two_and_three_cpus(algorithm, partition, cpus):
    cfg = config(algorithm=algorithm, partition_mode=partition, fedprox_mu=0.3)
    runs = []
    for count in (1, 2, 3):
        forked = cpus(count)
        before = len(forked)
        runs.append(outputs(run_experiment(cfg, BASE, TRAIN, TEST, PROFILES)))
        assert len(forked) - before == count - 1
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert len(runs[0][0]) == cfg.rounds
    assert_reaped(forked)


def test_shares_cover_every_client_once_and_balance_the_cost():
    run = fedsim.engine.prepare_run(config(partition_mode="dirichlet"), BASE, TRAIN, TEST, PROFILES)
    cluster_of = run.assignment.cluster_of
    for count in (1, 2, 3):
        shares = fedsim.engine._split(run, count)[0]
        assert sorted(pos for share in shares for pos in share) == list(range(len(PROFILES)))
        for share in shares:
            assert share == sorted(share, key=lambda pos: (cluster_of[pos], pos))
    batches = -(-run.partition.sizes() // 8) * 2
    cost = batches * np.array([run.states[c].spec.layout.size for c in cluster_of])
    loads = [sum(cost[share]) for share in fedsim.engine._split(run, 2)[0]]
    assert abs(loads[0] - loads[1]) <= cost.max()


def test_owners_cover_every_cluster_once_and_balance_the_cost():
    run = fedsim.engine.prepare_run(config(kde_bandwidth=1.0), BASE, TRAIN, TEST, THREE_TIERS)
    sizes = np.array([state.spec.layout.size for state in run.states])
    assert sizes.size == 3
    for count in (1, 2, 3, 4):
        owners = fedsim.engine._split(run, count)[1]
        assert len(owners) == count
        assert sorted(c for share in owners for c in share) == [0, 1, 2]
        assert all(share == sorted(share) for share in owners)
        assert 0 in owners[0]  # the costliest cluster stays with the parent
        loads = [sum(sizes[share]) for share in owners if share]
        assert max(loads) - min(loads) <= sizes.max()
    assert fedsim.engine._split(run, 2)[1] == [[0], [1, 2]]


def test_a_helper_that_owns_no_cluster_stays_out_of_stage_2(cpus):
    run = fedsim.engine.prepare_run(config(), BASE, TRAIN, TEST, PROFILES)
    assert fedsim.engine._split(run, 3)[1] == [[0], [1], []]
    runs = []
    for count in (1, 3):
        forked = cpus(count)
        runs.append(outputs(run_experiment(config(global_epochs=2), BASE, TRAIN, TEST, PROFILES)))
    assert runs[1] == runs[0]
    assert len(forked) == 2
    assert_reaped(forked)


@pytest.mark.parametrize(
    "overrides",
    [dict(include_self_in_consensus=False), dict(distill_resample=True, holdout_count=30),
     dict(global_epochs=2), dict(distill_kind="noise")],
    ids=["include-self-false", "resample", "two-global-epochs", "noise-source"],
)
def test_the_server_half_gives_the_same_bytes_at_one_two_and_three_cpus(overrides, cpus):
    cfg = config(kde_bandwidth=1.0, **overrides)
    runs = []
    for count in (1, 2, 3):
        forked = cpus(count)
        runs.append(outputs(run_experiment(cfg, BASE, TRAIN, TEST, THREE_TIERS)))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert len(runs[0][0][0]["cluster_accuracy"]) == 3
    assert len(forked) == 3
    assert_reaped(forked)


def test_no_helper_is_forked_without_rounds_clients_or_fork(cpus, monkeypatch):
    forked = cpus(3)
    run_experiment(config(rounds=0), BASE, TRAIN, TEST, PROFILES)
    run_experiment(config(algorithm="fedavg"), BASE, TRAIN, TEST, PROFILES[:1])
    assert forked == []
    want = outputs(run_experiment(config(), BASE, TRAIN, TEST, PROFILES))
    assert len(forked) == 2
    for name in ("fork", "sched_getaffinity"):
        with monkeypatch.context() as patch:
            patch.delattr(os, name)
            assert outputs(run_experiment(config(), BASE, TRAIN, TEST, PROFILES)) == want
    assert len(forked) == 2
    assert_reaped(forked)


class Stop(Exception):
    pass


def failing_on_round(exc):
    def on_round(metrics):
        raise exc

    return on_round


@pytest.mark.parametrize(
    "on_round, lr, raised",
    [
        (None, 0.1, None),
        (None, 1e6, EngineError),
        (failing_on_round(Stop()), 0.1, Stop),
        (failing_on_round(KeyboardInterrupt()), 0.1, KeyboardInterrupt),
    ],
    ids=["finished", "diverged", "on-round-error", "interrupted"],
)
def test_no_helper_outlives_the_run(on_round, lr, raised, cpus):
    forked = cpus(3)
    run = lambda: run_experiment(config(learning_rate=lr), BASE, TRAIN, TEST, PROFILES, on_round=on_round)
    if raised is None:
        run()
    else:
        with np.errstate(all="ignore"), pytest.raises(raised):
            run()
    assert len(forked) == 2
    assert_reaped(forked)


def test_helpers_forked_before_a_failed_fork_are_reaped(cpus, monkeypatch):
    forked, forking = cpus(3), os.fork

    def fork():
        if forked:
            raise OSError("no more processes")
        return forking()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match="^no more processes$"):
        run_experiment(config(), BASE, TRAIN, TEST, PROFILES)
    assert len(forked) == 1
    assert_reaped(forked)


def failing_from(first: int, make_error):
    """A ``local_update`` that raises ``make_error(client id)`` for every
    client from training position ``first`` on."""

    run = fedsim.engine.prepare_run(config(), BASE, TRAIN, TEST, PROFILES)
    order = [pos for c in range(run.assignment.cluster_count) for pos in run.assignment.members(c)]
    failing = {PROFILES[pos].client_id for pos in order[first:]}
    real = fedsim.engine.local_update

    def update(spec, params, features, labels, cfg, seed, **kwargs):
        client = seed.spawn_key[1]
        if client in failing:
            raise make_error(client)
        return real(spec, params, features, labels, cfg, seed, **kwargs)

    return update, run.assignment.cluster_of[order[first]], PROFILES[order[first]].client_id


@pytest.mark.parametrize("first", range(len(PROFILES)))
def test_the_first_failure_in_member_order_is_raised_at_every_cpu_count(first, cpus, monkeypatch):
    update, cluster, client = failing_from(first, lambda c: EngineError(f"client {c} broke"))
    monkeypatch.setattr(fedsim.engine, "local_update", update)
    messages = []
    for count in (1, 2, 3):
        forked = cpus(count)
        with pytest.raises(EngineError) as caught:
            run_experiment(config(), BASE, TRAIN, TEST, PROFILES)
        messages.append(str(caught.value))
    assert messages == [f"round 0, cluster {cluster}, client {client}: client {client} broke"] * 3
    assert_reaped(forked)


@pytest.mark.parametrize("first", [0, 3, 6])
def test_other_exceptions_of_a_helper_are_raised_as_they_are(first, cpus, monkeypatch):
    # a RuntimeWarning, as a NumPy warning under filterwarnings = error raises
    update, _, client = failing_from(first, lambda c: RuntimeWarning(f"overflow in client {c}"))
    monkeypatch.setattr(fedsim.engine, "local_update", update)
    run = fedsim.engine.prepare_run(config(), BASE, TRAIN, TEST, PROFILES)
    pos = next(p for p, profile in enumerate(PROFILES) if profile.client_id == client)
    for count in (1, 2, 3):
        forked = cpus(count)
        with pytest.raises(RuntimeWarning, match=f"^overflow in client {client}$") as caught:
            run_experiment(config(), BASE, TRAIN, TEST, PROFILES)
        assert_names_the_update_frame(caught.value, pos not in fedsim.engine._split(run, count)[0][0])
    assert_reaped(forked)


def assert_names_the_update_frame(exc, in_helper):
    """``exc`` came from a helper, with the helper's traceback as its cause,
    or from this process, whose own traceback holds the frame."""

    if in_helper:
        assert isinstance(exc.__cause__, fedsim.engine._RemoteTraceback)
        assert ", in update\n" in str(exc.__cause__)
    else:
        assert exc.__cause__ is None
    assert "".join(traceback.format_exception(exc)).count(", in update\n") == 1


def planted(positions, real=fedsim.engine._Learner.check_finite):
    """A ``_Learner.check_finite`` that sees a NaN loss at each planted
    ``(step, cluster)`` of Stage 2, counting steps per cluster from 0."""

    steps = {}

    def check_finite(self, losses, stage):
        if stage.endswith(": distillation"):
            c = int(stage.split()[1].rstrip(":"))
            steps[c] = steps.get(c, -1) + 1
            if (steps[c], c) in positions:
                losses = [float("nan")]
        return real(self, losses, stage)

    return check_finite


@pytest.mark.parametrize(
    "positions, first",
    [({(0, 0)}, 0), ({(0, 2)}, 2), ({(3, 1)}, 1), ({(1, 2), (1, 1)}, 1), ({(1, 0), (1, 2)}, 0),
     ({(2, 1), (1, 2)}, 2)],
    ids=["parent-first-step", "helper-first-step", "last-step", "two-helpers", "parent-and-helper",
         "earlier-step-wins"],
)
def test_a_stage2_divergence_gives_the_serial_message_at_every_cpu_count(positions, first, cpus, monkeypatch):
    # two batches and two global epochs: four steps per cluster
    cfg = config(kde_bandwidth=1.0, global_epochs=2)
    messages = []
    for count in (1, 2, 3):
        monkeypatch.setattr(fedsim.engine._Learner, "check_finite", planted(positions))  # counts from 0 again
        forked = cpus(count)
        with pytest.raises(EngineError) as caught:
            run_experiment(cfg, BASE, TRAIN, TEST, THREE_TIERS)
        messages.append(str(caught.value))
    assert messages == [f"round 0, stage 2: cluster {first}: distillation diverged: non-finite loss"] * 3
    assert_reaped(forked)


@pytest.mark.parametrize("first", [0, 1, 2])
def test_the_first_evaluation_failure_in_cluster_order_is_raised_at_every_cpu_count(first, cpus, monkeypatch):
    # every cluster from ``first`` on fails to evaluate
    cfg = config(kde_bandwidth=1.0)
    run = fedsim.engine.prepare_run(cfg, BASE, TRAIN, TEST, THREE_TIERS)
    rates = [state.spec.pruning_rate for state in run.states]
    real = fedsim.engine.evaluate

    def evaluate(spec, *args):
        if spec.pruning_rate <= rates[first]:
            raise RuntimeWarning(f"overflow at rate {spec.pruning_rate}")
        return real(spec, *args)

    monkeypatch.setattr(fedsim.engine, "evaluate", evaluate)
    for count in (1, 2, 3):
        forked = cpus(count)
        with pytest.raises(RuntimeWarning, match=f"^overflow at rate {rates[first]}$") as caught:
            run_experiment(cfg, BASE, TRAIN, TEST, THREE_TIERS)
        in_helper = first not in fedsim.engine._split(run, count)[1][0]
        assert isinstance(caught.value.__cause__, fedsim.engine._RemoteTraceback) == in_helper
        if in_helper:
            assert ", in evaluate\n" in str(caught.value.__cause__)
    assert_reaped(forked)


@pytest.mark.parametrize("count", [2, 3])
def test_a_helper_that_dies_is_an_engine_error_naming_the_round(count, cpus, monkeypatch):
    parent, real = os.getpid(), fedsim.engine.local_update

    def update(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(fedsim.engine, "local_update", update)
    forked = cpus(count)
    with pytest.raises(EngineError, match=r"^round 0: training helper \d+ has exited$"):
        run_experiment(config(), BASE, TRAIN, TEST, PROFILES)
    assert len(forked) == count - 1
    assert_reaped(forked)


@pytest.mark.parametrize("side, cause", [("write", BrokenPipeError), ("read", EOFError)])
@pytest.mark.parametrize("count", [2, 3])
def test_a_helper_that_exits_between_rounds_is_an_engine_error_naming_the_next_round(side, cause, count, cpus,
                                                                                     monkeypatch):
    # "write": the parent kills the last helper after round 0 and waits for it
    # to exit, unreaped, so its round-1 write finds no reader; "read": every
    # helper exits once it has read round 1, so the parent's read ends first
    forked = cpus(count)
    parent, real = os.getpid(), fedsim.engine._train_share

    def train_share(run, t, *args):
        if side == "read" and t == 1 and os.getpid() != parent:
            os._exit(3)
        return real(run, t, *args)

    def on_round(metrics):
        if side == "write":
            os.kill(forked[-1], signal.SIGKILL)
            os.waitid(os.P_PID, forked[-1], os.WEXITED | os.WNOWAIT)

    monkeypatch.setattr(fedsim.engine, "_train_share", train_share)
    with pytest.raises(EngineError) as caught:
        run_experiment(config(), BASE, TRAIN, TEST, PROFILES, on_round=on_round)
    dead = forked[-1] if side == "write" else forked[0]
    assert str(caught.value) == f"round 1: training helper {dead} has exited"
    assert isinstance(caught.value.__cause__, cause)
    assert len(forked) == count - 1
    assert_reaped(forked)


@pytest.mark.parametrize(
    "where, message",
    [("kl_divergence", r"^round 0, stage 2: helper \d+ has exited$"), ("evaluate", r"^round 0: helper \d+ has exited$")],
    ids=["stage-2", "evaluation"],
)
@pytest.mark.parametrize("count", [2, 3])
def test_a_helper_that_dies_in_the_server_half_is_an_engine_error_naming_the_round(where, message, count, cpus,
                                                                                    monkeypatch):
    parent, real = os.getpid(), getattr(fedsim.engine, where)

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(fedsim.engine, where, dying)
    forked = cpus(count)
    with pytest.raises(EngineError, match=message):
        run_experiment(config(kde_bandwidth=1.0), BASE, TRAIN, TEST, THREE_TIERS)
    assert len(forked) == count - 1
    assert_reaped(forked)


def test_helpers_exit_when_the_parent_is_killed():
    # a forked stand-in for the parent forks two helpers, reports their pids
    # and kills itself after round 0; each helper's command pipe then ends
    pids_r, pids_w = os.pipe()
    stand_in = os.fork()
    if stand_in == 0:
        try:
            real = os.fork

            def fork():
                pid = real()
                if pid:
                    os.write(pids_w, pid.to_bytes(8, "little"))
                return pid

            os.fork = fork
            os.sched_getaffinity = lambda pid: {0, 1, 2}
            run_experiment(config(rounds=3), BASE, TRAIN, TEST, PROFILES,
                           on_round=lambda metrics: os.kill(os.getpid(), signal.SIGKILL))
        finally:
            os._exit(1)
    os.close(pids_w)
    with open(pids_r, "rb") as pipe:
        helpers = [int.from_bytes(pipe.read(8), "little") for _ in range(2)]
    assert all(helpers)
    assert os.waitpid(stand_in, 0)[1] == signal.SIGKILL
    deadline = time.monotonic() + 30
    while any(map(running, helpers)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(map(running, helpers))


def running(pid) -> bool:
    """Whether ``pid`` (not a child of this process) still runs: it exists and
    is not a zombie."""

    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def failed_here(exc):
    """``exc`` raised and caught in this frame, so it carries a traceback."""

    try:
        raise exc
    except Exception as caught:
        return caught


MESSAGES = [
    np.arange(100_000, dtype=np.float64),  # larger than a pipe's 64 KB buffer
    [float(i) / 7 for i in range(20_000)],  # so is the pickle itself
    ((np.arange(3.0), 1.5), [(np.ones((2, 2)), -0.0, (np.full(4, np.nan), 2))], 3.25),
    (np.empty(0), np.empty((0, 3)), np.arange(6.0).reshape(2, 3).T, np.asfortranarray(np.arange(12.0).reshape(3, 4)),
     np.arange(-3, 4, dtype=np.int64), np.array([True, False, True]), np.arange(10.0)[::3]),
    None,
    [],
]


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert got.flags.f_contiguous or not want.flags.f_contiguous  # a Fortran array keeps its order
        assert got.flags.writeable
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert type(got) is type(want) and repr(got) == repr(want)


def test_every_message_crosses_a_pipe_from_a_forked_writer_unchanged():
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            with open(writer, "wb", buffering=0) as pipe:
                for message in MESSAGES:
                    fedsim.engine._send(pipe, message)
                fedsim.engine._send(pipe, fedsim.engine._Sent(failed_here(ValueError("bad shard 3"))))
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    with open(reader, "rb", buffering=0) as pipe:
        received = [fedsim.engine._recv(pipe) for _ in MESSAGES]
        sent = fedsim.engine._recv(pipe)
        with pytest.raises(EOFError):
            fedsim.engine._recv(pipe)
    assert os.waitpid(pid, 0)[1] == 0
    for got, want in zip(received, MESSAGES):
        assert_same(got, want)
    arrays = received[3]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])
    assert type(sent) is ValueError and str(sent) == "bad shard 3"
    assert isinstance(sent.__cause__, fedsim.engine._RemoteTraceback)
    assert ", in failed_here\n" in str(sent.__cause__)
