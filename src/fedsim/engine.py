"""Federated training loop: local SGD, in-cluster averaging, mutual distillation.

A run is :func:`prepare_run`, which checks the inputs and sets up a
:class:`RunState`, then one :func:`run_round` per round: local updates, an
aggregation step, evaluation.  The algorithms differ only in how clients are
grouped and how their updates are merged:

* ``fedtsa``   -- duration-based clusters, per-cluster width; Stage 1 averages
  weights inside each cluster, Stage 2 runs deep mutual learning between the
  cluster models on server-side distillation inputs.
* ``fedavg``   -- a single cluster at a fixed width; Stage 1 only.
* ``fedprox``  -- ``fedavg`` plus a proximal term pulling local weights toward
  the round's starting model.
* ``heterofl`` -- duration-based clusters sharing one full-width global model;
  each coordinate is averaged over the clients whose submodel covers it.

A round runs in up to one process per CPU the process may use.
:func:`run_experiment` forks ``min(CPUs, clients) - 1`` helper processes
before the first round, and each process keeps, for the whole run, a share
of the client positions and a share of the clusters, each balanced by
estimated cost (see :class:`_Helpers`); the processes talk only in
:func:`_send` messages.  Each round:

* every process trains its clients: the parent sends every cluster's start
  vector to each helper, and each helper sends back the trained vector and
  the loss (or the exception) of each client of its share (see
  :func:`train_round`);
* the parent alone runs Stage 1, or the HeteroFL merge, and sends each
  helper the aggregated vectors of the clusters it owns;
* every process runs Stage 2 on the clusters it owns, in lockstep: for each
  batch the owners' logits are gathered in the parent and passed on, so every
  process sees all of them (see :func:`stage2_dml`); then it evaluates them.

An update is a pure function of its start vector, its rows and its own
``(client, round)`` stream, and a Stage-2 step of the consensus and its own
cluster's logits, so no output byte depends on the number of processes.

Every reduction over clients or clusters goes through one kernel,
:func:`_sorted_mean`, which sorts the operands per coordinate and sums them
one operand after another, slab by slab through a scratch buffer of about
1 MiB (a one-coordinate slab is widened to two columns, which NumPy does not
sum pairwise).  Results are bit-identical under any permutation of the inputs
and any slab size.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
from dataclasses import dataclass, field, fields, replace

import numpy as np

from fedsim.clustering import (
    ClientProfile,
    ClusterAssignment,
    cluster_profiles,
    measure_durations,
)
from fedsim.data import (
    DISTILLATION_KINDS,
    LabeledDataset,
    Partition,
    draw_from_directory,
    draw_from_holdout,
    partition_dirichlet,
    partition_iid,
    reserve_indices,
)
from fedsim.errors import ConfigError, DimensionError, EngineError, FedsimError
from fedsim.losses import (
    cross_entropy,
    kl_divergence,
    kl_divergence_model_led,  # not called here: bench/tracer.py wraps it in this module
    softmax_with_temperature,
)
from fedsim.models import (
    ModelParams,
    ModelSpec,
    build_pruned_spec,
    extract_overlap,
    init_params,
    overlap_map,
    validate_params,
)
from fedsim.nn import backward_from_cache, forward_cached, model_forward, sgd_step
from fedsim.settings import coerce, setting

ALGORITHMS = ("fedtsa", "fedavg", "fedprox", "heterofl")
STAGE1_WEIGHTINGS = ("uniform", "data_size")
PARTITION_MODES = ("iid", "dirichlet")

# Disjoint random streams spawned off the master seed.  Each consumer gets its
# own spawn key so adding rounds, clients or draws never shifts another
# stream's values.
_STREAM_INIT = 0  # (stream, cluster_id) - per-cluster model init
_STREAM_LOCAL = 1  # (stream, client_id, round) - minibatch order per client
_STREAM_PARTITION = 2
_STREAM_HOLDOUT = 3
_STREAM_DISTILL = 4  # (stream, round) when resampling, (stream, 0) otherwise
_STREAM_PROFILE = 5
_STREAM_DATASET = 6  # blobs generation, drawn by config.build_datasets


def stream_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    """A named, independent random stream derived from the master seed."""

    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))


@dataclass(frozen=True)
class FedConfig:
    """Everything a run needs besides the data, the model and the clients.

    Defaults follow the full protocol (batch 100, 100 local epochs, learning
    rate 0.03, 100 rounds, temperature 5, one global distillation epoch,
    200 distillation samples); desk-scale runs override the counts, not the
    structure.  Each field declares its config path, kind, bounds and
    default once (see :mod:`fedsim.settings`).
    """

    algorithm: str = setting("training.algorithm", ALGORITHMS, "fedtsa")
    rounds: int = setting("training.rounds", int, 100, ge=0)
    local_epochs: int = setting("training.local_epochs", int, 100, ge=0)
    batch_size: int = setting("training.batch_size", int, 100, ge=1)
    learning_rate: float = setting("training.learning_rate", float, 0.03, gt=0.0)
    stage1_weighting: str = setting("training.stage1_weighting", STAGE1_WEIGHTINGS, "uniform")

    # Stage-2 mutual distillation
    temperature: float = setting("distillation.temperature", float, 5.0, gt=0.0)
    global_epochs: int = setting("distillation.global_epochs", int, 1, ge=1)
    include_self_in_consensus: bool = setting("distillation.include_self", bool, True)
    distill_kind: str = setting("distillation.source", DISTILLATION_KINDS, "holdout")
    distill_count: int = setting("distillation.count", int, 200, ge=1)
    distill_prompts: tuple[str, ...] = setting("distillation.prompts", str, (), many=True)
    distill_directory: str | None = setting("distillation.directory", str)
    distill_resample: bool = setting("distillation.resample", bool, False)
    holdout_count: int | None = setting("distillation.holdout_count", int, ge=1)

    # baselines
    fedprox_mu: float = setting("training.fedprox_mu", float, 0.01, ge=0.0)
    homogeneous_pruning: float = setting(
        "training.homogeneous_pruning", float, 1.0, gt=0.0, le=1.0
    )

    # data partitioning
    partition_mode: str = setting("dataset.partition", PARTITION_MODES, "iid")
    dirichlet_alpha: float = setting("dataset.dirichlet_alpha", float, 0.6, gt=0.0)

    # profiling and clustering
    workload_units: float = setting("clients.workload_units", float, 10.0, gt=0.0)
    profile_noise_sd: float = setting(
        "clients.profile_noise_sd", float, 0.05, ge=0.0, lt=1.0 / 3.0
    )
    kde_bandwidth: float | None = setting("clustering.bandwidth", float, gt=0.0)
    rate_ladder: tuple[float, ...] | None = setting(
        "clustering.rate_ladder", float, many=True, gt=0.0, le=1.0
    )
    refine_kde: bool = setting("clustering.refine", bool, True)

    master_seed: int = setting("seed", int, 0, ge=0)

    @staticmethod
    def path(name: str) -> str:
        """The dotted config key that sets field ``name``."""

        return FedConfig.__dataclass_fields__[name].metadata["setting"].path

    def validate(self) -> None:
        """Check every field against its declaration, then the cross-field rules.

        Errors name the field; a bad list entry is reported at the list.
        """

        for f in fields(self):
            coerce(f.metadata["setting"], getattr(self, f.name), f.name, entry_paths=False)
        if self.distill_kind == "directory" and not self.distill_directory:
            raise ConfigError(
                "required when distill_kind is 'directory'", field="distill_directory"
            )
        if self.rate_ladder is not None and not self.rate_ladder:
            raise ConfigError("must be non-empty when set", field="rate_ladder")


@dataclass
class ClusterState:
    """One cluster's model between rounds; its members are ``assignment.members(cluster_id)``."""

    cluster_id: int
    spec: ModelSpec  # its pruning_rate is the cluster's rate
    params: ModelParams


@dataclass(frozen=True)
class RoundMetrics:
    """What one round produced; every field is a pure function of the config."""

    round_index: int
    cluster_accuracy: tuple[float, ...]
    client_weighted_accuracy: float
    data_weighted_accuracy: float
    unweighted_accuracy: float
    mean_local_loss: float
    stage2_kl: float

    def as_dict(self) -> dict:
        return {
            "round": self.round_index,
            "cluster_accuracy": list(self.cluster_accuracy),
            "client_weighted_accuracy": self.client_weighted_accuracy,
            "data_weighted_accuracy": self.data_weighted_accuracy,
            "unweighted_accuracy": self.unweighted_accuracy,
            "mean_local_loss": self.mean_local_loss,
            "stage2_kl": self.stage2_kl,
        }


@dataclass
class RunState:
    """A run between rounds, as :func:`prepare_run` sets it up.

    Only ``states``, ``global_params`` (heterofl's full-width model) and
    ``metrics`` change from round to round.  The rest derives from the
    config and the master seed alone, so :func:`prepare_run` rebuilds it
    exactly: the measured profiles, the partition, the clusters, the holdout
    rows and the round-0 distillation draw (every round's when not
    resampling).  ``train`` and ``test`` are the caller's datasets, held,
    not copied.
    """

    config: FedConfig
    train: LabeledDataset
    test: LabeledDataset
    profiles: list[ClientProfile]
    partition: Partition
    assignment: ClusterAssignment
    holdout: np.ndarray | None
    distill_batches: list[np.ndarray]
    states: list[ClusterState]
    global_params: ModelParams | None
    metrics: list[RoundMetrics] = field(default_factory=list)


# The working set, in float64s (1 MiB), that sizes every array whose size the
# code picks itself: the scratch buffer of one _sorted_mean call, and the
# widest activation of one evaluation chunk
_SLAB_ELEMENTS = 1 << 17


def _sorted_mean(
    operands: list[np.ndarray], out: np.ndarray | None = None, weights: np.ndarray | None = None
) -> np.ndarray:
    """Per-coordinate mean of same-shaped arrays in a canonical summation order.

    The operands are taken in slabs of rows along axis 0.  Each slab is
    stacked into one scratch buffer, sorted there in place per coordinate and
    summed one operand after another, so the result is invariant (bitwise) to
    the order the operands arrive in and to the slab size.  NumPy sums a
    lone ``(m, 1)`` column pairwise once ``m >= 8``, so a slab of exactly one
    coordinate is widened to two columns.  With ``weights`` (one per
    operand) each slab is scaled before the sort and the sum is not divided.
    The result is written into ``out`` (new when omitted), which is returned.
    """

    m = len(operands)
    if out is None:
        out = np.empty_like(operands[0])
    rows = out.shape[0]
    row = math.prod(out.shape[1:])
    step = max(1, _SLAB_ELEMENTS // (m * row))
    scratch = np.empty(m * max(min(step, rows) * row, 2))
    for lo in range(0, rows, step):
        block = out[lo : lo + step]
        if block.size == 1:
            stack = scratch[: 2 * m].reshape(m, 2)
            np.stack([op[lo : lo + 1].reshape(1) for op in operands], out=stack[:, :1])
            stack[:, 1] = stack[:, 0]
        else:
            stack = scratch[: m * block.size].reshape(m, block.size)
            np.stack([op[lo : lo + step] for op in operands], out=stack.reshape(m, *block.shape))
        if weights is not None:
            stack *= weights[:, None]
        stack.sort(axis=0)
        total = np.add.reduce(stack, axis=0)[: block.size].reshape(block.shape)
        if weights is None:
            np.divide(total, m, out=block)
        else:
            block[...] = total
    return out


class _Learner:
    """One model trained in place: the step that local SGD and Stage 2 share.

    On entry ``params`` is checked against ``spec`` and copied; the copy's
    flat vector is trained in place, each step writing the gradients into a
    second :class:`ModelParams` of the same layout.  The caller's parameters
    are never written.  With a proximal reference and ``mu > 0``,
    ``(mu/2) * ||w - ref||^2`` joins each step's objective; the reference's
    flat vector is read, not copied.
    """

    def __init__(
        self,
        spec: ModelSpec,
        params: ModelParams,
        prox_reference: ModelParams | None = None,
        mu: float = 0.0,
    ):
        validate_params(spec, params)
        self.spec = spec
        self.params = params.copy()
        self.grad = ModelParams(params.layout)
        self.prox = None
        if prox_reference is not None and mu > 0:
            validate_params(spec, prox_reference)
            self.prox = (mu, prox_reference.flat)

    def step(self, caches: list, logit_grad: np.ndarray, learning_rate: float) -> None:
        """Back-propagate ``logit_grad`` through ``caches`` and take one SGD step."""

        backward_from_cache(self.spec, self.params, caches, logit_grad, self.grad)
        flat, grad = self.params.flat, self.grad.flat
        if self.prox is not None:
            mu, reference = self.prox
            grad += mu * (flat - reference)
        sgd_step(flat, grad, learning_rate)

    def check_finite(self, losses: list[float], stage: str) -> None:
        """Raise :class:`EngineError` when a loss or a parameter is not finite."""

        if not all(map(math.isfinite, losses)):
            raise EngineError(f"{stage} diverged: non-finite loss")
        if not np.isfinite(self.params.flat).all():
            name = next(n for n, t in self.params.tensors.items() if not np.isfinite(t).all())
            raise EngineError(f"{stage} diverged: non-finite values in {name}")


def local_update(
    spec: ModelSpec,
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    config: FedConfig,
    seed,
    prox_reference: ModelParams | None = None,
) -> tuple[ModelParams, float]:
    """``local_epochs`` epochs of minibatch SGD on cross-entropy.

    Each epoch reshuffles; a final short batch is processed, not dropped.
    With ``prox_reference`` set, the proximal term ``(mu/2) * ||w - ref||^2``
    is added to every batch objective.  Zero epochs (or a zero learning rate)
    return the starting values; the reported loss is the mean over all batch
    losses before their steps (NaN when no batch ran).  The first batch loss
    above ``100 * ln(class_count)`` (a hundred times a uniform guess's loss)
    or not finite raises :class:`EngineError` before its step, as does a
    non-finite final parameter.  ``params`` (and the proximal reference) and
    the label range are checked against ``spec`` once, on entry
    (:class:`DimensionError`); neither input is written.
    """

    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = features.shape[0]
    if n == 0:
        raise EngineError("client has no training data")
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match {n} samples")
    if labels.min() < 0 or labels.max() >= spec.class_count:
        raise DimensionError(f"labels must lie in [0, {spec.class_count})")
    model = _Learner(spec, params, prox_reference, config.fedprox_mu)
    rng = np.random.default_rng(seed)
    ceiling = 100 * math.log(spec.class_count)
    batch_losses: list[float] = []
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            take = order[start : start + config.batch_size]
            logits, caches = forward_cached(spec, model.params, features.take(take, axis=0))
            loss, logit_grad = cross_entropy(logits, labels.take(take))
            if not loss <= ceiling:
                raise EngineError(f"local training diverged: batch loss {loss:.4g} (ceiling {ceiling:.4g})")
            model.step(caches, logit_grad, config.learning_rate)
            batch_losses.append(loss)
    model.check_finite(batch_losses, "local training")
    mean_loss = float(np.mean(batch_losses)) if batch_losses else float("nan")
    return model.params, mean_loss


def stage1_aggregate(
    params_list: list[ModelParams],
    data_sizes: list[int] | None = None,
    weighting: str = "uniform",
) -> ModelParams:
    """Average client parameters inside one cluster (all of one layout).

    The members' flat vectors are reduced per coordinate by
    :func:`_sorted_mean`, slab by slab through one scratch buffer.
    ``uniform`` sums in sorted order and divides by the count; ``data_size``
    scales each slab by the clients' shares of the cluster's samples before
    the sort and does not divide.  Either way the result is bit-identical
    under permutation of the clients.
    """

    if not params_list:
        raise EngineError("cannot aggregate an empty cluster")
    layout = params_list[0].layout
    for p in params_list[1:]:
        layout.check(p.layout)
    weights = None
    if weighting == "data_size":
        if data_sizes is None or len(data_sizes) != len(params_list):
            raise EngineError("data_size weighting needs one sample count per client")
        sizes = np.asarray(data_sizes, dtype=np.float64)
        if np.any(sizes <= 0):
            raise EngineError("data_size weighting needs positive sample counts")
        weights = sizes / sizes.sum()
    return ModelParams(layout, _sorted_mean([p.flat for p in params_list], weights=weights))


def heterofl_aggregate(global_params: ModelParams, contributions: list[ModelParams]) -> ModelParams:
    """Per-coordinate covering mean over heterogeneous submodels.

    Each client contributes to exactly the leading block its submodel covers,
    so a tensor's shape is its extent in the global tensor; every global
    coordinate becomes the mean of the clients covering it, and
    coordinates nobody covers keep their previous value.  The merge writes
    into a copy of the global vector cell by cell: on each axis the block
    stops of all clients cut a tensor into a grid of cells, every coordinate
    of a cell is covered by the same clients, and one :func:`_sorted_mean`
    call per cell sorts and sums the values of those clients only, slab by
    slab through a scratch buffer of about 1 MiB.  When every client covers
    everything, every tensor is arithmetic-for-arithmetic the uniform Stage-1
    average, one-coordinate tensors included.  The mean is always unweighted:
    ``training.stage1_weighting`` does not apply to this merge.
    """

    if not contributions:
        raise EngineError("cannot aggregate an empty client set")
    merged = global_params.copy()
    for name, out in merged.tensors.items():
        blocks = []
        for params in contributions:
            block = params.tensors.get(name)
            if block is None:
                raise DimensionError(f"{name}: contribution is missing the tensor")
            if block.ndim != out.ndim or any(b > g for b, g in zip(block.shape, out.shape)):
                raise DimensionError(
                    f"{name}: contribution shape {block.shape} does not fit {out.shape}"
                )
            blocks.append(block)
        cuts = [
            sorted({0, size, *(b.shape[axis] for b in blocks)})
            for axis, size in enumerate(out.shape)
        ]
        for bounds in itertools.product(*(zip(c[:-1], c[1:]) for c in cuts)):
            covering = [b for b in blocks if all(hi <= stop for (_, hi), stop in zip(bounds, b.shape))]
            if not covering:
                continue
            cell = tuple(slice(lo, hi) for lo, hi in bounds)
            _sorted_mean([b[cell] for b in covering], out[cell])
    return merged


def split_batches(features: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Fixed-order minibatch views of a distillation pool."""

    return [features[i : i + batch_size] for i in range(0, features.shape[0], batch_size)]


def stage2_dml(
    states: list[ClusterState],
    batches: list[np.ndarray],
    config: FedConfig,
    lockstep: _Lockstep | None = None,
) -> tuple[list[ClusterState], float]:
    """Deep mutual learning between cluster models on unlabeled inputs.

    Per batch, every cluster's logits are snapshotted before anyone moves;
    the consensus is the plain mean of the snapshot (including the cluster's
    own logits unless configured otherwise), softened at the distillation
    temperature, and each cluster takes one SGD step toward it.  Batches are
    sequential: later batches see earlier steps.  Returns new states plus the
    mean per-step KL value (0.0 with no batches), summed in order of epoch,
    batch, then cluster.  A non-finite loss or parameter after any step
    raises :class:`EngineError` naming the cluster.  Each cluster's
    parameters are checked against its spec once, on entry, and trained in
    place on a private copy; the input states are not written.

    ``lockstep`` spreads the clusters over processes (see :class:`_Helpers`):
    this process steps only ``lockstep.owned``, and for each batch it gathers
    the other clusters' logits from the processes that step them, so every
    process builds the same consensus.  The first failure of any process, in
    order of epoch, batch, then cluster, is raised, and the per-step KL
    values of every process join the sum.  Without one, this process steps
    every cluster and its gather does nothing.

    With a single cluster the consensus equals the cluster's own
    distribution, the gradient is exactly zero, and parameters come back
    unchanged.
    """

    if not states:
        raise EngineError("stage 2 needs at least one cluster")
    m = len(states)
    if m == 1 and not config.include_self_in_consensus:
        raise EngineError("consensus over zero peers: a single cluster must include itself")
    lockstep = lockstep or _Lockstep(range(m))
    owned = lockstep.owned
    steps = config.global_epochs * len(batches)
    kl = np.zeros((steps, len(owned)))
    # this process's first failure, ((step, phase, cluster), exception), in the
    # order one process meets them: step -1 is the entry check, phase 0 the
    # forward passes, phase 1 the steps, cluster -1 the shared consensus
    failure = None
    models = {}
    try:
        for c in owned:
            where = (-1, 0, c)
            models[c] = _Learner(states[c].spec, states[c].params)
    except Exception as exc:
        failure = where, exc
    for step in range(steps):
        batch = batches[step % len(batches)]
        # every cluster's forward pass runs before any cluster steps
        forwards = []
        if failure is None:
            try:
                for c in owned:
                    where = (step, 0, c)
                    forwards.append(forward_cached(states[c].spec, models[c].params, batch))
            except Exception as exc:
                failure = where, exc
        logits = lockstep.gather(None if failure is not None else [own for own, _ in forwards])
        if logits is None:
            break
        try:
            where = (step, 1, -1)
            shared = _sorted_mean(logits) if config.include_self_in_consensus else None
            for i, c in enumerate(owned):
                where = (step, 1, c)
                consensus = shared if shared is not None else _sorted_mean(logits[:c] + logits[c + 1 :])
                own, caches = forwards[i]
                kl[step, i], kl_grad = kl_divergence(
                    softmax_with_temperature(consensus, config.temperature), own, config.temperature
                )
                models[c].step(caches, kl_grad, config.learning_rate)
                models[c].check_finite([kl[step, i]], f"cluster {states[c].cluster_id}: distillation")
        except Exception as exc:
            failure = where, exc
    kl, failure = lockstep.finish(kl, failure)
    if failure is not None:
        raise failure[1]
    kl_sum = 0.0
    for value in kl.ravel().tolist():
        kl_sum += value
    new_states = [replace(s, params=models[c].params) if c in models else s for c, s in enumerate(states)]
    return new_states, kl_sum / kl.size if kl.size else 0.0


def evaluate(spec: ModelSpec, params: ModelParams, features: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy, computed in chunks of rows sized from the spec.

    A chunk holds ``max(1, _SLAB_ELEMENTS // spec.layout.widest)`` rows, so
    its widest activation fits the working set.  The rows depend on the
    spec alone, never on the machine, so the accuracy is a pure function of
    the spec, the parameters and the data.
    """

    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = features.shape[0]
    if n == 0:
        raise DimensionError("cannot evaluate on an empty set")
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match {n} samples")
    rows = max(1, _SLAB_ELEMENTS // spec.layout.widest)
    hits = 0
    for start in range(0, n, rows):
        logits = model_forward(spec, params, features[start : start + rows])
        hits += int(np.sum(np.argmax(logits, axis=1) == labels[start : start + rows]))
    return hits / n


def distillation_batches(
    config: FedConfig, train: LabeledDataset, holdout: np.ndarray | None, seed
) -> list[np.ndarray]:
    """``distill_count`` server-side inputs from ``config.distill_kind``, in batches.

    ``holdout`` draws from the reserved rows of ``train``, ``directory`` from
    the files of ``distill_directory``, and ``noise`` is standard-normal noise
    of the model's input shape.
    """

    count = config.distill_count
    if config.distill_kind == "holdout":
        drawn = draw_from_holdout(train, holdout, config.distill_prompts, count, seed)
    elif config.distill_kind == "directory":
        drawn = draw_from_directory(config.distill_directory, config.distill_prompts, count, seed)
    else:
        drawn = np.random.default_rng(seed).standard_normal((count, *train.input_shape))
    return split_batches(drawn, config.batch_size)


def profile_clients(config: FedConfig, profiles: list[ClientProfile]) -> list[ClientProfile]:
    """The profiles with durations: as given when every profile carries one,
    otherwise all measured on the profiling stream of the master seed."""

    if all(p.measured_duration is not None for p in profiles):
        return profiles
    return measure_durations(
        profiles,
        config.workload_units,
        config.profile_noise_sd,
        stream_seed(config.master_seed, _STREAM_PROFILE),
    )


def cluster_clients(config: FedConfig, profiles: list[ClientProfile]) -> ClusterAssignment:
    """The clusters an algorithm trains, from measured profiles.

    ``fedtsa`` and ``heterofl`` take the density clusters and pruning rates,
    as configured; ``fedavg`` and ``fedprox`` put every client in one cluster
    at ``homogeneous_pruning``.
    """

    if config.algorithm in ("fedtsa", "heterofl"):
        return cluster_profiles(
            profiles, bandwidth=config.kde_bandwidth, ladder=config.rate_ladder, refine=config.refine_kde
        )
    durations = np.array([p.measured_duration for p in profiles], dtype=np.float64)
    return ClusterAssignment(
        cluster_of=np.zeros(len(profiles), dtype=np.int64),
        boundaries=np.array([]),
        cluster_means=np.array([float(durations.mean())]),
        rates=np.array([config.homogeneous_pruning]),
    )


def prepare_run(
    config: FedConfig,
    base_spec: ModelSpec,
    train: LabeledDataset,
    test: LabeledDataset,
    profiles: list[ClientProfile],
) -> RunState:
    """Check the inputs and set a run up to its first round.

    Every :class:`ConfigError` a run can raise is raised here.
    """

    config.validate()
    if not profiles:
        raise ConfigError("need at least one client profile", field="profiles")
    ids = [p.client_id for p in profiles]
    if len(set(ids)) != len(ids):
        raise ConfigError("client ids must be unique", field="profiles")
    if any(i < 0 for i in ids):
        raise ConfigError("client ids must be non-negative", field="profiles")
    if train.class_count != test.class_count:
        raise DimensionError("train and test disagree on the number of classes")

    seed = config.master_seed
    distils = config.algorithm == "fedtsa"

    # Reserve the server-side holdout before partitioning so no client ever
    # trains on a distillation input.
    holdout = None
    pool_indices = None
    if distils and config.distill_kind == "holdout":
        held_by = "holdout_count" if config.holdout_count is not None else "distill_count"
        n_hold = getattr(config, held_by)
        if n_hold >= len(train):
            raise ConfigError(
                f"holdout of {n_hold} leaves no training data (have {len(train)})",
                field=FedConfig.path(held_by),
            )
        holdout, pool_indices = reserve_indices(len(train), n_hold, stream_seed(seed, _STREAM_HOLDOUT))

    if config.partition_mode == "iid":
        partition = partition_iid(
            train.labels, len(profiles), stream_seed(seed, _STREAM_PARTITION), indices=pool_indices
        )
    else:
        partition = partition_dirichlet(
            train.labels,
            len(profiles),
            config.dirichlet_alpha,
            stream_seed(seed, _STREAM_PARTITION),
            indices=pool_indices,
        )

    profiles = profile_clients(config, profiles)
    assignment = cluster_clients(config, profiles)
    if distils and assignment.cluster_count == 1 and not config.include_self_in_consensus:
        raise ConfigError(
            "a single cluster has no peers to distil from; it must include itself",
            field=FedConfig.path("include_self_in_consensus"),
        )

    states: list[ClusterState] = []
    for c, rate in enumerate(assignment.rates):
        spec_c = build_pruned_spec(base_spec, float(rate))
        params_c = init_params(spec_c, stream_seed(seed, _STREAM_INIT, c))
        states.append(ClusterState(c, spec_c, params_c))

    global_params = None
    if config.algorithm == "heterofl":
        global_params = init_params(base_spec, stream_seed(seed, _STREAM_INIT, 0))
        for state in states:
            overlap_map(base_spec, state.spec)
            state.params = extract_overlap(global_params, state.spec)

    distill_batches: list[np.ndarray] = []
    if distils:
        distill_batches = distillation_batches(
            config, train, holdout, stream_seed(seed, _STREAM_DISTILL, 0)
        )
        if config.distill_resample and config.distill_kind == "directory":
            # later rounds draw other files: read each one now, so a bad one fails here
            draw_from_directory(config.distill_directory, config.distill_prompts, None, 0)

    return RunState(
        config, train, test, profiles, partition, assignment, holdout, distill_batches, states, global_params
    )


def _round_batches(run: RunState, t: int) -> list[np.ndarray]:
    """Round ``t``'s distillation batches: the draw of round 0, or, with
    ``distillation.resample``, a draw from round ``t``'s own stream."""

    config = run.config
    if config.distill_resample and t > 0:
        return distillation_batches(
            config, run.train, run.holdout, stream_seed(config.master_seed, _STREAM_DISTILL, t)
        )
    return run.distill_batches


def _train_share(run: RunState, t: int, share: list[int], starts: list[ModelParams]) -> list:
    """The local updates of round ``t`` of the clients at positions ``share``, in order.

    A member of cluster ``c`` starts from ``starts[c]``.  Each outcome is a
    ``(flat, loss)`` pair or the exception the update raised; the first
    exception ends the share, as no later client of it can fail first.
    """

    config = run.config
    outcomes = []
    for pos in share:
        c = run.assignment.cluster_of[pos]
        idx = run.partition.client_indices[pos]
        try:
            params, loss = local_update(
                run.states[c].spec,
                starts[c],
                run.train.features[idx],
                run.train.labels[idx],
                config,
                stream_seed(config.master_seed, _STREAM_LOCAL, run.profiles[pos].client_id, t),
                prox_reference=starts[c] if config.algorithm == "fedprox" else None,
            )
        except Exception as exc:
            outcomes.append(exc)
            break
        outcomes.append((params.flat, loss))
    return outcomes


def _server_half(run: RunState, t: int, lockstep: _Lockstep) -> tuple[float, list]:
    """Stage 2 of round ``t`` (``fedtsa`` only), then the evaluation of each
    cluster in ``lockstep.owned``.

    Stage 2's models replace those in ``run.states``, and a
    :class:`FedsimError` it raises becomes an :class:`EngineError` naming the
    round.  Returns the mean Stage-2 KL value (0.0 without Stage 2) and, per
    owned cluster in order, its accuracy or the exception the evaluation
    raised; the first exception ends the list, as in :func:`_train_share`.
    """

    config = run.config
    stage2_kl = 0.0
    if config.algorithm == "fedtsa":
        try:
            run.states, stage2_kl = stage2_dml(run.states, _round_batches(run, t), config, lockstep)
        except FedsimError as exc:
            raise EngineError(f"round {t}, stage 2: {exc}") from exc
    outcomes = []
    for c in lockstep.owned:
        state = run.states[c]
        try:
            outcomes.append(evaluate(state.spec, state.params, run.test.features, run.test.labels))
        except Exception as exc:
            outcomes.append(exc)
            break
    return stage2_kl, outcomes


def _shares(cost: np.ndarray, count: int) -> list[list[int]]:
    """The indices of ``cost`` in ``count`` shares of about equal total cost.

    Each index, costliest first, joins the share with the least cost so far,
    so share 0 holds the costliest.  Each share lists its indices in order.
    """

    shares: list[list[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for i in np.argsort(-cost, kind="stable").tolist():
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += cost[i]
    return [sorted(share) for share in shares]


def _split(run: RunState, count: int) -> tuple[list[list[int]], list[list[int]]]:
    """The client positions and the cluster ids of ``run``, each in ``count``
    shares of about equal estimated cost (:func:`_shares`).

    A client costs its local batches times its cluster's model size, and
    each share lists its clients in training order: cluster order, then
    member order.  A cluster's server half costs its model size, as every
    cluster distils the same batches and is evaluated on the same test set.
    """

    config = run.config
    cluster_of = run.assignment.cluster_of
    sizes = np.array([state.spec.layout.size for state in run.states])
    order = np.argsort(cluster_of, kind="stable")  # training order
    batches = config.local_epochs * -(-run.partition.sizes() // config.batch_size)
    clients = _shares((batches * sizes[cluster_of])[order], count)
    return [order[share].tolist() for share in clients], _shares(sizes, count)


def _write(pipe, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[pipe.write(view) :]


def _read(pipe, into) -> None:
    """Fill the buffer ``into`` from ``pipe``; :class:`EOFError` if the pipe ends first."""

    view = memoryview(into).cast("B")
    while view:
        count = pipe.readinto(view)
        if not count:
            raise EOFError("pipe closed")
        view = view[count:]


def _send(pipe, obj) -> None:
    """Write ``obj`` to ``pipe`` as one message, which :func:`_recv` reads.

    ``obj`` is pickled with protocol 5, each contiguous array in it out of
    band.  The message is the number of arrays and the pickle's length, each
    array's length in bytes (8 bytes each), the pickle, then each array's
    bytes, so no array is copied on the way.
    """

    buffers = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    arrays = [buffer.raw() for buffer in buffers]
    sizes = np.array([len(arrays), len(data), *(a.nbytes for a in arrays)], dtype=np.uint64)
    _write(pipe, sizes.tobytes() + data)
    for array in arrays:
        _write(pipe, array)


def _recv(pipe):
    """The next object :func:`_send` wrote to ``pipe``.  Each array in it is
    read straight into a new buffer of its own, which it keeps, writable."""

    head = np.empty(2, dtype=np.uint64)
    _read(pipe, head)
    count, size = head.tolist()
    rest = np.empty(8 * count + size, dtype=np.uint8)
    _read(pipe, rest)
    buffers = [np.empty(n, dtype=np.uint8) for n in rest[: 8 * count].view(np.uint64).tolist()]
    for buffer in buffers:
        _read(pipe, buffer)
    return pickle.loads(rest[8 * count :], buffers=buffers)


class _RemoteTraceback(Exception):
    """A helper's formatted traceback: the ``__cause__`` of an exception it sent."""


class _Sent:
    """An exception as a helper sends it.  It unpickles as the exception
    itself, type and message unchanged, with the helper's formatted traceback
    as its ``__cause__``, as ``concurrent.futures`` does for its workers."""

    def __init__(self, exc: BaseException):
        import traceback  # here, not above: only a failure formats one

        self.exc = exc
        self.text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))

    def __reduce__(self):
        return _with_remote_cause, (self.exc, self.text)


def _with_remote_cause(exc: BaseException, text: str) -> BaseException:
    exc.__cause__ = _RemoteTraceback(f'\n"""\n{text}"""')
    return exc


def _sendable(outcomes: list) -> list:
    """``outcomes`` with each exception among them as :class:`_Sent`."""

    return [_Sent(o) if isinstance(o, BaseException) else o for o in outcomes]


class _Lockstep:
    """Stage 2 in one process alone: it steps every cluster in ``owned`` and
    gathers nothing.

    Spread over processes, each process steps the clusters it owns;
    :class:`_Helpers` is the parent's side and :class:`_Peer` a helper's.
    For each batch, :meth:`gather` takes the logits of this process's
    clusters, in ``owned`` order (``None`` once it has failed), and returns
    every cluster's in cluster order, or ``None`` when any process has
    failed, which ends Stage 2 in all of them.  At the end, :meth:`finish`
    takes this process's per-step KL values (one column per owned cluster)
    and its first failure (``None`` if none), and returns the KL values of
    every cluster and the first failure of any process.
    """

    def __init__(self, owned):
        self.owned = list(owned)

    def gather(self, logits: list[np.ndarray] | None) -> list[np.ndarray] | None:
        return logits

    def finish(self, kl: np.ndarray, failure: tuple | None) -> tuple[np.ndarray, tuple | None]:
        return kl, failure


class _Peer(_Lockstep):
    """A helper's side of the Stage-2 lockstep, over its pipes to the parent.

    For each batch it sends its clusters' logits to the parent and receives
    every cluster's back, or ``None`` to stop.  At the end it sends its KL
    values and its first failure.  A helper that failed or was stopped then
    ends, as the parent raises the first failure and reaps it.
    """

    def __init__(self, owned: list[int], commands, replies):
        super().__init__(owned)
        self.commands, self.replies = commands, replies
        self.stopped = False

    def gather(self, logits):
        _send(self.replies, logits)
        everyone = _recv(self.commands)
        self.stopped = everyone is None
        return everyone

    def finish(self, kl, failure):
        _send(self.replies, (kl, None if failure is None else (failure[0], _Sent(failure[1]))))
        if failure is not None or self.stopped:
            os._exit(0)
        return kl, None


class _Helper:
    """A forked process that trains one fixed share of the clients every
    round and runs the server half (Stage 2 and evaluation) of the clusters
    it owns, ``owned``.

    It inherits the run through the fork, and it and the parent talk only in
    :func:`_send` messages.  Each round the parent sends the round index and
    every cluster's start vector.  The helper trains its whole share with
    :func:`_train_share` before it replies, so a reply larger than a pipe's
    buffer never stalls the training; the reply holds each client's trained
    vector and loss, or the exception that ended the share.  A helper that
    owns clusters then receives their aggregated vectors, runs
    :func:`_server_half` in lockstep with the parent (:class:`_Peer`) and
    replies with each cluster's accuracy, or the exception that ended them,
    and, when Stage 2 ran, each cluster's final vector.

    The helper ends only through ``os._exit``, so it never returns into the
    caller or flushes the stdio it inherited.  It ends on any error of its
    own, and when its command pipe reaches end of file: the parent closes the
    pipe to stop it, and the pipe also ends if the parent dies.
    """

    def __init__(self, run: RunState, share: list[int], owned: list[int], others: list[_Helper]):
        self.share, self.owned = share, owned
        commands_r, commands_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (commands_r, commands_w, replies_r, replies_w):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(commands_w)
                os.close(replies_r)
                for other in others:
                    other.close()
                _serve(run, share, owned, open(commands_r, "rb", buffering=0), open(replies_w, "wb", buffering=0))
            finally:
                os._exit(0)
        os.close(commands_r)
        os.close(replies_w)
        self.commands = open(commands_w, "wb", buffering=0)
        self.replies = open(replies_r, "rb", buffering=0)

    def send(self, obj, where: str = "") -> None:
        """Send ``obj`` to the helper; a closed pipe is ``EngineError("{where}helper {pid} has exited")``."""

        try:
            _send(self.commands, obj)
        except OSError as exc:
            raise EngineError(f"{where}helper {self.pid} has exited") from exc

    def recv(self, where: str = ""):
        """The helper's next message; a closed pipe is an :class:`EngineError`, as in :meth:`send`."""

        try:
            return _recv(self.replies)
        except (OSError, EOFError) as exc:
            raise EngineError(f"{where}helper {self.pid} has exited") from exc

    def close(self) -> None:
        self.commands.close()
        self.replies.close()


def _serve(run: RunState, share: list[int], owned: list[int], commands, replies) -> None:
    """A helper's loop: train ``share``, and run the server half of ``owned``,
    in every round the parent sends, until the command pipe ends
    (:class:`EOFError`)."""

    peer = _Peer(owned, commands, replies)
    while True:
        t, flats = _recv(commands)
        starts = [ModelParams(state.spec.layout, flat) for state, flat in zip(run.states, flats)]
        # kept until the server half replaces them: freed right after the reply,
        # the heap shrank and refaulted every round (heterofl-wide 9 % slower)
        outcomes = _train_share(run, t, share, starts)
        _send(replies, _sendable(outcomes))
        if not owned:
            continue
        for c, flat in zip(owned, _recv(commands)):
            run.states[c] = replace(run.states[c], params=ModelParams(run.states[c].spec.layout, flat))
        _, outcomes = _server_half(run, t, peer)
        finals = [run.states[c].params.flat for c in owned] if run.config.algorithm == "fedtsa" else None
        _send(replies, (_sendable(outcomes), finals))


class _Helpers(_Lockstep):
    """A run's helper processes, and the parent's side of the Stage-2 lockstep.

    The clients and the clusters are each split into ``count`` shares
    (:func:`_split`).  The parent keeps the first share of each: it trains
    the clients ``own`` and runs the server half of the clusters ``owned``.
    One :class:`_Helper` per further share takes the rest; ``serving`` lists
    those that own a cluster, and only they take part in Stage 2.  By default
    ``count`` is ``min(CPUs, clients)``, where CPUs are those
    ``os.sched_getaffinity`` allows; it is one, and no helper is forked, for
    a run of no rounds or where ``os.fork`` or ``os.sched_getaffinity`` is
    missing.  On leaving a ``with`` block every helper is reaped, and killed
    first if an exception ends the block.

    For each Stage-2 batch the parent receives the logits of every serving
    helper, then sends each one every cluster's logits, or a stop (``None``)
    when any process has failed.  At the end it receives each serving
    helper's KL values and first failure.
    """

    def __init__(self, run: RunState, count: int | None = None):
        if count is None:
            forks = run.config.rounds and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            count = min(len(os.sched_getaffinity(0)), len(run.profiles)) if forks else 1
        (self.own, *shares), (owned, *owners) = _split(run, count)
        super().__init__(owned)
        self.cluster_count = run.assignment.cluster_count
        self.processes: list[_Helper] = []
        try:
            for share, clusters in zip(shares, owners):
                self.processes.append(_Helper(run, share, clusters, self.processes))
        except BaseException:
            self.stop(kill=True)
            raise
        self.serving = [helper for helper in self.processes if helper.owned]

    def __enter__(self) -> _Helpers:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.stop(kill=exc_type is not None)

    def gather(self, logits):
        everyone = dict(zip(self.owned, logits or []))
        stop = logits is None
        for helper in self.serving:
            theirs = helper.recv()
            stop = stop or theirs is None
            everyone.update(zip(helper.owned, theirs or []))
        logits = None if stop else [everyone[c] for c in range(self.cluster_count)]
        for helper in self.serving:
            helper.send(logits)
        return logits

    def finish(self, kl, failure):
        table = np.empty((kl.shape[0], self.cluster_count))
        table[:, self.owned] = kl
        failures = [] if failure is None else [failure]
        for helper in self.serving:
            table[:, helper.owned], theirs = helper.recv()
            if theirs is not None:
                failures.append(theirs)
        return table, min(failures, key=lambda f: f[0], default=None)

    def stop(self, kill: bool) -> None:
        """Close every helper's pipes, which stops an idle one, kill each one
        if ``kill``, and reap them all."""

        for helper in self.processes:
            helper.close()
        for helper in self.processes:
            if kill:
                import signal  # here, not above: a run that ends well never loads it

                os.kill(helper.pid, signal.SIGKILL)
            os.waitpid(helper.pid, 0)


def train_round(
    run: RunState, t: int, helpers: _Helpers | None = None
) -> tuple[list[list[ModelParams]], list[float]]:
    """The local updates of round ``t``: each cluster's trained models in
    member order, and their losses in cluster order, then member order.

    ``helpers`` (see :func:`run_experiment`) train their shares while this
    process trains its own; without them it trains every client.  The first
    failure in member order is raised, as in one process: a
    :class:`FedsimError` as an :class:`EngineError` naming the round, the
    cluster and the client, any other exception as it is.  The trained models
    are held only by the returned lists, so none of them outlives the
    aggregation it is passed to.
    """

    if helpers is None:
        helpers = _Helpers(run, 1)
    starts = [state.params for state in run.states]
    for helper in helpers.processes:
        helper.send((t, [start.flat for start in starts]), f"round {t}: training ")
    outcomes = dict(zip(helpers.own, _train_share(run, t, helpers.own, starts)))
    for helper in helpers.processes:
        outcomes.update(zip(helper.share, helper.recv(f"round {t}: training ")))
    trained, losses = [], []
    for state in run.states:
        models = []
        for pos in run.assignment.members(state.cluster_id).tolist():
            outcome = outcomes[pos]
            if isinstance(outcome, FedsimError):
                cid = run.profiles[pos].client_id
                raise EngineError(f"round {t}, cluster {state.cluster_id}, client {cid}: {outcome}") from outcome
            if isinstance(outcome, BaseException):
                raise outcome
            models.append(ModelParams(state.spec.layout, outcome[0]))
            losses.append(outcome[1])
        trained.append(models)
    return trained, losses


def run_round(run: RunState, t: int, helpers: _Helpers | None = None) -> RoundMetrics:
    """Advance ``run`` by round ``t``, append the round's metrics to it and return them.

    ``helpers`` train their shares of the clients (see :func:`train_round`)
    and run the server half of the clusters they own (see :class:`_Helpers`);
    this process aggregates.  Without them it does everything.  The first
    evaluation failure in cluster order is raised as it is.
    """

    config = run.config
    if helpers is None:
        helpers = _Helpers(run, 1)
    cluster_of, sizes = run.assignment.cluster_of, run.partition.sizes()
    trained, losses = train_round(run, t, helpers)
    if config.algorithm == "heterofl":
        run.global_params = heterofl_aggregate(run.global_params, [p for models in trained for p in models])
        for state in run.states:
            state.params = extract_overlap(run.global_params, state.spec)
    else:
        for state in run.states:
            state.params = stage1_aggregate(
                trained[state.cluster_id],
                data_sizes=sizes[cluster_of == state.cluster_id],
                weighting=config.stage1_weighting,
            )
    del trained  # no trained model outlives the aggregation
    mean_local_loss = float(np.mean(losses)) if losses else float("nan")

    for helper in helpers.serving:
        helper.send([run.states[c].params.flat for c in helper.owned], f"round {t}: ")
    stage2_kl, own = _server_half(run, t, helpers)
    outcomes = dict(zip(helpers.owned, own))
    for helper in helpers.serving:
        theirs, finals = helper.recv(f"round {t}: ")
        outcomes.update(zip(helper.owned, theirs))
        for c, flat in zip(helper.owned, finals or []):  # the final vectors of Stage 2
            run.states[c].params = ModelParams(run.states[c].spec.layout, flat)
    accuracies = []
    for state in run.states:
        outcome = outcomes[state.cluster_id]
        if isinstance(outcome, BaseException):
            raise outcome
        accuracies.append(outcome)
    acc = np.asarray(accuracies)
    member_counts = np.bincount(cluster_of, minlength=acc.size)
    member_data = np.bincount(cluster_of, weights=sizes, minlength=acc.size)
    round_metrics = RoundMetrics(
        round_index=t,
        cluster_accuracy=tuple(accuracies),
        client_weighted_accuracy=float(np.sum(acc * member_counts) / member_counts.sum()),
        data_weighted_accuracy=float(np.sum(acc * member_data) / member_data.sum()),
        unweighted_accuracy=float(acc.mean()),
        mean_local_loss=mean_local_loss,
        stage2_kl=stage2_kl,
    )
    run.metrics.append(round_metrics)
    return round_metrics


def run_experiment(
    config: FedConfig,
    base_spec: ModelSpec,
    train: LabeledDataset,
    test: LabeledDataset,
    profiles: list[ClientProfile],
    on_round=None,
) -> RunState:
    """:func:`prepare_run`, then :func:`run_round` once per configured round;
    ``on_round`` (if set) is called with each round's :class:`RoundMetrics`.

    Before the first round, ``min(CPUs, clients) - 1`` helper processes are
    forked, where CPUs are those ``os.sched_getaffinity`` allows.  Each one
    trains a share of the clients every round, and runs Stage 2 and the
    evaluation of the clusters it owns, if any (see :class:`_Helpers`).
    Every helper is reaped before this returns or raises; on an error it is
    killed first.
    """

    run = prepare_run(config, base_spec, train, test, profiles)
    with _Helpers(run) as helpers:
        for t in range(config.rounds):
            round_metrics = run_round(run, t, helpers)
            if on_round is not None:
                on_round(round_metrics)
    return run
