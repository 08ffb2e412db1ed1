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

A round runs in up to one process per CPU the process may use, as three
phases run in every process (:func:`_train_share`, :func:`_aggregate` and
:func:`_server_half`), over one shared region that holds every vector a
round moves (:class:`_Slots`); :mod:`fedsim.procs` forks the helpers and
runs each phase in all of them.  Stage 2's own exchange between the
processes, its logits in the slots, its per-step agreement, its KL table
and its first failure, is :func:`stage2_dml`'s; ``procs`` carries its
values without reading them.

An update is a pure function of its start vector, its rows and its own
``(client, round)`` stream, a Stage-2 step of the consensus and its own
cluster's logits, and a part of a merge of the same coordinates that the
whole merge reads, so no output byte depends on the number of processes.

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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from fedsim.clustering import (
    ClientProfile,
    ClusterAssignment,
    cluster_profiles,
    measure_durations,
)
from fedsim.config import (
    _STREAM_DISTILL,
    _STREAM_HOLDOUT,
    _STREAM_INIT,
    _STREAM_LOCAL,
    _STREAM_PARTITION,
    _STREAM_PROFILE,
    FedConfig,
    stream_seed,
)
from fedsim.data import (
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
from fedsim.procs import Helpers, cpus


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
        """Every field in order, as ``metrics.jsonl`` writes it: ``round_index``
        as ``round``, a tuple as a list."""

        record = {}
        for f in fields(self):
            value = getattr(self, f.name)
            record["round" if f.name == "round_index" else f.name] = (
                list(value) if isinstance(value, tuple) else value
            )
        return record


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
    operands: list[np.ndarray], out: np.ndarray | None = None, weights: np.ndarray | None = None, part=(0, 1)
) -> np.ndarray:
    """Per-coordinate mean of same-shaped arrays in a canonical summation order.

    The operands are taken in slabs of rows along axis 0.  Each slab is
    stacked into one scratch buffer, sorted there in place per coordinate and
    summed one operand after another, so the result is invariant (bitwise) to
    the order the operands arrive in and to the slab size.  NumPy sums a
    lone ``(m, 1)`` column pairwise once ``m >= 8``, so a slab of exactly one
    coordinate is widened to two columns.  With ``weights`` (one per
    operand) each slab is scaled before the sort and the sum is not divided.
    The result is written into ``out`` (new when omitted), which is returned;
    ``part = (k, n)`` writes only run ``k`` of ``n`` equal runs of rows.
    """

    m, (k, n) = len(operands), part
    if out is None:
        out = np.empty_like(operands[0])
    first, stop = out.shape[0] * k // n, out.shape[0] * (k + 1) // n
    row = math.prod(out.shape[1:])
    step = max(1, _SLAB_ELEMENTS // (m * row))
    scratch = np.empty(m * max(min(step, stop - first) * row, 2))
    for lo in range(first, stop, step):
        hi = min(lo + step, stop)
        block = out[lo:hi]
        if block.size == 1:
            stack = scratch[: 2 * m].reshape(m, 2)
            np.stack([op[lo:hi].reshape(1) for op in operands], out=stack[:, :1])
            stack[:, 1] = stack[:, 0]
        else:
            stack = scratch[: m * block.size].reshape(m, block.size)
            np.stack([op[lo:hi] for op in operands], out=stack.reshape(m, *block.shape))
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

    On entry ``params`` is checked against ``spec`` and copied into ``out``
    (a new vector when omitted; no copy when it is ``params`` itself), which
    is then trained in place, each step writing the gradients into a second
    :class:`ModelParams` of the same layout.  With a proximal reference and
    ``mu > 0``, ``(mu/2) * ||w - ref||^2`` joins each step's objective; the
    reference's flat vector is read, not copied.
    """

    def __init__(
        self,
        spec: ModelSpec,
        params: ModelParams,
        prox_reference: ModelParams | None = None,
        mu: float = 0.0,
        out: ModelParams | None = None,
    ):
        validate_params(spec, params)
        self.spec = spec
        if out is None:
            out = params.copy()
        elif out is not params:
            out.flat[...] = params.flat
        self.params = out
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
    out: ModelParams | None = None,
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
    (:class:`DimensionError`); neither input is written.  The model is
    trained in ``out`` (a vector of ``spec``'s layout, new when omitted),
    which is returned.
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
    model = _Learner(spec, params, prox_reference, config.fedprox_mu, out)
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
    part=(0, 1),
    out: ModelParams | None = None,
) -> ModelParams:
    """Average client parameters inside one cluster (all of one layout).

    The members' flat vectors are reduced per coordinate by
    :func:`_sorted_mean`, slab by slab through one scratch buffer.
    ``uniform`` sums in sorted order and divides by the count; ``data_size``
    scales each slab by the clients' shares of the cluster's samples before
    the sort and does not divide.  Either way the result is bit-identical
    under permutation of the clients, and it is written into ``out`` (new
    when omitted), only its part ``part`` (see :func:`_sorted_mean`).
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
    out = ModelParams(layout) if out is None else out
    _sorted_mean([p.flat for p in params_list], out.flat, weights, part)
    return out


def heterofl_aggregate(
    global_params: ModelParams, contributions: list[ModelParams], part=(0, 1), out: ModelParams | None = None
) -> ModelParams:
    """Per-coordinate covering mean over heterogeneous submodels.

    Each client contributes to exactly the leading block its submodel covers,
    so a tensor's shape is its extent in the global tensor; every global
    coordinate becomes the mean of the clients covering it, and
    coordinates nobody covers keep their previous value.  The merge writes
    into the global vector cell by cell: on each axis the block
    stops of all clients cut a tensor into a grid of cells, every coordinate
    of a cell is covered by the same clients, and one :func:`_sorted_mean`
    call per cell sorts and sums the values of those clients only, slab by
    slab through a scratch buffer of about 1 MiB.  When every client covers
    everything, every tensor is arithmetic-for-arithmetic the uniform Stage-1
    average, one-coordinate tensors included.  The mean is always unweighted:
    ``training.stage1_weighting`` does not apply to this merge.  ``out``
    (``global_params`` itself, or a copy when omitted) receives it, only
    the part ``part`` of each cell's rows (see :func:`_sorted_mean`).
    """

    if not contributions:
        raise EngineError("cannot aggregate an empty client set")
    merged = global_params.copy() if out is None else out
    for name, tensor in merged.tensors.items():
        blocks = []
        for params in contributions:
            block = params.tensors.get(name)
            if block is None:
                raise DimensionError(f"{name}: contribution is missing the tensor")
            if block.ndim != tensor.ndim or any(b > g for b, g in zip(block.shape, tensor.shape)):
                raise DimensionError(
                    f"{name}: contribution shape {block.shape} does not fit {tensor.shape}"
                )
            blocks.append(block)
        cuts = [
            sorted({0, size, *(b.shape[axis] for b in blocks)})
            for axis, size in enumerate(tensor.shape)
        ]
        for bounds in itertools.product(*(zip(c[:-1], c[1:]) for c in cuts)):
            covering = [b for b in blocks if all(hi <= stop for (_, hi), stop in zip(bounds, b.shape))]
            if not covering:
                continue
            cell = tuple(slice(lo, hi) for lo, hi in bounds)
            _sorted_mean([b[cell] for b in covering], tensor[cell], part=part)
    return merged


def split_batches(features: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Fixed-order minibatch views of a distillation pool."""

    return [features[i : i + batch_size] for i in range(0, features.shape[0], batch_size)]


def stage2_dml(
    states: list[ClusterState],
    batches: list[np.ndarray],
    config: FedConfig,
    me=None,
    owned: list[int] | None = None,
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

    This process steps the clusters ``owned`` (all when omitted); with
    ``me``, its own side in a round (see :mod:`fedsim.procs`), each in place
    in the vector its state holds.  For each batch every process writes its
    clusters' logits to ``me.slots.logits[step]`` and, once
    :meth:`~fedsim.procs.Helpers.agree` says every process is ok, reads
    every cluster's, so every process builds the same consensus; else
    Stage 2 ends in all of them.  At the end each hands its per-step KL
    values (none if it owns no cluster) and first failure to the first
    process (:meth:`~fedsim.procs.Helpers.collect`), which raises the first
    failure of any process, in order of epoch, batch, then cluster, and sums
    the KL values of every cluster.  A helper returns its clusters' new
    states whatever failed, as the first process raises the failure.

    With a single cluster the consensus equals the cluster's own
    distribution, the gradient is exactly zero, and parameters come back
    unchanged.
    """

    if not states:
        raise EngineError("stage 2 needs at least one cluster")
    m = len(states)
    if m == 1 and not config.include_self_in_consensus:
        raise EngineError("consensus over zero peers: a single cluster must include itself")
    owned = range(m) if owned is None else owned
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
            models[c] = _Learner(states[c].spec, states[c].params, out=None if me is None else states[c].params)
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
        logits = None if failure is not None else [own for own, _ in forwards]
        if me is not None:  # each process writes its clusters' rows, and all go on only if all are ok
            if logits:
                me.slots.logits[step][owned] = logits
            logits = list(me.slots.logits[step]) if me.agree(logits is not None) else None
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
    ends = [(owned, kl, failure)] if me is None else me.collect((owned, kl, failure))
    if ends is not None:  # this is the first process: every cluster's KL column, in cluster order
        kl = np.empty((steps, m))
        for columns, theirs, _ in ends:
            kl[:, columns] = theirs
        failures = [end[2] for end in ends if end[2] is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
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
    for name, ds in (("train", train), ("test", test)):
        if ds.input_shape != base_spec.input_shape:
            raise DimensionError(
                f"{name} samples of shape {ds.input_shape} do not fit model input {base_spec.input_shape}"
            )
    if train.class_count != base_spec.class_count:
        raise DimensionError(f"data of {train.class_count} classes does not fit a model of {base_spec.class_count}")

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

    # heterofl's clusters start as slices of one full-width model
    global_params = None
    if config.algorithm == "heterofl":
        global_params = init_params(base_spec, stream_seed(seed, _STREAM_INIT, 0))
    states: list[ClusterState] = []
    for c, rate in enumerate(assignment.rates):
        spec_c = build_pruned_spec(base_spec, float(rate))
        if global_params is None:
            params_c = init_params(spec_c, stream_seed(seed, _STREAM_INIT, c))
        else:
            overlap_map(base_spec, spec_c)
            params_c = extract_overlap(global_params, spec_c)
        states.append(ClusterState(c, spec_c, params_c))

    distill_batches: list[np.ndarray] = []
    if distils:
        distill_batches = distillation_batches(
            config, train, holdout, stream_seed(seed, _STREAM_DISTILL, 0)
        )
        if config.distill_kind == "directory":
            # with resampling, later rounds draw other files: read each one now, so a bad one fails here
            drawn = distill_batches[0]
            if config.distill_resample:
                drawn = draw_from_directory(config.distill_directory, config.distill_prompts, None, 0)
            if drawn.shape[1:] != base_spec.input_shape:
                raise ConfigError(
                    f"samples of shape {drawn.shape[1:]} do not fit model input {base_spec.input_shape}",
                    field=FedConfig.path("distill_directory"),
                )

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


def _train_share(run: RunState, t: int, shares: list[list[int]], me) -> list:
    """The local updates of round ``t`` of the clients at the positions of
    ``shares[me.part[0]]``, in order: the first phase of a round.

    ``me`` is the running process's own side (see :mod:`fedsim.procs`), as
    in every phase.  A member of cluster ``c`` starts from
    ``run.states[c].params`` and is trained in ``me.slots.trained[pos]``.
    Each outcome is its loss or the exception it raised; the first exception
    ends the share, as no later client of it can fail first.
    """

    config = run.config
    outcomes = []
    for pos in shares[me.part[0]]:
        state = run.states[run.assignment.cluster_of[pos]]
        idx = run.partition.client_indices[pos]
        try:
            _, loss = local_update(
                state.spec,
                state.params,
                run.train.features[idx],
                run.train.labels[idx],
                config,
                stream_seed(config.master_seed, _STREAM_LOCAL, run.profiles[pos].client_id, t),
                prox_reference=state.params if config.algorithm == "fedprox" else None,
                out=me.slots.trained[pos],
            )
        except Exception as exc:
            outcomes.append(exc)
            break
        outcomes.append(loss)
    return outcomes


def _aggregate(run: RunState, me) -> None:
    """Part ``me.part`` of the Stage-1 average of each cluster's members'
    trained models, or of the HeteroFL merge of every member's, written in
    place into the run's models: the second phase of a round."""

    trained, part = me.slots.trained, me.part
    members = [run.assignment.members(c) for c in range(len(run.states))]
    if run.config.algorithm == "heterofl":
        heterofl_aggregate(run.global_params, [trained[p] for p in np.concatenate(members)], part, run.global_params)
        return
    for state, positions in zip(run.states, members):
        models = [trained[p] for p in positions]
        stage1_aggregate(models, run.partition.sizes()[positions], run.config.stage1_weighting, part, state.params)


def _server_half(run: RunState, t: int, owners: list[list[int]], me) -> tuple[float, list]:
    """Stage 2 of round ``t`` (``fedtsa`` only), spread over the processes
    by ``me``, then the evaluation of each cluster in ``owners[me.part[0]]``:
    the third phase of a round.

    Stage 2's models replace those in ``run.states``, and a
    :class:`FedsimError` it raises becomes an :class:`EngineError` naming the
    round; a process that owns no cluster draws no batches, as it needs
    only their count.  Returns the mean Stage-2 KL value (0.0 without
    Stage 2) and, per owned cluster in order, its accuracy or the exception
    the evaluation raised; the first exception ends the list, as in
    :func:`_train_share`.
    """

    config, owned = run.config, owners[me.part[0]]
    stage2_kl = 0.0
    if config.algorithm == "fedtsa":
        batches = _round_batches(run, t) if owned else run.distill_batches
        try:
            run.states, stage2_kl = stage2_dml(run.states, batches, config, me, owned)
        except FedsimError as exc:
            raise EngineError(f"round {t}, stage 2: {exc}") from exc
    outcomes = []
    for c in owned:
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

    A client costs its local samples (epochs times its rows) times its
    cluster's model size, and each share lists its clients in training
    order: cluster order, then member order.  A cluster's server half costs
    its model size, as every cluster distils the same batches and is
    evaluated on the same test set.
    """

    cluster_of = run.assignment.cluster_of
    sizes = np.array([state.spec.layout.size for state in run.states])
    order = np.argsort(cluster_of, kind="stable")  # training order
    samples = run.config.local_epochs * run.partition.sizes()
    clients = _shares((samples * sizes[cluster_of])[order], count)
    return [order[share].tolist() for share in clients], _shares(sizes, count)


class _Slots:
    """Every vector a round moves, in one anonymous shared mapping made
    before the helpers fork, so no vector travels in a message: the client
    at position ``pos`` in ``trained[pos]``; each cluster's model (its
    start, aggregate and Stage-2 model) and heterofl's global one, copied in
    and rebound in ``run``; and every cluster's Stage-2 logits at ``step``
    of a round in ``logits[step]``, never reused within the round, so no
    process overwrites logits another may still read.  The mapping lives as
    long as any view of it; a killed process leaves nothing of it behind."""

    def __init__(self, run: RunState):
        import mmap  # here, not above: a run of no rounds maps nothing

        states, n = run.states, len(run.profiles)
        held = [s.params for s in states] + [run.global_params] * (run.global_params is not None)
        layouts = [states[c].spec.layout for c in run.assignment.cluster_of] + [p.layout for p in held]
        batches = run.distill_batches * run.config.global_epochs
        shapes = [(len(states), len(batch), states[0].spec.class_count) for batch in batches]
        sizes = [layout.size for layout in layouts] + [math.prod(shape) for shape in shapes]
        # one float64 more than the slots, so the mapping is never empty
        views = iter(np.split(np.frombuffer(mmap.mmap(-1, 8 * sum(sizes) + 8)), np.cumsum(sizes)))
        slots = [ModelParams(layout, next(views)) for layout in layouts]
        self.trained, self.logits = slots[:n], [next(views).reshape(shape) for shape in shapes]
        for slot, params in zip(slots[n:], held):
            slot.flat[...] = params.flat
        for state, slot in zip(states, slots[n:]):
            state.params = slot
        if run.global_params is not None:
            run.global_params = slots[-1]


def _helpers(run: RunState, count: int | None = None) -> Helpers:
    """``count`` processes for ``run``'s rounds, this one and ``count - 1``
    forked helpers, with the run's :class:`_Slots`, mapped before the first
    fork.  ``count`` is by default ``min(CPUs, clients)``
    (:func:`fedsim.procs.cpus`)."""

    count = min(cpus(), len(run.profiles)) if count is None else count
    return Helpers(run, count, _Slots(run), (_train_share, _aggregate, _server_half))


def run_round(run: RunState, t: int, helpers: Helpers | None = None) -> RoundMetrics:
    """Advance ``run`` by round ``t``, append the round's metrics to it and return them.

    A round is three phases, each run in every process of ``helpers`` by
    one :meth:`~fedsim.procs.Helpers.each` call (without ``helpers``, this
    process does all) and given its part of the round's split
    (:func:`_split`); the vectors stay in the slots.  Each process trains
    its clients (:func:`_train_share`), and the first failure in member
    order is raised as in one process: a :class:`FedsimError` as an
    :class:`EngineError` naming the round, cluster and client, any other as
    it is.  Then each process merges its part (:func:`_aggregate`; the
    parts check the same inputs, so this process fails first).  After
    heterofl's extraction, each runs :func:`_server_half` on the clusters
    it owns, and the first evaluation failure in cluster order is raised
    as it is.
    """

    config = run.config
    helpers = helpers or _helpers(run, 1)
    shares, owners = _split(run, helpers.part[1])
    cluster_of, sizes = run.assignment.cluster_of, run.partition.sizes()
    outcomes = {}
    for share, reply in zip(shares, helpers.each(_train_share, t, shares, where=f"round {t}: training ")):
        outcomes.update(zip(share, reply))
    losses = []
    for pos in np.argsort(cluster_of, kind="stable").tolist():  # member order
        outcome = outcomes[pos]
        if isinstance(outcome, FedsimError):
            cid = run.profiles[pos].client_id
            raise EngineError(f"round {t}, cluster {cluster_of[pos]}, client {cid}: {outcome}") from outcome
        if isinstance(outcome, BaseException):
            raise outcome
        losses.append(outcome)
    helpers.each(_aggregate, where=f"round {t}: ")
    if config.algorithm == "heterofl":
        for state in run.states:
            extract_overlap(run.global_params, state.spec, state.params)
    mean_local_loss = float(np.mean(losses)) if losses else float("nan")

    replies = helpers.each(_server_half, t, owners, where=f"round {t}: ")
    stage2_kl = replies[0][0]  # this process's: its Stage 2 sums every cluster's KL values
    outcomes = {}
    for owned, (_, reply) in zip(owners, replies):
        outcomes.update(zip(owned, reply))
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
    forked (:func:`_helpers`), where CPUs are those ``os.sched_getaffinity``
    allows.  Each one runs every phase of every round: it trains a share of
    the clients, merges its part, and runs Stage 2 and the evaluation of the
    clusters it owns, if any.  Every helper is reaped before this returns or
    raises; on an error it is killed first.
    """

    run = prepare_run(config, base_spec, train, test, profiles)
    if config.rounds:  # a run of no rounds forks nothing and maps nothing
        with _helpers(run) as helpers:
            for t in range(config.rounds):
                round_metrics = run_round(run, t, helpers)
                if on_round is not None:
                    on_round(round_metrics)
    return run
