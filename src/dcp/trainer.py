"""The full training loop: adversarial game, centroid regularizers, schedules.

Each iteration runs one discriminator minimization followed by one main
minimization of L_C1 + L_C2 + L_PL + L_G + alpha * (L_CC + L_CS); the
discriminator is frozen during the main step. Pseudo-labels are screened
against the previous iteration's centroid banks, consumed by this iteration's
centroid update and by L_PL, and then discarded. L_PL is the sum of both
classifiers' cross entropies on the target batch with its unaccepted rows
(label -1) skipped: a high-confidence label trains the two classifiers as a
source label does. The main objective is one ``weighted_sum`` node whose
terms are L_G, one cross-entropy node over L_C1, L_C2 and L_PL's two cross
entropies, and L_CC and L_CS at weight alpha.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import centroids as cent
from . import losses
from .datasets import SOURCE, LabeledDataset
from .networks import Mlp, branch_outputs
from .pseudo_label import class_means, kmeans_assign, select_high_confidence, tau_adv, tau_clu
from .tensor import Tensor, weighted_sum

CHECKPOINT_FORMAT = "dcp-checkpoint-v3"

# Desk-scale architecture: smallest shapes where the adversarial game and the
# centroid geometry are observable on 2-D synthetic data.
FEATURE_DIM = 64
DISC_HIDDEN = 32


class NumericsError(RuntimeError):
    """A loss became non-finite at some iteration.

    Raised before any update of that iteration is kept, so the state is the
    one the last good iteration left. ``loss`` names the loss that failed and
    ``value`` is its value. When ``train`` raises it, ``records`` holds the
    metrics of the good iterations and ``checkpoint`` the state they left;
    from ``train_step`` alone both are None.
    """

    def __init__(self, iteration: int, loss: str, value: float):
        super().__init__(f"iteration {iteration}: {loss} is {value}")
        self.iteration = iteration
        self.loss = loss
        self.value = value
        self.records: list[MetricsRecord] | None = None
        self.checkpoint: Checkpoint | None = None


class UnlabeledDatasetError(ValueError):
    """Evaluation was asked to score samples with unknown labels."""


class CheckpointVersionError(ValueError):
    """The checkpoint file carries an unsupported format tag."""


# Keyed by each TrainConfig field's annotation, a string here since annotations
# are postponed: the types a value may have, and how an error names them.
_FIELD_KINDS = {
    "bool": (bool, "a bool"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; defaults follow the digit-scale settings."""

    alpha: float = 0.1
    lr: float = 0.01
    momentum: float = 0.5
    batch_size: int = 36
    iterations: int = 1500
    ema_momentum: float = 0.7
    adv_seed: int = 0
    clu_seed: int = 1
    disc_seed: int = 2
    data_seed: int = 3
    kmeans_max_iters: int = 20
    use_pseudo_labels: bool = True
    eval_every: int = 50

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            accepted, what = _FIELD_KINDS[f.type]
            # bool is an int subclass: it passes only where the field is a bool
            if isinstance(value, bool) != (f.type == "bool") or not isinstance(value, accepted):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            # NaN fails every comparison; so does an int too large for a double
            if f.type == "float" and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be at least 2, got {self.batch_size}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be nonnegative, got {self.iterations}")
        if not 0.0 <= self.ema_momentum < 1.0:
            raise ValueError(f"ema_momentum must be in [0, 1), got {self.ema_momentum}")
        if self.kmeans_max_iters < 1:
            raise ValueError(f"kmeans_max_iters must be at least 1, got {self.kmeans_max_iters}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be at least 1, got {self.eval_every}")
        for name in ("adv_seed", "clu_seed", "disc_seed", "data_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def derived_seeds(seed: int) -> dict[str, int]:
    """The four ``TrainConfig`` seeds that one base seed S stands for: S to S+3.

    ``dcp train --seed``, the scripts and the acceptance suite all seed a run
    this way, so one base seed names the run.
    """
    return {"adv_seed": seed, "clu_seed": seed + 1, "disc_seed": seed + 2, "data_seed": seed + 3}


@dataclass
class MetricsRecord:
    """One iteration's row of ``metrics.csv``; the fields are its columns, in order."""

    T: int
    l_d: float
    l_g: float
    l_c1: float
    l_c2: float
    l_cc: float | None
    l_cs: float | None
    # absent (None) when no pseudo-label was accepted this iteration
    l_pl: float | None
    tau_adv: float
    tau_clu: float
    n_selected: int
    pseudo_precision: float | None
    source_acc: float | None = None
    target_acc: float | None = None

    def csv_row(self) -> list[str]:
        row = []
        for name in METRICS_FIELDS:
            value = getattr(self, name)
            if value is None:
                row.append("")
            elif isinstance(value, (int, np.integer)):
                row.append(str(int(value)))
            else:
                row.append(repr(float(value)))
        return row


METRICS_FIELDS = tuple(f.name for f in fields(MetricsRecord))


def write_metrics_csv(records: list[MetricsRecord], path) -> None:
    lines = [",".join(METRICS_FIELDS)]
    lines += [",".join(r.csv_row()) for r in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- optimizer ---------------------------------------------------------------


class UpdateGroup:
    """Parameter tensors that one momentum step updates together.

    The group owns one flat parameter array and one flat velocity array.
    Each tensor's ``values`` becomes a read-only, C-contiguous view into the
    parameter array, in the order given, so a tensor's values change when its
    group steps; only :func:`apply_sgd_update` writes them, in place.
    """

    def __init__(self, tensors: list[Tensor]):
        self.tensors = tuple(tensors)
        self.params = np.concatenate([p.values for p in self.tensors], axis=None)
        self.velocity = np.zeros_like(self.params)
        start = 0
        for p in self.tensors:
            view = self.params[start : start + p.values.size].reshape(p.shape)
            view.flags.writeable = False
            p.values = view
            start += view.size

    def __deepcopy__(self, memo) -> "UpdateGroup":
        # the copy's tensors view the copy's parameter array, not a detached copy
        out = UpdateGroup(copy.deepcopy(self.tensors, memo))
        out.velocity[...] = self.velocity
        return out


def apply_sgd_update(group: UpdateGroup, lr: float, momentum: float) -> None:
    """Step every parameter of the group in place and zero its gradient.

    Momentum SGD: v <- momentum * v + grad; p <- p - lr * v, as whole-array
    operations on the group's flat arrays: ``v *= momentum; v += grad``, then
    ``p - lr * v`` with ``lr * v`` computed first, the roundings of the same
    formula applied to each tensor. Both arrays are written in place, so a
    caller that keeps an earlier parameter or velocity must copy it. The
    gradients are gathered by one copy, which keeps a -0.0 gradient's sign
    bit; a parameter without a gradient takes a zero one.
    """
    # raveled first: numpy's own flattening (axis=None) was slower here
    grad = np.concatenate(
        [p.grad.ravel() if p.grad is not None else np.zeros(p.values.size) for p in group.tensors]
    )
    v = group.velocity
    v *= momentum
    v += grad
    step = np.multiply(lr, v, out=grad)
    np.subtract(group.params, step, out=group.params)
    for p in group.tensors:
        p.grad = None


# -- state -------------------------------------------------------------------


@dataclass
class TrainState:
    """The networks and their two update groups, ``"discriminator"`` and
    ``"main"``, whose flat arrays hold every parameter and velocity."""

    config: TrainConfig
    k: int
    networks: dict[str, Mlp]
    groups: dict[str, UpdateGroup]
    t: int = 0
    # (2K x d_f) centroids, the adversarial branch's K rows first, detached;
    # None before the first step
    banks: Tensor | None = None


def init_state(config: TrainConfig, k: int, d_in: int) -> TrainState:
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    networks = {
        "adv_extractor": Mlp.create((d_in, FEATURE_DIM, FEATURE_DIM), config.adv_seed),
        "adv_head": Mlp.create((FEATURE_DIM, k), config.adv_seed + 1_000_003),
        "clu_extractor": Mlp.create((d_in, FEATURE_DIM, FEATURE_DIM), config.clu_seed),
        "clu_head": Mlp.create((FEATURE_DIM, k), config.clu_seed + 1_000_003),
        "discriminator": Mlp.create((FEATURE_DIM, DISC_HIDDEN, 1), config.disc_seed),
    }
    return TrainState(config=config, k=k, networks=networks, groups=_update_groups(networks))


def _update_groups(networks: dict[str, Mlp]) -> dict[str, UpdateGroup]:
    """The discriminator's update group, stepped after L_D, and the one of the
    four networks that the main objective trains."""
    main = ("adv_extractor", "adv_head", "clu_extractor", "clu_head")
    return {
        "discriminator": UpdateGroup(networks["discriminator"].tensors()),
        "main": UpdateGroup([p for name in main for p in networks[name].tensors()]),
    }


@dataclass
class StepInfo:
    """Diagnostics of one iteration, for callbacks and tests."""

    # each target batch row's accepted pseudo-label, -1 where none was
    pseudo_labels: np.ndarray
    y_adv_target: np.ndarray
    y_clu_target: np.ndarray
    alignment_skipped: bool
    target_batch_true_labels: np.ndarray | None = None


def pseudo_precision(pseudo_labels: np.ndarray, true_labels) -> float | None:
    """Fraction of selected samples whose pseudo-label is correct.

    Both arrays cover the whole target batch, row for row; a pseudo-label of
    -1 marks a row that was not selected. Absent (None), not zero, when
    nothing was selected.
    """
    picked = pseudo_labels >= 0
    n_picked = np.count_nonzero(picked)
    if not n_picked:
        return None
    true_labels = np.asarray(true_labels, dtype=np.int64).reshape(-1)
    # two exact counts, divided once: the mean of the boolean matches, bit for bit
    return float(np.count_nonzero(picked & (pseudo_labels == true_labels)) / n_picked)


def _check_finite(state: TrainState, **losses_by_name: float | None) -> None:
    """Raise NumericsError on the first non-finite loss; absent losses pass."""
    for name, value in losses_by_name.items():
        if value is not None and not math.isfinite(value):
            raise NumericsError(state.t, name, value)


def train_step(
    state: TrainState,
    source_batch: tuple[np.ndarray, np.ndarray],
    target_batch: np.ndarray,
    target_batch_true_labels: np.ndarray | None = None,
) -> tuple[MetricsRecord, StepInfo]:
    """One full iteration; mutates ``state`` and returns its metrics.

    ``target_batch_true_labels`` is an evaluation-only input used to measure
    pseudo-label precision; it never influences any update. Every input is
    checked before anything in ``state`` changes.
    """
    cfg = state.config
    k = state.k
    xs_values, ys = source_batch
    ys = np.asarray(ys, dtype=np.int64).reshape(-1)
    n_target = target_batch.shape[0]
    if xs_values.shape[0] == 0 or n_target == 0:
        raise ValueError("batches must be nonempty")
    if ys.shape[0] != xs_values.shape[0]:
        raise ValueError(f"{ys.shape[0]} source labels for {xs_values.shape[0]} source rows")
    if target_batch_true_labels is not None and np.size(target_batch_true_labels) != n_target:
        raise ValueError(
            f"{np.size(target_batch_true_labels)} true target labels "
            f"for {n_target} target rows"
        )
    if n_target < k:
        raise ValueError(f"target batch has {n_target} rows; clustering it needs at least k={k}")
    if ys.min() < 0:
        raise ValueError(f"source label {ys.min()} is outside [0, {k})")
    # per-class source counts: the missing-class check and the k-means seeds
    counts = np.bincount(ys, minlength=k)
    if counts.shape[0] > k:
        raise ValueError(f"source label {counts.shape[0] - 1} is outside [0, {k})")
    if (counts == 0).any():
        missing = int(np.argmin(counts))
        raise ValueError(f"source batch is missing class {missing}; use stratified sampling")
    xs = Tensor(xs_values)
    xt = Tensor(target_batch)

    adv_ext = state.networks["adv_extractor"]
    adv_head = state.networks["adv_head"]
    clu_ext = state.networks["clu_extractor"]
    clu_head = state.networks["clu_head"]
    disc = state.networks["discriminator"]

    # (a) forward both branches on both batches
    fs_adv = adv_ext(xs)
    ft_adv = adv_ext(xt)
    fs_clu = clu_ext(xs)
    ft_clu = clu_ext(xt)
    logits_t_adv = adv_head(ft_adv)
    y_adv_target = logits_t_adv.values.argmax(axis=1)

    # (b) k-means on the clustering branch's target features, seeded from
    # per-class source means so cluster index k means class k. Source rows
    # stay out of the clustering: they would drag every cluster toward a
    # source class mean, and the assignment would stop following the
    # target's own cluster structure.
    init_centroids = np.zeros((k, fs_clu.cols))
    class_means(fs_clu.values, ys, counts, init_centroids)
    y_clu_target, _ = kmeans_assign(ft_clu.values, init_centroids, max_iters=cfg.kmeans_max_iters)

    # (c) double-threshold screening against the previous iteration's banks
    if cfg.use_pseudo_labels and state.banks is not None:
        # np.array stacks two same-shaped arrays as np.stack does, in one C call
        pseudo = select_high_confidence(
            np.array([ft_adv.values, ft_clu.values]),
            np.array([y_adv_target, y_clu_target]),
            state.banks.values,
            state.t,
        )
    else:
        pseudo = np.full(n_target, -1, dtype=np.int64)
    n_selected = np.count_nonzero(pseudo >= 0)

    # (d) both branches' centroids over source labels plus accepted
    # pseudo-labels, and their alignment losses
    union_labels = np.concatenate([ys, pseudo])
    l_cc_tensor = l_cs_tensor = None
    alignment_skipped = False
    banks_step = None
    try:
        fresh = cent.compute_centroids((fs_adv, ft_adv), (fs_clu, ft_clu), union_labels, k)
        banks_step = (
            cent.update_centroids_ema(state.banks, fresh, cfg.ema_momentum)
            if state.banks is not None
            else fresh
        )
        l_cc_tensor = cent.loss_cc(cent.centroid_centroid_matrix(banks_step))
        l_cs_tensor = cent.loss_cs(cent.centroid_sample_matrix(banks_step, ft_adv, ft_clu))
    except cent.DegenerateGeometryError:
        # collapsed feature geometry: skip only the alignment losses this step
        alignment_skipped = True

    # (e) discriminator update on detached features; only D moves. Each loss
    # is checked before the update it drives.
    s_source = disc(fs_adv.detached())
    s_target = disc(ft_adv.detached())
    l_d = losses.discriminator_loss(s_source, s_target)
    _check_finite(state, l_d=l_d.item())
    disc_group = state.groups["discriminator"]
    # copies: the update writes both arrays in place
    disc_before = (disc_group.params.copy(), disc_group.velocity.copy())
    l_d.backward()
    apply_sgd_update(disc_group, cfg.lr, cfg.momentum)

    # (f) main update: classifiers, generator, and alignment. D is frozen:
    # l_g reaches it through constant parameters, so no D gradient is computed
    l_g = losses.generator_loss(disc.detached()(ft_adv))
    # L_C1 and L_C2: both heads on the source labels. L_PL: accepted
    # pseudo-labels train both heads on their rows of the target batch, the
    # rows labeled -1 skipped. All four are blocks of one cross-entropy node.
    blocks, block_labels = [adv_head(fs_adv), clu_head(fs_clu)], [ys, ys]
    if n_selected:
        blocks += [logits_t_adv, clu_head(ft_clu)]
        block_labels += [pseudo, pseudo]
    ce, means = losses.source_classification_loss(blocks, block_labels)
    l_pl = means[2] + means[3] if n_selected else None
    # l_g first: a tensor with three or more consumers (ft_adv, ft_clu) then
    # receives its deltas in the order it did when each cross entropy was a
    # term of its own, so every gradient keeps its bits
    terms, weights = [l_g, ce], [1.0, 1.0]
    if not alignment_skipped and cfg.alpha > 0.0:
        terms += [l_cc_tensor, l_cs_tensor]
        weights += [cfg.alpha, cfg.alpha]
    total = weighted_sum(terms, weights)
    # checked in this order, so the first non-finite one names the error
    main_losses = {
        "l_g": l_g.item(),
        "l_c1": means[0],
        "l_c2": means[1],
        "l_cc": None if alignment_skipped else l_cc_tensor.item(),
        "l_cs": None if alignment_skipped else l_cs_tensor.item(),
        "l_pl": l_pl,
    }
    try:
        _check_finite(state, **main_losses)
    except NumericsError:
        # undo the discriminator update of this iteration, in place
        disc_group.params[...], disc_group.velocity[...] = disc_before
        raise
    total.backward()
    apply_sgd_update(state.groups["main"], cfg.lr, cfg.momentum)

    # (g) advance the iteration counter and persist detached banks
    record = MetricsRecord(
        T=state.t,
        l_d=l_d.item(),
        **main_losses,
        tau_adv=tau_adv(state.t),
        tau_clu=tau_clu(state.t),
        n_selected=n_selected,
        pseudo_precision=(
            pseudo_precision(pseudo, target_batch_true_labels)
            if target_batch_true_labels is not None
            else None
        ),
    )
    if banks_step is not None:
        state.banks = banks_step.detached()
    state.t += 1
    info = StepInfo(
        pseudo_labels=pseudo,
        y_adv_target=y_adv_target,
        y_clu_target=y_clu_target,
        alignment_skipped=alignment_skipped,
        target_batch_true_labels=target_batch_true_labels,
    )
    return record, info


# -- epoch sampling -----------------------------------------------------------


class _CycleSampler:
    """Cycles through shuffled index pools, an equal share of each per batch.

    A pool is reshuffled whenever it runs short: with one pool per class,
    every class is in every batch; with one pool, batches walk shuffled epochs.
    Each pool's queue is an int64 array, and a pool's fresh permutation goes
    after what is left of its queue, as many times as one batch needs.
    """

    def __init__(self, pools: list[np.ndarray], batch_size: int, rng: np.random.Generator):
        self._rng = rng
        self._pools = pools
        self._queues = [np.empty(0, dtype=np.int64) for _ in pools]
        base, extra = divmod(batch_size, len(pools))
        self._per_pool = [base + (1 if i < extra else 0) for i in range(len(pools))]

    def next_batch(self) -> np.ndarray:
        chosen = []
        for i, (pool, want) in enumerate(zip(self._pools, self._per_pool)):
            queue = self._queues[i]
            while queue.size < want:
                queue = np.concatenate((queue, self._rng.permutation(pool)))
            chosen.append(queue[:want])
            self._queues[i] = queue[want:]
        return np.concatenate(chosen)


# -- full runs ----------------------------------------------------------------


OnStep = Callable[[TrainState, MetricsRecord, StepInfo], None]


def train(
    config: TrainConfig,
    source: LabeledDataset,
    target: LabeledDataset,
    on_step: OnStep | None = None,
) -> tuple["Checkpoint", list[MetricsRecord]]:
    """Run the configured number of iterations and return checkpoint + metrics.

    The whole run is a pure function of (config, dataset contents): batches
    come from seeded per-epoch shuffles, and records at the evaluation
    cadence carry the source and target accuracy that :func:`evaluate` gives
    the state's checkpoint. Target accuracy and pseudo-label precision
    need every target label; when any is unknown (-1) they are absent. A
    ``NumericsError`` carries the checkpoint and metrics of the iterations
    before the one that failed.
    """
    if source.domain_tag != SOURCE:
        raise ValueError("first dataset must be the labeled source domain")
    if source.d != target.d:
        raise ValueError(f"source dimension {source.d} != target dimension {target.d}")
    if target.n == 0:
        raise ValueError("target dataset has no rows; training samples its batches from them")
    k = source.n_classes
    if config.batch_size < k:
        raise ValueError(
            f"batch_size {config.batch_size} cannot stratify over {k} classes"
        )
    target_eval_labels = target.eval_labels()
    out_of_range = (target_eval_labels < -1) | (target_eval_labels >= k)
    if out_of_range.any():
        raise ValueError(
            f"target label {target_eval_labels[out_of_range][0]} is outside [-1, {k}): "
            f"the source has {k} classes and -1 marks an unknown label"
        )
    target_labeled = bool((target_eval_labels >= 0).all())
    state = init_state(config, k=k, d_in=source.d)
    rng = np.random.default_rng(config.data_seed)
    source_pools = [np.flatnonzero(source.y == cls) for cls in range(k)]
    for cls, pool in enumerate(source_pools):
        if pool.size == 0:
            raise ValueError(f"source dataset has no samples of class {cls}")
    source_sampler = _CycleSampler(source_pools, config.batch_size, rng)
    target_sampler = _CycleSampler([np.arange(target.n)], config.batch_size, rng)

    records: list[MetricsRecord] = []
    for t in range(config.iterations):
        src_idx = source_sampler.next_batch()
        tgt_idx = target_sampler.next_batch()
        try:
            record, info = train_step(
                state,
                (source.X[src_idx], source.y[src_idx]),
                target.X[tgt_idx],
                target_batch_true_labels=target_eval_labels[tgt_idx] if target_labeled else None,
            )
        except NumericsError as exc:
            # the state is the last good iteration's: hand it over with its records
            exc.records, exc.checkpoint = records, _checkpoint(state)
            raise
        if t % config.eval_every == 0 or t == config.iterations - 1:
            checkpoint = _checkpoint(state)
            record.source_acc = evaluate(checkpoint, source).accuracy
            if target_labeled:
                record.target_acc = evaluate(checkpoint, target).accuracy
        records.append(record)
        if on_step is not None:
            on_step(state, record, info)
    return _checkpoint(state), records


def _checkpoint(state: TrainState) -> "Checkpoint":
    return Checkpoint(state.networks["adv_extractor"], state.networks["adv_head"])


# -- evaluation ----------------------------------------------------------------


@dataclass
class EvalReport:
    accuracy: float
    # None (absent, not zero) for a class with no rows in the dataset
    per_class_accuracy: list[float | None]
    confusion: np.ndarray

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": self.per_class_accuracy,
            "confusion": self.confusion.tolist(),
        }


def evaluate(checkpoint: "Checkpoint", dataset: LabeledDataset) -> EvalReport:
    """Score the adversarial branch's argmax predictions against true labels."""
    labels = dataset.eval_labels()
    if labels.size == 0:
        raise ValueError("dataset has no rows; evaluation needs at least one")
    if labels.min() < 0:
        raise UnlabeledDatasetError("dataset has unknown labels; evaluation needs ground truth")
    k = checkpoint.k
    if labels.max() >= k:
        raise ValueError(
            f"label {labels[labels >= k][0]} is outside [0, {k}): the checkpoint has {k} classes"
        )
    logits = branch_outputs(checkpoint.adv_extractor, checkpoint.adv_head, dataset.X)
    predicted = logits.argmax(axis=1)
    confusion = np.bincount(labels * k + predicted, minlength=k * k).reshape(k, k)
    # counts as Python ints, whose true division rounds once, as numpy's
    # float64 division of the same counts does; the counts are integers, so
    # each accuracy equals the mean of its ``predicted == labels`` bit for bit
    correct = confusion.diagonal().tolist()
    totals = confusion.sum(axis=1).tolist()
    return EvalReport(
        accuracy=sum(correct) / labels.size,
        per_class_accuracy=[c / t if t else None for c, t in zip(correct, totals)],
        confusion=confusion,
    )


# -- checkpointing --------------------------------------------------------------


@dataclass
class Checkpoint:
    """The adversarial branch, extractor then head: the networks ``evaluate`` reads.

    Layer widths are the weight shapes, and the class count is the head's
    output width. The file keeps each weight as (out x in) rows and each bias
    as an (out x 1) column, the transposes of the networks' layout; ``save``
    and ``load`` transpose at that boundary. Both networks are relu in hidden
    layers and linear at the output. The clustering branch, the
    discriminator, optimizer velocity and centroid banks are not kept, so a
    run cannot be resumed from a checkpoint. A checkpoint is a snapshot: it
    holds its own copy of each weight and bias, made when it is built, so
    training on, which writes the parameters in place, does not change it.
    """

    adv_extractor: Mlp
    adv_head: Mlp

    def __post_init__(self):
        self.adv_extractor, self.adv_head = (
            Mlp(
                [_cache_aligned(w.values) for w in net.weights],
                [Tensor(b.values) for b in net.biases],
            )
            for net in (self.adv_extractor, self.adv_head)
        )

    @property
    def k(self) -> int:
        return self.adv_head.d_out

    def save(self, path) -> None:
        payload = {"format": CHECKPOINT_FORMAT}
        for f in fields(self):
            net = getattr(self, f.name)
            payload[f.name] = {
                "weights": [w.values.T.tolist() for w in net.weights],
                "biases": [b.values.T.tolist() for b in net.biases],
            }
        Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Checkpoint":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("checkpoint file is not a JSON object")
        tag = payload.get("format")
        if tag != CHECKPOINT_FORMAT:
            raise CheckpointVersionError(
                f"unsupported checkpoint format {tag!r}; expected {CHECKPOINT_FORMAT!r}"
            )
        names = tuple(f.name for f in fields(cls))
        _require_keys(payload, names, "checkpoint")
        extractor, head = (_decode_network(name, payload[name]) for name in names)
        if extractor.d_out != head.d_in:
            raise ValueError(
                f"'adv_extractor' gives {extractor.d_out} features "
                f"but 'adv_head' takes {head.d_in}"
            )
        return cls(extractor, head)


def _cache_aligned(values: np.ndarray) -> Tensor:
    """A constant tensor over a copy of ``values`` that starts on a 64-byte boundary.

    numpy aligns an array to 16 bytes only, so where a trained weight lands
    depends on every allocation before it. ``evaluate`` on the 600-row
    ``blobs`` target, in 200-row blocks, took 240.2 us with the 64 x 64 weight
    on a 64-byte (cache line) boundary and 242.0-242.7 us at offsets 16, 32
    and 48 on OpenBLAS's SkylakeX kernel, where the boundary was faster in 28
    to 32 of 40 alternating in-process rounds; on its Haswell kernel every
    offset took 314.4-316.1 us. The bits are the same at every offset (2-vCPU
    Xeon).
    """
    buf = np.empty(values.size + 7)
    start = (-buf.ctypes.data % 64) // 8
    out = buf[start : start + values.size].reshape(values.shape)
    out[...] = values
    return Tensor._node(out, (), None)


def _decode_network(name: str, data) -> Mlp:
    """The network that ``data`` encodes, transposed from the file's layout;
    its errors name shapes as the file holds them."""
    _require_keys(data, ("weights", "biases"), f"network {name!r}")
    for key in ("weights", "biases"):
        if not isinstance(data[key], list):
            raise ValueError(f"network {name!r}: {key} is not a JSON list")
    try:
        weights = [Tensor(w).values for w in data["weights"]]
        biases = [Tensor(b).values for b in data["biases"]]
        for i, (w, b) in enumerate(zip(weights, biases)):
            if b.shape != (w.shape[0], 1):
                raise ValueError(f"bias {i} has shape {b.shape} but weight {i} is {w.shape}")
        net = Mlp(
            [Tensor(w.T, requires_grad=True) for w in weights],
            [Tensor(b.T, requires_grad=True) for b in biases],
        )
    except (TypeError, ValueError) as exc:  # ragged rows, strings, objects, shapes
        raise ValueError(f"network {name!r}: {exc}") from exc
    # a JSON null becomes NaN in a float64 array; NaN and Infinity are valid to Python's JSON reader
    for i, (w, b) in enumerate(zip(weights, biases)):
        for what, values in (("weight", w), ("bias", b)):
            if not np.isfinite(values).all():
                raise ValueError(f"network {name!r}: {what} {i} has a non-finite entry")
    return net


def _require_keys(data, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{what} is not a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing key {key!r}")
