"""The full training loop: adversarial game, centroid regularizers, schedules.

Each iteration runs one discriminator minimization followed by one main
minimization of L_C1 + L_C2 + L_PL + L_G + alpha * (L_CC + L_CS); the
discriminator is frozen during the main step. Pseudo-labels are screened
against the previous iteration's centroid banks, consumed by this iteration's
centroid update and by L_PL, and then discarded. L_PL is the cross entropy of
both classifiers on the accepted target samples: a high-confidence label
trains the two classifiers as a source label does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import centroids as cent
from . import losses
from .datasets import SOURCE, LabeledDataset
from .networks import Mlp, MlpSpec, Params, branch_outputs
from .pseudo_label import PseudoLabelBatch, kmeans_assign, select_high_confidence, tau_adv, tau_clu
from .tensor import Tensor, matmul, vstack

CHECKPOINT_FORMAT = "dcp-checkpoint-v2"

# Desk-scale architecture: smallest shapes where the adversarial game and the
# centroid geometry are observable on 2-D synthetic data.
FEATURE_DIM = 64
DISC_HIDDEN = 32

NETWORK_NAMES = ("adv_extractor", "adv_head", "clu_extractor", "clu_head", "discriminator")


class NumericsError(RuntimeError):
    """A loss became non-finite at some iteration.

    Raised before any update of that iteration is kept, so the state is the
    one the last good iteration left.
    """

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


class UnlabeledDatasetError(ValueError):
    """Evaluation was asked to score samples with unknown labels."""


class CheckpointVersionError(ValueError):
    """The checkpoint file carries an unsupported format tag."""


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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


METRICS_FIELDS = (
    "T",
    "l_d",
    "l_g",
    "l_c1",
    "l_c2",
    "l_cc",
    "l_cs",
    "l_pl",
    "tau_adv",
    "tau_clu",
    "n_selected",
    "pseudo_precision",
    "source_acc",
    "target_acc",
)


@dataclass
class MetricsRecord:
    T: int
    l_d: float
    l_g: float
    l_c1: float
    l_c2: float
    l_cc: float | None
    l_cs: float | None
    tau_adv: float
    tau_clu: float
    n_selected: int
    pseudo_precision: float | None
    source_acc: float | None = None
    target_acc: float | None = None
    # absent (None) when no pseudo-label was accepted this iteration
    l_pl: float | None = None

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


def write_metrics_csv(records: list[MetricsRecord], path) -> None:
    lines = [",".join(METRICS_FIELDS)]
    lines += [",".join(r.csv_row()) for r in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- optimizer ---------------------------------------------------------------


def sgd_momentum_step(
    values: np.ndarray,
    grad: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
) -> tuple[np.ndarray, np.ndarray]:
    """v <- momentum * v + grad; p <- p - lr * v."""
    if values.shape != grad.shape or values.shape != velocity.shape:
        raise ValueError(
            f"mismatched shapes: values {values.shape}, grad {grad.shape}, velocity {velocity.shape}"
        )
    new_velocity = momentum * velocity + grad
    return values - lr * new_velocity, new_velocity


def apply_sgd_update(
    params: list[Tensor], velocity: list[np.ndarray], lr: float, momentum: float
) -> None:
    """Step every parameter tensor in place and zero its gradient."""
    for i, p in enumerate(params):
        grad = p.grad if p.grad is not None else np.zeros(p.shape)
        new_values, velocity[i] = sgd_momentum_step(p.values, grad, velocity[i], lr, momentum)
        p.update_values(new_values)
        p.zero_grad()


# -- state -------------------------------------------------------------------


@dataclass
class TrainState:
    config: TrainConfig
    k: int
    d_in: int
    networks: dict[str, Mlp]
    velocity: dict[str, list[np.ndarray]]
    t: int = 0
    # (K x d_f) centroids of each branch, detached; None before the first step
    bank_adv: Tensor | None = None
    bank_clu: Tensor | None = None


def init_state(config: TrainConfig, k: int, d_in: int) -> TrainState:
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    specs = {
        "adv_extractor": MlpSpec((d_in, FEATURE_DIM, FEATURE_DIM)),
        "adv_head": MlpSpec((FEATURE_DIM, k)),
        "clu_extractor": MlpSpec((d_in, FEATURE_DIM, FEATURE_DIM)),
        "clu_head": MlpSpec((FEATURE_DIM, k)),
        "discriminator": MlpSpec((FEATURE_DIM, DISC_HIDDEN, 1), output_activation="sigmoid"),
    }
    seeds = {
        "adv_extractor": config.adv_seed,
        "adv_head": config.adv_seed + 1_000_003,
        "clu_extractor": config.clu_seed,
        "clu_head": config.clu_seed + 1_000_003,
        "discriminator": config.disc_seed,
    }
    networks = {name: Mlp.create(spec, seeds[name]) for name, spec in specs.items()}
    velocity = {
        name: [np.zeros(p.shape) for p in net.params.tensors()]
        for name, net in networks.items()
    }
    return TrainState(config=config, k=k, d_in=d_in, networks=networks, velocity=velocity)


@dataclass
class StepInfo:
    """Diagnostics of one iteration, for callbacks and tests."""

    selected: PseudoLabelBatch
    y_adv_target: np.ndarray
    y_clu_target: np.ndarray
    alignment_skipped: bool
    target_batch_true_labels: np.ndarray | None = None


def pseudo_precision(selected: PseudoLabelBatch, true_labels) -> float | None:
    """Fraction of selected samples whose pseudo-label is correct.

    ``true_labels`` covers the whole target batch, indexed by batch position.
    Absent (None), not zero, when nothing was selected.
    """
    if len(selected) == 0:
        return None
    true_labels = np.asarray(true_labels, dtype=np.int64).reshape(-1)
    return float((selected.labels == true_labels[selected.indices]).mean())


def _all_params(state: TrainState, names: tuple[str, ...]) -> list[Tensor]:
    out: list[Tensor] = []
    for name in names:
        out.extend(state.networks[name].params.tensors())
    return out


def _update_networks(state: TrainState, names: tuple[str, ...]) -> None:
    cfg = state.config
    for name in names:
        apply_sgd_update(
            state.networks[name].params.tensors(), state.velocity[name], cfg.lr, cfg.momentum
        )


def _check_finite(state: TrainState, **losses_by_name: float | None) -> None:
    """Raise NumericsError on the first non-finite loss; absent losses pass."""
    for name, value in losses_by_name.items():
        if value is not None and not np.isfinite(value):
            raise NumericsError(state.t, f"{name} is {value}")


def train_step(
    state: TrainState,
    source_batch: tuple[np.ndarray, np.ndarray],
    target_batch: np.ndarray,
    target_batch_true_labels: np.ndarray | None = None,
) -> tuple[MetricsRecord, StepInfo]:
    """One full iteration; mutates ``state`` and returns its metrics.

    ``target_batch_true_labels`` is an evaluation-only input used to measure
    pseudo-label precision; it never influences any update.
    """
    cfg = state.config
    k = state.k
    xs_values, ys = source_batch
    ys = np.asarray(ys, dtype=np.int64).reshape(-1)
    if xs_values.shape[0] == 0 or target_batch.shape[0] == 0:
        raise ValueError("batches must be nonempty")
    if target_batch.shape[0] < k:
        raise ValueError(
            f"target batch has {target_batch.shape[0]} rows; clustering it needs at least k={k}"
        )
    xs = Tensor(xs_values)
    xt = Tensor(target_batch)
    n_target = xt.rows

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
    for cls in range(k):
        members = ys == cls
        if not members.any():
            raise ValueError(f"source batch is missing class {cls}; use stratified sampling")
        init_centroids[cls] = fs_clu.values[members].mean(axis=0)
    y_clu_target, _ = kmeans_assign(ft_clu.values, init_centroids, max_iters=cfg.kmeans_max_iters)

    # (c) double-threshold screening against the previous iteration's banks
    if cfg.use_pseudo_labels and state.bank_adv is not None and state.bank_clu is not None:
        selected = select_high_confidence(
            ft_adv.values,
            ft_clu.values,
            y_adv_target,
            y_clu_target,
            state.bank_adv.values,
            state.bank_clu.values,
            state.t,
        )
    else:
        selected = PseudoLabelBatch.empty()

    # (d) per-branch centroids over source labels plus accepted pseudo-labels
    pseudo = np.full(n_target, -1, dtype=np.int64)
    pseudo[selected.indices] = selected.labels
    union_labels = np.concatenate([ys, pseudo])
    l_cc_tensor = l_cs_tensor = None
    alignment_skipped = False
    bank_adv_step = bank_clu_step = None
    try:
        fresh_adv = cent.compute_centroids(vstack([fs_adv, ft_adv]), union_labels, k)
        fresh_clu = cent.compute_centroids(vstack([fs_clu, ft_clu]), union_labels, k)
        bank_adv_step = (
            cent.update_centroids_ema(state.bank_adv, fresh_adv, cfg.ema_momentum)
            if state.bank_adv is not None
            else fresh_adv
        )
        bank_clu_step = (
            cent.update_centroids_ema(state.bank_clu, fresh_clu, cfg.ema_momentum)
            if state.bank_clu is not None
            else fresh_clu
        )
        m_cc_adv = cent.centroid_centroid_matrix(bank_adv_step)
        m_cc_clu = cent.centroid_centroid_matrix(bank_clu_step)
        m_cs_adv = cent.centroid_sample_matrix(bank_adv_step, ft_adv)
        m_cs_clu = cent.centroid_sample_matrix(bank_clu_step, ft_clu)
        l_cc_tensor = cent.loss_cc(m_cc_clu, m_cc_adv)
        l_cs_tensor = cent.loss_cs(m_cs_clu, m_cs_adv)
    except cent.DegenerateGeometryError:
        # collapsed feature geometry: skip only the alignment losses this step
        alignment_skipped = True

    # (e) discriminator update on detached features; only D moves. Each loss
    # is checked before the update it drives.
    d_source = disc(fs_adv.detached())
    d_target = disc(ft_adv.detached())
    l_d = losses.discriminator_loss(d_source, d_target)
    _check_finite(state, l_d=l_d.item())
    disc_params = disc.params.tensors()
    disc_before = ([p.values for p in disc_params], list(state.velocity["discriminator"]))
    l_d.backward()
    _update_networks(state, ("discriminator",))

    # (f) main update: classifiers, generator, and alignment; D frozen
    l_c1 = losses.source_classification_loss(adv_head(fs_adv), ys)
    l_c2 = losses.source_classification_loss(clu_head(fs_clu), ys)
    l_g = losses.generator_loss(disc(ft_adv))
    total = l_c1 + l_c2 + l_g
    l_pl = None
    if len(selected):
        # accepted pseudo-labels train both classifiers; a constant selection
        # matrix picks their rows out of the target batch
        pick = Tensor(np.eye(n_target)[selected.indices])
        l_pl = losses.source_classification_loss(matmul(pick, logits_t_adv), selected.labels)
        l_pl = l_pl + losses.source_classification_loss(
            clu_head(matmul(pick, ft_clu)), selected.labels
        )
        total = total + l_pl
    if not alignment_skipped and cfg.alpha > 0.0:
        total = total + (l_cc_tensor + l_cs_tensor) * cfg.alpha
    try:
        _check_finite(
            state,
            l_g=l_g.item(),
            l_c1=l_c1.item(),
            l_c2=l_c2.item(),
            l_cc=None if alignment_skipped else l_cc_tensor.item(),
            l_cs=None if alignment_skipped else l_cs_tensor.item(),
            l_pl=None if l_pl is None else l_pl.item(),
        )
    except NumericsError:
        # undo the discriminator update of this iteration
        values, state.velocity["discriminator"] = disc_before
        for p, v in zip(disc_params, values):
            p.update_values(v)
        raise
    total.backward()
    _update_networks(state, ("adv_extractor", "adv_head", "clu_extractor", "clu_head"))
    for p in _all_params(state, NETWORK_NAMES):
        p.zero_grad()

    # (g) advance the iteration counter and persist detached banks
    record = MetricsRecord(
        T=state.t,
        l_d=l_d.item(),
        l_g=l_g.item(),
        l_c1=l_c1.item(),
        l_c2=l_c2.item(),
        l_cc=None if alignment_skipped else l_cc_tensor.item(),
        l_cs=None if alignment_skipped else l_cs_tensor.item(),
        l_pl=None if l_pl is None else l_pl.item(),
        tau_adv=tau_adv(state.t),
        tau_clu=tau_clu(state.t),
        n_selected=len(selected),
        pseudo_precision=(
            pseudo_precision(selected, target_batch_true_labels)
            if target_batch_true_labels is not None
            else None
        ),
    )
    if bank_adv_step is not None:
        state.bank_adv = bank_adv_step.detached()
        state.bank_clu = bank_clu_step.detached()
    state.t += 1
    info = StepInfo(
        selected=selected,
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
    """

    def __init__(self, pools: list[np.ndarray], batch_size: int, rng: np.random.Generator):
        self._rng = rng
        self._pools = pools
        self._queues: list[list[int]] = [[] for _ in pools]
        base, extra = divmod(batch_size, len(pools))
        self._per_pool = [base + (1 if i < extra else 0) for i in range(len(pools))]

    def next_batch(self) -> np.ndarray:
        chosen: list[int] = []
        for pool, queue, want in zip(self._pools, self._queues, self._per_pool):
            while len(queue) < want:
                queue.extend(self._rng.permutation(pool).tolist())
            chosen.extend(queue[:want])
            del queue[:want]
        return np.array(chosen, dtype=np.int64)


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
    come from seeded per-epoch shuffles, target accuracy is measured through
    the evaluation-only label accessor, and records at the evaluation cadence
    carry source/target accuracy. Target accuracy and pseudo-label precision
    need every target label; when any is unknown (-1) they are absent.
    """
    if source.domain_tag != SOURCE:
        raise ValueError("first dataset must be the labeled source domain")
    if source.d != target.d:
        raise ValueError(f"source dimension {source.d} != target dimension {target.d}")
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
        record, info = train_step(
            state,
            (source.X[src_idx], source.y[src_idx]),
            target.X[tgt_idx],
            target_batch_true_labels=target_eval_labels[tgt_idx] if target_labeled else None,
        )
        if t % config.eval_every == 0 or t == config.iterations - 1:
            record.source_acc = _dataset_accuracy(state, source.X, source.y)
            if target_labeled:
                record.target_acc = _dataset_accuracy(state, target.X, target_eval_labels)
        records.append(record)
        if on_step is not None:
            on_step(state, record, info)
    return Checkpoint.from_state(state), records


def _dataset_accuracy(state: TrainState, x: np.ndarray, y: np.ndarray) -> float:
    out = branch_outputs(state.networks["adv_extractor"], state.networks["adv_head"], Tensor(x))
    return float((out.predicted_labels == y).mean())


# -- evaluation ----------------------------------------------------------------


@dataclass
class EvalReport:
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": self.per_class_accuracy.tolist(),
            "confusion": self.confusion.tolist(),
        }


def evaluate(checkpoint: "Checkpoint", dataset: LabeledDataset) -> EvalReport:
    """Score the adversarial branch's argmax predictions against true labels."""
    labels = dataset.eval_labels()
    if (labels < 0).any():
        raise UnlabeledDatasetError("dataset has unknown labels; evaluation needs ground truth")
    k = checkpoint.k
    if (labels >= k).any():
        raise ValueError(
            f"label {labels[labels >= k][0]} is outside [0, {k}): the checkpoint has {k} classes"
        )
    out = branch_outputs(
        checkpoint.networks["adv_extractor"], checkpoint.networks["adv_head"], Tensor(dataset.X)
    )
    confusion = np.zeros((k, k), dtype=np.int64)
    for true, pred in zip(labels, out.predicted_labels):
        confusion[true, pred] += 1
    row_totals = confusion.sum(axis=1)
    per_class = np.divide(
        np.diag(confusion),
        row_totals,
        out=np.zeros(k),
        where=row_totals > 0,
    )
    return EvalReport(
        accuracy=float((out.predicted_labels == labels).mean()),
        per_class_accuracy=per_class,
        confusion=confusion,
    )


# -- checkpointing --------------------------------------------------------------


@dataclass
class Checkpoint:
    """The trained networks plus the config and shape that produced them.

    Enough to reproduce forward passes; optimizer velocity and centroid banks
    are not kept, so a run cannot be resumed from a checkpoint.
    """

    config: TrainConfig
    t: int
    k: int
    d_in: int
    networks: dict[str, Mlp]

    @classmethod
    def from_state(cls, state: TrainState) -> "Checkpoint":
        return cls(
            config=state.config,
            t=state.t,
            k=state.k,
            d_in=state.d_in,
            networks=state.networks,
        )

    def save(self, path) -> None:
        def encode_net(net: Mlp) -> dict:
            return {
                "layer_widths": list(net.spec.layer_widths),
                "output_activation": net.spec.output_activation,
                "weights": [w.values.tolist() for w in net.params.weights],
                "biases": [b.values.tolist() for b in net.params.biases],
            }

        payload = {
            "format": CHECKPOINT_FORMAT,
            "config": self.config.to_dict(),
            "t": self.t,
            "k": self.k,
            "d_in": self.d_in,
            "networks": {name: encode_net(net) for name, net in self.networks.items()},
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
        _require_keys(payload, ("config", "t", "k", "d_in", "networks"), "checkpoint")
        _require_keys(payload["networks"], NETWORK_NAMES, "checkpoint networks")

        def decode_net(name: str, data: dict) -> Mlp:
            _require_keys(
                data, ("layer_widths", "output_activation", "weights", "biases"), f"network {name!r}"
            )
            spec = MlpSpec(tuple(data["layer_widths"]), data["output_activation"])
            params = Params(
                weights=[Tensor(np.array(w), requires_grad=True) for w in data["weights"]],
                biases=[Tensor(np.array(b), requires_grad=True) for b in data["biases"]],
            )
            return Mlp(spec=spec, params=params)

        return cls(
            config=TrainConfig.from_dict(payload["config"]),
            t=payload["t"],
            k=payload["k"],
            d_in=payload["d_in"],
            networks={name: decode_net(name, data) for name, data in payload["networks"].items()},
        )


def _require_keys(data, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{what} is not a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing key {key!r}")
