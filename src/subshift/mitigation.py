"""Training procedures that consume subgroup labels.

Six methods share one encoder architecture and optimizer so that outcome
differences are attributable to the grouping signal alone:

* erm          -- plain weighted-BCE baseline, ignores groups
* gdro         -- online worst-group reweighting with exponentiated updates
* resampling   -- group-balanced minibatch construction
* domain_ind   -- one classification head per group, routed training
* cfair        -- per-class group adversaries with gradient reversal
* jtt          -- two-stage error upweighting, tuned on validation data

All of them train through one loop, ``_fit``. A method differs from another
only in three things it hands that loop: how an epoch's batches are drawn
(``batches(rng)``), what one step computes from a batch (``step(params,
batch)``, which weights samples, routes heads or trains adversaries), and
the model's shape (``n_heads``, ``adv_groups``). JTT runs ``_fit`` once for
stage one and once per upweighting candidate.

domain_ind and cfair (``NEEDS_Y_FREE``) refuse groupings that depend on the
label, since their mechanisms would leak y into inference; the check uses
the scheme name when the dataset carries one and falls back to a structural
test.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import nnet
from .errors import EmptyGroup, InvalidScheme, OutOfRange, YBasedGrouping
from .grouping import GroupingScheme, is_y_free
from .metrics import accuracy
from .nnet import expit

__all__ = [
    "METHODS",
    "NEEDS_Y_FREE",
    "TrainConfig",
    "TrainedModel",
    "train",
    "train_erm",
    "train_gdro",
    "train_resampling",
    "train_domain_ind",
    "train_cfair",
    "train_jtt",
]

JTT_STAGE1_GRID = (1, 2)
JTT_UPWEIGHT_GRID = (5.0, 20.0, 50.0)

# 1024 rows x 15 features x 16 hidden units stays under OpenBLAS's
# single-thread GEMM cutoff (65,536 x 4 multiply-adds), and no whole-split
# activation is allocated.
_SCORE_BLOCK = 1024


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 128
    lr: float = 1e-3
    weight_decay: float = 1e-4
    lr_decay_epoch: int = 10
    lr_decay_factor: float = 0.1
    hidden: int = 16
    gdro_eta: float = 0.01
    gdro_size_adjust: float = 1.0
    cfair_mu: float = 0.1
    jtt_stage1_epochs: int | None = None
    jtt_upweight: float | None = None
    domain_ind_rule: str = "max_abs"
    seed: int = 0

    def __post_init__(self):
        # A None JTT field means "tune it"; any value that is set must be in range.
        # The comparisons are written so that NaN fails them.
        for name in ("epochs", "batch_size", "hidden", "jtt_stage1_epochs"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, numbers.Integral):
                raise OutOfRange(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise OutOfRange(f"{name} must be >= 1, got {value}")
        for name in ("lr", "jtt_upweight", "lr_decay_factor"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise OutOfRange(f"{name} must be > 0, got {value}")
        for name in ("weight_decay", "lr_decay_epoch"):
            value = getattr(self, name)
            if not value >= 0:
                raise OutOfRange(f"{name} must be >= 0, got {value}")
        if self.domain_ind_rule not in ("max_abs", "sum"):
            raise InvalidScheme(f"unknown inference rule {self.domain_ind_rule!r}")


@dataclass(frozen=True)
class TrainedModel:
    params: nnet.ModelParams
    method: str
    config: TrainConfig
    history: tuple
    info: dict = field(default_factory=dict)

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        """Scores for every row of x, computed _SCORE_BLOCK rows at a time.

        Several heads reduce to one logit per row by the largest |logit|, or
        by their sum for domain_ind under the "sum" rule.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        scores = np.empty(len(x))
        for start, stop in nnet.row_blocks(len(x), _SCORE_BLOCK):
            logits, _ = nnet.forward(self.params, x[start:stop])
            if logits.ndim == 2:
                if self.method == "domain_ind" and self.config.domain_ind_rule == "sum":
                    logits = logits.sum(axis=1)
                else:
                    logits = logits[np.arange(len(logits)), np.argmax(np.abs(logits), axis=1)]
            scores[start:stop] = expit(logits)
        return scores


def _group_count(dataset) -> int:
    if dataset.group is None:
        raise InvalidScheme("dataset has no group labels; annotate it first")
    k = dataset.group_count
    if k is None:
        k = int(np.max(dataset.group)) + 1
    return int(k)


def _indices_by_group(dataset, k: int) -> list[np.ndarray]:
    idx = [np.nonzero(dataset.group == g)[0] for g in range(k)]
    for g, rows in enumerate(idx):
        if len(rows) == 0:
            raise EmptyGroup(f"group {g} has no training samples")
    return idx


def _lr_at(cfg: TrainConfig, epoch: int) -> float:
    if epoch >= cfg.lr_decay_epoch:
        return cfg.lr * cfg.lr_decay_factor
    return cfg.lr


def _check_y_free(dataset, k: int) -> None:
    """Refuse groupings that encode the label."""
    name = dataset.group_scheme
    if name is not None:
        try:
            scheme = GroupingScheme.from_name(name)
        except InvalidScheme:
            scheme = None
        if scheme is not None:
            if not is_y_free(scheme):
                raise YBasedGrouping(f"{name} groups are a function of y")
            return
    for g in range(k):
        labels = np.unique(dataset.y[dataset.group == g])
        if len(labels) < 2:
            raise YBasedGrouping(
                f"group {g} contains a single class; grouping may encode y"
            )


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _fit(dataset, cfg: TrainConfig, step, batches=None, q=None, **model_shape):
    """The one training loop every method runs; returns (params, history).

    batches(rng) yields one epoch of row indices (default: a fresh
    permutation cut into cfg.batch_size slices). step(params, batch) returns
    (loss, grads), or ((bce, adversary_loss), grads) for cfair; Adam then
    applies grads. model_shape (n_heads, adv_groups) goes to init_params. q
    is the group-weight array gDRO's step updates in place; each epoch's
    history row records a copy of it.
    """
    if batches is None:
        batches = partial(_epoch_batches, len(dataset.y), cfg.batch_size)
    rng = np.random.default_rng(cfg.seed)
    params = nnet.init_params(dataset.features.shape[1], cfg.hidden, seed=cfg.seed, **model_shape)
    state = nnet.adam_init(params)
    history = []
    for epoch in range(cfg.epochs):
        lr = _lr_at(cfg, epoch)
        losses = []
        for batch in batches(rng):
            loss, grads = step(params, batch)
            params, state = nnet.sgd_adam_step(params, grads, state, lr, cfg.weight_decay)
            losses.append(loss)
        adv = None
        if losses and isinstance(losses[0], tuple):
            losses, adv = zip(*losses)
        row = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        row["group_weights"] = None if q is None else q.copy()
        if adv is not None:
            row["adversary_loss"] = float(np.mean(adv))
        history.append(row)
    return params, tuple(history)


def _bce_step(dataset, sample_weights=None, head_ids=None):
    """step() for the plain weighted BCE; head_ids routes per-group heads."""
    x = dataset.features
    y = dataset.y.astype(float)

    def step(params, batch):
        w = None if sample_weights is None else sample_weights[batch]
        h = None if head_ids is None else head_ids[batch]
        return nnet.bce_loss_and_grad(params, x[batch], y[batch], sample_weights=w, head_ids=h)

    return step


def train_erm(dataset, cfg: TrainConfig) -> TrainedModel:
    params, history = _fit(dataset, cfg, _bce_step(dataset))
    return TrainedModel(params=params, method="erm", config=cfg, history=history)


def train_gdro(dataset, cfg: TrainConfig) -> TrainedModel:
    """Online group DRO.

    Group weights q live on the simplex. Each batch, groups present update
    q_g <- q_g * exp(eta * (mean batch loss of g + C / sqrt(n_g))) with n_g
    the full-train group size, then q renormalizes and every sample is
    weighted B * q_g / (batch count of g), which makes the weighted batch
    loss equal sum_g q_g * (mean loss of g).
    """
    k = _group_count(dataset)
    _indices_by_group(dataset, k)
    x = dataset.features
    y = dataset.y.astype(float)
    groups = dataset.group
    n_g = np.array([(groups == g).sum() for g in range(k)], dtype=float)
    adjust = cfg.gdro_size_adjust / np.sqrt(n_g)
    q = np.full(k, 1.0 / k)

    def step(params, batch):
        g_b = groups[batch]
        sample_loss = nnet.per_sample_losses(params, x[batch], y[batch])
        for g in np.unique(g_b):
            mean_loss = float(sample_loss[g_b == g].mean())
            q[g] *= np.exp(cfg.gdro_eta * (mean_loss + adjust[g]))
        q[:] /= q.sum()
        counts = np.bincount(g_b, minlength=k).astype(float)
        w = len(batch) * q[g_b] / counts[g_b]
        return nnet.bce_loss_and_grad(params, x[batch], y[batch], sample_weights=w)

    params, history = _fit(dataset, cfg, step, q=q)
    return TrainedModel(params=params, method="gdro", config=cfg, history=history)


def train_resampling(dataset, cfg: TrainConfig) -> TrainedModel:
    """Group-balanced sampling with replacement: batches pick a group
    uniformly, then a sample uniformly inside it."""
    k = _group_count(dataset)
    by_group = _indices_by_group(dataset, k)
    steps_per_epoch = max(1, int(np.ceil(len(dataset.y) / cfg.batch_size)))

    def batches(rng):
        for _ in range(steps_per_epoch):
            picks = rng.integers(0, k, size=cfg.batch_size)
            batch = np.empty(cfg.batch_size, dtype=int)
            for g in range(k):
                mask = picks == g
                m = int(mask.sum())
                if m:
                    batch[mask] = by_group[g][rng.integers(0, len(by_group[g]), size=m)]
            yield batch

    params, history = _fit(dataset, cfg, _bce_step(dataset), batches=batches)
    return TrainedModel(params=params, method="resampling", config=cfg, history=history)


def train_domain_ind(dataset, cfg: TrainConfig) -> TrainedModel:
    """One head per group; each sample trains only its group's head.

    Inference has no group label, so scores come from the head with the
    largest |logit| (default) or from the sum of all head logits.
    """
    k = _group_count(dataset)
    _indices_by_group(dataset, k)
    _check_y_free(dataset, k)
    params, history = _fit(dataset, cfg, _bce_step(dataset, head_ids=dataset.group), n_heads=k)
    return TrainedModel(params=params, method="domain_ind", config=cfg, history=history)


def train_cfair(dataset, cfg: TrainConfig) -> TrainedModel:
    """Adversarial group removal: per-class discriminators predict the group
    from the hidden layer; their gradient reaches the encoder reversed and
    scaled by mu. All parameters update in the same optimizer step."""
    k = _group_count(dataset)
    _indices_by_group(dataset, k)
    _check_y_free(dataset, k)
    if k < 2:
        raise InvalidScheme("adversarial training needs at least two groups")
    x = dataset.features
    y = dataset.y
    groups = dataset.group

    def step(params, batch):
        bce, adv, grads = nnet.cfair_loss_and_grad(
            params, x[batch], y[batch], groups[batch], cfg.cfair_mu
        )
        return (bce, adv), grads

    params, history = _fit(dataset, cfg, step, adv_groups=k)
    return TrainedModel(params=params, method="cfair", config=cfg, history=history)


def _selection_score(model: TrainedModel, val) -> float:
    scores = model.predict_scores(val.features)
    if val.group is None:
        return accuracy(scores, val.y)
    k = int(np.max(val.group)) + 1 if val.group_count is None else val.group_count
    accs = []
    for g in range(k):
        mask = val.group == g
        if mask.any():
            accs.append(accuracy(scores[mask], val.y[mask]))
    return min(accs)


def train_jtt(dataset, val, cfg: TrainConfig) -> TrainedModel:
    """Two-stage upweighting without train-time group labels.

    Stage one is a short ERM run; its training-set errors (threshold 0.5)
    get weight lambda in a from-scratch stage-two run. The (stage-1 epochs,
    lambda) pair comes from a small grid tuned on validation data: by
    worst-group accuracy when the validation split carries groups, by
    overall accuracy otherwise. Pinning both fields in the config collapses
    the grid to that single cell.
    """
    s1_grid = JTT_STAGE1_GRID if cfg.jtt_stage1_epochs is None else (cfg.jtt_stage1_epochs,)
    up_grid = JTT_UPWEIGHT_GRID if cfg.jtt_upweight is None else (cfg.jtt_upweight,)

    best = None
    for s1 in s1_grid:
        stage1 = train_erm(dataset, replace(cfg, epochs=int(s1)))
        wrong = (stage1.predict_scores(dataset.features) >= 0.5).astype(int) != dataset.y
        if not wrong.any():
            warnings.warn("stage-1 model makes no training errors; upweighting is a no-op")
        for lam in up_grid:
            weights = np.where(wrong, float(lam), 1.0)
            params, history = _fit(dataset, cfg, _bce_step(dataset, sample_weights=weights))
            candidate = TrainedModel(
                params=params,
                method="jtt",
                config=cfg,
                history=history,
                info={"stage1_epochs": int(s1), "upweight": float(lam), "n_upweighted": int(wrong.sum())},
            )
            score = _selection_score(candidate, val)
            if best is None or score > best[0]:
                best = (score, candidate)
    return best[1]


_TRAINERS = {
    "erm": train_erm,
    "gdro": train_gdro,
    "resampling": train_resampling,
    "domain_ind": train_domain_ind,
    "cfair": train_cfair,
}

# Every method name `train` accepts, in the order the module docstring lists them.
METHODS = (*_TRAINERS, "jtt")

# Methods whose mechanism would carry a label-based grouping into inference;
# their trainers refuse any grouping that is not y-free.
NEEDS_Y_FREE = ("domain_ind", "cfair")


def train(method: str, dataset, cfg: TrainConfig, val=None) -> TrainedModel:
    if method == "jtt":
        if val is None:
            raise InvalidScheme("jtt needs a validation split for model selection")
        return train_jtt(dataset, val, cfg)
    if method not in _TRAINERS:
        raise InvalidScheme(f"unknown method {method!r}")
    return _TRAINERS[method](dataset, cfg)
