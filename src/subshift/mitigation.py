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
(``batches(rng)``), what one step computes from a batch and reports
(``step(params, batch)``, which weights samples, routes heads or trains
adversaries), and the model's shape (``n_heads``, ``adv_groups``). ``_fit``
owns the parameters, Adam's moments and the step count, updates them in
place, keeps each epoch's mean report and returns the ``TrainedModel``.
Grouped trainers (``NEEDS_TRAIN_GROUPS``) count their groups in
``_group_sizes``. JTT runs ``_fit`` for stage one and per upweighting
candidate, tags each in its ``info``, and names the run in the error of one
that diverges.

domain_ind and cfair (``NEEDS_Y_FREE``) refuse groupings that depend on the
label, since their mechanisms would leak y into inference. One function,
``refuse_y_based``, holds that rule: run_sweep asks it of every (method,
scheme) pair before any data is drawn, and the two trainers of the scheme
their split was annotated with, since groups come only from a scheme.
JTT's error scan and selection use the decision rule of ``metrics``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import nnet
from .errors import DegenerateInput, EmptyGroup, InvalidScheme, YBasedGrouping, check_fields
from .grouping import GroupingScheme, is_y_free
from .metrics import correct, group_accuracies
from .nnet import expit

__all__ = [
    "METHODS",
    "NEEDS_Y_FREE",
    "NEEDS_TRAIN_GROUPS",
    "refuse_y_based",
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
    epochs: int = field(default=20, metadata={"min": 1})
    batch_size: int = field(default=128, metadata={"min": 1})
    lr: float = field(default=1e-3, metadata={"above": 0})
    weight_decay: float = field(default=1e-4, metadata={"min": 0})
    lr_decay_epoch: int = field(default=10, metadata={"min": 0})
    lr_decay_factor: float = field(default=0.1, metadata={"above": 0})
    hidden: int = field(default=16, metadata={"min": 1})
    gdro_eta: float = field(default=0.01, metadata={"min": 0})
    gdro_size_adjust: float = field(default=1.0, metadata={"min": 0})
    cfair_mu: float = field(default=0.1, metadata={"min": 0})

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class TrainedModel:
    params: nnet.ModelParams
    history: tuple
    info: dict = field(default_factory=dict)

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        """Scores for every row of x, _SCORE_BLOCK rows at a time, each from its largest-|logit| head.

        Overflow and invalid values are silenced, as in _fit: a score that is
        not finite is refused where it is used (metrics.auc), so an extreme
        model is an error row, not a numpy warning.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        scores = np.empty(len(x))
        with np.errstate(over="ignore", invalid="ignore"):
            for start, stop in nnet.row_blocks(len(x), _SCORE_BLOCK):
                logits, _ = nnet.forward(self.params, x[start:stop])
                scores[start:stop] = expit(logits[np.arange(len(logits)), np.argmax(np.abs(logits), axis=1)])
        return scores


def _group_sizes(dataset) -> np.ndarray:
    """Training samples per group, one bincount; refuses a split no scheme annotated, or an empty group."""
    if dataset.group_scheme is None:
        raise InvalidScheme("dataset carries no grouping scheme; annotate it first")
    sizes = np.bincount(dataset.group, minlength=dataset.group_count)
    empty = np.flatnonzero(sizes == 0)
    if len(empty):
        raise EmptyGroup(f"group {empty[0]} has no training samples")
    return sizes


def refuse_y_based(method: str, scheme: GroupingScheme) -> None:
    """Refuse a NEEDS_Y_FREE method paired with a scheme whose groups are a function of y."""
    if method in NEEDS_Y_FREE and not is_y_free(scheme):
        raise YBasedGrouping(f"{method} needs y-free groups, but {scheme.name} groups are a function of y")


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _fit(dataset, cfg: TrainConfig, seed: int, step, batches=None, **model_shape) -> TrainedModel:
    """The one training loop every method runs; returns the trained model,
    which carries no method name and scores by its largest-|logit| head.

    seed starts both the batch RNG and the parameter initialisation.
    batches(rng) yields one epoch of row indices (default: a fresh
    permutation cut into cfg.batch_size slices). step(params, batch) returns
    (report, grads): a dict of what the step measured, then the gradients
    Adam applies in place. Each epoch's history row is {"epoch": e} plus,
    for every report key, its mean over the epoch's steps, taken elementwise
    for arrays. model_shape (n_heads, adv_groups) goes to init_params.
    Trainers count their groups with _group_sizes before they call it.

    Training that diverges raises DegenerateInput naming the epoch: after
    each epoch the parameters, Adam's moments and every epoch mean must be
    finite, so numpy's overflow warnings are silenced inside the loop.
    """
    if batches is None:
        batches = partial(_epoch_batches, len(dataset.y), cfg.batch_size)
    rng = np.random.default_rng(seed)
    params = nnet.init_params(dataset.features.shape[1], cfg.hidden, seed=seed, **model_shape)
    moments = (np.zeros_like(params.flat), np.zeros_like(params.flat))
    t = 0
    history = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            lr = cfg.lr * cfg.lr_decay_factor if epoch >= cfg.lr_decay_epoch else cfg.lr
            reports = []
            for batch in batches(rng):
                report, grads = step(params, batch)
                t += 1
                nnet.sgd_adam_step(params, grads, moments, t, lr, cfg.weight_decay)
                reports.append(report)
            means = {key: np.mean([r[key] for r in reports], axis=0) for key in (reports[0] if reports else ())}
            checked = (("parameters", params.flat), ("Adam moments", moments), *means.items())
            bad = [name for name, value in checked if not np.isfinite(value).all()]
            if bad:
                raise DegenerateInput(
                    f"training diverged in epoch {epoch + 1} of {cfg.epochs}: {', '.join(bad)} not finite"
                )
            history.append({"epoch": epoch, **means})
    return TrainedModel(params=params, history=tuple(history))


def _bce_step(dataset, sample_weights=None, head_ids=None):
    """step() for the plain weighted BCE, reporting train_loss; head_ids routes per-group heads."""
    x = dataset.features
    y = dataset.y.astype(float)

    def step(params, batch):
        w = None if sample_weights is None else sample_weights[batch]
        h = None if head_ids is None else head_ids[batch]
        loss, grads = nnet.bce_loss_and_grad(params, x[batch], y[batch], sample_weights=w, head_ids=h)
        return {"train_loss": loss}, grads

    return step


def train_erm(dataset, cfg: TrainConfig, seed: int) -> TrainedModel:
    return _fit(dataset, cfg, seed, _bce_step(dataset))


def train_gdro(dataset, cfg: TrainConfig, seed: int) -> TrainedModel:
    """Online group DRO.

    Group weights q live on the simplex. Each batch, groups present update
    q_g <- q_g * exp(eta * (mean batch loss of g + C / sqrt(n_g))) with n_g
    the full-train group size, then q renormalizes and every sample is
    weighted B * q_g / (batch count of g), which makes the weighted batch
    loss equal sum_g q_g * (mean loss of g). The update runs on log q,
    shifted so its largest entry is 0 before exp, so q stays finite for
    any eta whose step is finite. The q-update is the loss call's weights
    function, so it reads the losses of the step's one forward pass. Each
    step reports q, so history holds each epoch's time-averaged q.
    """
    n_g = _group_sizes(dataset).astype(float)
    k = len(n_g)
    x = dataset.features
    y = dataset.y.astype(float)
    groups = dataset.group
    adjust = cfg.gdro_size_adjust / np.sqrt(n_g)
    q = np.full(k, 1.0 / k)
    log_q = np.zeros(k)

    def step(params, batch):
        g_b = groups[batch]
        counts = np.bincount(g_b, minlength=k).astype(float)

        def weights(sample_loss):
            present = counts > 0
            mean_loss = np.bincount(g_b, weights=sample_loss, minlength=k)[present] / counts[present]
            log_q[present] += cfg.gdro_eta * (mean_loss + adjust[present])
            log_q[:] -= log_q.max()
            q[:] = np.exp(log_q)
            q[:] /= q.sum()
            return len(batch) * q[g_b] / counts[g_b]

        loss, grads = nnet.bce_loss_and_grad(params, x[batch], y[batch], sample_weights=weights)
        return {"train_loss": loss, "group_weights": q.copy()}, grads

    return _fit(dataset, cfg, seed, step)


def train_resampling(dataset, cfg: TrainConfig, seed: int) -> TrainedModel:
    """Group-balanced sampling with replacement: each batch slot picks a group
    uniformly, then a row uniformly inside it; one generator call draws a
    batch's rows, group by group and in slot order inside each group."""
    sizes = _group_sizes(dataset)
    members = np.argsort(dataset.group, kind="stable")  # group 0's rows, then group 1's, ...
    first = np.cumsum(sizes) - sizes  # where each group's rows start in members
    steps_per_epoch = max(1, int(np.ceil(len(dataset.y) / cfg.batch_size)))

    def batches(rng):
        for _ in range(steps_per_epoch):
            picks = rng.integers(0, len(sizes), size=cfg.batch_size)
            slots = np.argsort(picks, kind="stable")  # group by group, slot order inside each
            groups = picks[slots]
            batch = np.empty(cfg.batch_size, dtype=int)
            batch[slots] = members[first[groups] + rng.integers(0, sizes[groups])]
            yield batch

    return _fit(dataset, cfg, seed, _bce_step(dataset), batches=batches)


def train_domain_ind(dataset, cfg: TrainConfig, seed: int) -> TrainedModel:
    """One head per group; each sample trains only its group's head.

    Inference has no group label, so scores come from the head with the
    largest |logit|.
    """
    k = len(_group_sizes(dataset))
    refuse_y_based("domain_ind", dataset.group_scheme)
    return _fit(dataset, cfg, seed, _bce_step(dataset, head_ids=dataset.group), n_heads=k)


def train_cfair(dataset, cfg: TrainConfig, seed: int) -> TrainedModel:
    """Adversarial group removal: per-class discriminators predict the group
    from the hidden layer; their gradient reaches the encoder reversed and
    scaled by mu. All parameters update in the same optimizer step."""
    k = len(_group_sizes(dataset))
    refuse_y_based("cfair", dataset.group_scheme)
    if k < 2:
        raise InvalidScheme("adversarial training needs at least two groups")
    x = dataset.features
    y = dataset.y
    groups = dataset.group

    def step(params, batch):
        bce, adv, grads = nnet.cfair_loss_and_grad(params, x[batch], y[batch], groups[batch], cfg.cfair_mu)
        return {"train_loss": bce, "adversary_loss": adv}, grads

    return _fit(dataset, cfg, seed, step, adv_groups=k)


def train_jtt(dataset, val, cfg: TrainConfig, seed: int) -> TrainedModel:
    """Two-stage upweighting without train-time group labels.

    Stage one is a short ERM run; its training-set errors (threshold 0.5)
    get weight lambda in a from-scratch stage-two run. The (stage-1 epochs,
    lambda) pair is the cell of JTT_STAGE1_GRID x JTT_UPWEIGHT_GRID with
    the best worst-group accuracy on val, which must be a split a scheme
    annotated. The grids are read when the function runs; one warning names
    the stage-one lengths whose model made no training error. A run that
    diverges raises _fit's DegenerateInput with the run named after it:
    "(jtt stage 1, 1 epoch)" or "(jtt stage 2, stage-1 epochs 1, upweight 5)".
    """
    if val is None or val.group_scheme is None:
        raise InvalidScheme("jtt selects by worst-group accuracy; annotate its validation split first")
    best = None
    no_errors = []
    for s1 in JTT_STAGE1_GRID:
        try:
            stage1 = train_erm(dataset, replace(cfg, epochs=s1), seed)
        except DegenerateInput as exc:
            raise DegenerateInput(f"{exc} (jtt stage 1, {s1} epoch{'s' if s1 > 1 else ''})") from None
        wrong = ~correct(stage1.predict_scores(dataset.features), dataset.y)
        if not wrong.any():
            no_errors.append(str(s1))
        for lam in JTT_UPWEIGHT_GRID:
            try:
                fitted = _fit(dataset, cfg, seed, _bce_step(dataset, sample_weights=np.where(wrong, lam, 1.0)))
            except DegenerateInput as exc:
                raise DegenerateInput(f"{exc} (jtt stage 2, stage-1 epochs {s1}, upweight {lam:g})") from None
            candidate = replace(fitted, info={"stage1_epochs": s1, "upweight": lam, "n_upweighted": int(wrong.sum())})
            score = group_accuracies(candidate.predict_scores(val.features), val.y, val.group).min()
            if best is None or score > best[0]:
                best = (score, candidate)
    if no_errors:
        where = f"jtt on {val.group_scheme.name}, stage-1 epochs {', '.join(no_errors)}"
        warnings.warn(f"stage-1 model makes no training errors ({where}); upweighting is a no-op")
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

# Methods whose trainers count the train split's groups (_group_sizes) and so
# refuse one with an empty group; erm ignores groups and jtt reads only val's.
NEEDS_TRAIN_GROUPS = ("gdro", "resampling", "domain_ind", "cfair")


def train(method: str, dataset, cfg: TrainConfig, seed: int, val=None) -> TrainedModel:
    """Train one method on dataset; only jtt reads val, and train_jtt refuses a missing one."""
    if method == "jtt":
        return train_jtt(dataset, val, cfg, seed)
    if method not in _TRAINERS:
        raise InvalidScheme(f"unknown method {method!r}")
    return _TRAINERS[method](dataset, cfg, seed)
