"""Evaluation: ranking AUC, per-subgroup accuracy, and correlation.

The decision rule (a score >= 0.5 predicts 1, correct) and per-group
accuracy (group_accuracies) live here only; evaluate and JTT's model
selection read them. Subgroup accuracy is always reported over the two
fixed binary partitions of the evaluation set (by a and by s), no matter
which grouping trained the model, since training groups would make scores
across schemes incomparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, MissingCell, SingleClass

__all__ = ["EvalReport", "auc", "correct", "group_accuracies", "evaluate", "pearson"]

_BETA_CF_MAX_TERMS = 10_000


def _positives(labels) -> np.ndarray:
    """Which labels are 1; SingleClass unless both classes occur (auc's precondition)."""
    pos = np.asarray(labels) == 1
    if pos.all() or not pos.any():
        raise SingleClass("AUC needs both classes")
    return pos


def _require_cells(a, s) -> None:
    """MissingCell, naming the first empty (a, s) cell, unless all four have rows (evaluate's precondition)."""
    cells = np.bincount(2 * a + s, minlength=4)  # rows of each (a, s) cell, at 2a + s
    if not cells.all():
        a_val, s_val = divmod(int(np.argmin(cells)), 2)  # the first empty cell
        raise MissingCell(f"no samples with a={a_val}, s={s_val}")


def auc(scores, labels) -> float:
    """Mann-Whitney AUC: the share of (positive, negative) pairs that the positive
    outscores, a tie counting half. A non-finite score raises DegenerateInput.

    The pair count is a sum of integers and halves, so it is exact in float64.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise DegenerateInput("AUC needs finite scores")
    pos = _positives(labels)
    neg = np.sort(scores[~pos])
    pos_scores = np.sort(scores[pos])  # sorted probes keep searchsorted's lookups in cache
    below = np.searchsorted(neg, pos_scores, side="left").sum()
    ties = np.searchsorted(neg, pos_scores, side="right").sum() - below
    return float((below + 0.5 * ties) / (len(pos_scores) * len(neg)))


def correct(scores, labels) -> np.ndarray:
    """Whether each row's prediction equals its label; a score >= 0.5 predicts 1."""
    return (np.asarray(scores, dtype=float) >= 0.5) == np.asarray(labels)


def group_accuracies(scores, labels, groups) -> np.ndarray:
    """Accuracy of each group that has rows, in group order, from one bincount of the correct rows."""
    total = np.bincount(groups)
    present = total > 0
    return np.bincount(groups, weights=correct(scores, labels))[present] / total[present]


@dataclass(frozen=True)
class EvalReport:
    overall_auc: float
    min_acc_A: float
    gap_A: float
    min_acc_S: float
    gap_S: float


def evaluate(model, dataset) -> EvalReport:
    """Score a trained model on a labeled split.

    Requires every (a, s) cell to be populated so both partition gaps are
    meaningful.
    """
    _require_cells(dataset.a, dataset.s)
    scores = model.predict_scores(dataset.features)
    a_vals = group_accuracies(scores, dataset.y, dataset.a)
    s_vals = group_accuracies(scores, dataset.y, dataset.s)
    return EvalReport(
        overall_auc=auc(scores, dataset.y),
        min_acc_A=float(a_vals.min()),
        gap_A=float(a_vals.max() - a_vals.min()),
        min_acc_S=float(s_vals.min()),
        gap_S=float(s_vals.max() - s_vals.min()),
    )


def pearson(x, y) -> tuple[float, float]:
    """Pearson r with its two-sided p-value under the null of no correlation.

    r is computed as scipy.stats.pearsonr computes it: deviations from the
    mean are scaled by their largest magnitude before the norm, so squares
    cannot overflow. Under the null, (r + 1) / 2 is Beta(n/2 - 1, n/2 - 1),
    which makes the p-value p = 2 * I_{(1 - |r|)/2}(n/2 - 1, n/2 - 1), with I
    the regularized incomplete beta function. This equals the t-test p-value
    with n - 2 degrees of freedom. Fewer than 3 points, a non-finite value or
    zero variance raises DegenerateInput.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise DegenerateInput("length mismatch")
    if len(x) < 3:
        raise DegenerateInput("need at least 3 points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DegenerateInput("Pearson r needs finite values")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise DegenerateInput("zero variance")
    xm = x - x.mean()
    ym = y - y.mean()
    x_max = np.abs(xm).max()
    y_max = np.abs(ym).max()
    # axis=-1 sums the squares with np.add.reduce as scipy does; without an
    # axis, norm takes a BLAS dot, which can round differently.
    x_norm = x_max * np.linalg.norm(xm / x_max, axis=-1)
    y_norm = y_max * np.linalg.norm(ym / y_max, axis=-1)
    r = float(np.clip(np.dot(xm / x_norm, ym / y_norm), -1.0, 1.0))
    ab = len(x) / 2.0 - 1.0
    return r, 2.0 * _betainc(ab, ab, (1.0 - abs(r)) / 2.0)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0, 0 <= x <= 1.

    Evaluates the continued fraction by the modified Lentz method where it
    converges fast, x <= (a + 1) / (a + b + 2), and otherwise uses
    I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    if x <= 0.0 or x >= 1.0:
        return float(x >= 1.0)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    return math.exp(log_front) / a * _beta_continued_fraction(a, b, x)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), evaluated by the modified Lentz method."""
    tiny = 1e-300  # stands in for a zero denominator

    def nonzero(v: float) -> float:
        return v if abs(v) >= tiny else tiny

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _BETA_CF_MAX_TERMS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coef in (even, odd):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")
