"""Weight optimization on the group simplex.

Two reweighting regimes are analyzed for any grouping:

  * resampling fixes uniform weights w = [1/k, ..., 1/k];
  * learned reweighting picks the w that best matches the target
    distribution, quantified as kl_divergence(p_target, P^w), the
    divergence of the target from the reweighted training distribution.

Minimizing that objective is Cover's log-optimal portfolio problem: maximize
sum_j t_j log (R w)_j over the simplex. Cover's fixed-point iteration
(T. M. Cover, "An algorithm for maximizing expected log investment return",
IEEE Trans. IT 30(2), 1984) solves it with no step size, decreases the
objective monotonically, and certifies every iterate with a gap that bounds
its distance from the optimum. A brute-force grid search over the simplex
serves as an independent oracle for small k.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dist_core import Distribution, kl_divergence, reweighted_distribution
from .errors import EmptyGroup, OutOfRange, SupportMismatch, TooManyGroups
from .grouping import SoftGrouping, atom_grouping

__all__ = [
    "WeightVector",
    "OptimizationResult",
    "resampling_weights",
    "optimal_weights",
    "min_kl_table",
    "brute_force_min_kl",
    "table_to_csv",
]


@dataclass(frozen=True)
class WeightVector:
    w: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", v)
        v.setflags(write=False)
        if np.any(v < 0.0) or abs(v.sum() - 1.0) > 1e-10:
            raise OutOfRange(f"weights must lie on the simplex, got sum {v.sum()!r}")

    def __len__(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class OptimizationResult:
    weights: WeightVector
    achieved_kl: float
    iterations: int
    converged: bool
    gap: float


def resampling_weights(grouping: SoftGrouping) -> WeightVector:
    """Uniform weights 1/k: what uniform group sampling induces."""
    return WeightVector(np.full(grouping.k, 1.0 / grouping.k))


def _ratio_matrix(p_train: Distribution, grouping: SoftGrouping):
    """R[j, i] = share of group i's mass contributed by atom j.

    P^w = R @ w. Zero-mass groups are reported so callers can drop them.
    """
    m = p_train.probs[:, None] * grouping.assign
    mass = m.sum(axis=0)
    alive = mass > 0.0
    r = np.zeros_like(m)
    r[:, alive] = m[:, alive] / mass[alive]
    return r, alive


def optimal_weights(
    p_train: Distribution,
    grouping: SoftGrouping,
    p_target: Distribution,
    tol: float = 1e-11,
    max_iters: int = 100_000,
) -> OptimizationResult:
    """Minimize kl_divergence(p_target, P^w) over the weight simplex.

    Cover's iteration from uniform w: w <- w * r(w), renormalized, where
    r_i(w) = sum_j t_j R_ji / (R w)_j over the atoms j with target mass.
    Every iterate satisfies f(w) - f* <= gap = log max_i r_i(w), so tol is a
    bound in nats on f(w) - f*: the iteration stops once gap <= tol. On
    iteration exhaustion the last iterate is returned with its gap and
    converged=False rather than raising.

    Groups with zero mass under p_train get weight 0 and a warning; a
    positive-weight request on such a group is impossible by construction
    here since the optimizer owns the weights. Target mass on an atom that
    no remaining group covers makes every P^w miss it: SupportMismatch.
    """
    r_full, alive = _ratio_matrix(p_train, grouping)
    if not np.any(alive):
        raise EmptyGroup("every group has zero mass")
    if not np.all(alive):
        warnings.warn(
            f"dropping zero-mass groups {np.nonzero(~alive)[0].tolist()} from optimization",
            stacklevel=2,
        )
    pos = p_target.probs > 0.0
    r = r_full[np.ix_(pos, alive)]
    t = p_target.probs[pos]
    uncovered = ~np.any(r > 0.0, axis=1)
    if np.any(uncovered):
        atoms = np.nonzero(pos)[0][uncovered].tolist()
        raise SupportMismatch(f"target has mass on atoms {atoms} that no group with training mass covers")

    k = r.shape[1]
    w = np.full(k, 1.0 / k)
    for iterations in range(max_iters + 1):
        pw = r @ w
        ratio = (t / pw) @ r
        gap = float(np.log(ratio.max()))
        if gap <= tol or iterations == max_iters:
            break
        w = w * ratio
        w /= w.sum()

    full = np.zeros(len(alive))
    full[alive] = w
    return OptimizationResult(
        weights=WeightVector(full),
        achieved_kl=float(np.sum(t * np.log(t / pw))),
        iterations=iterations,
        converged=gap <= tol,
        gap=gap,
    )


def brute_force_min_kl(
    p_train: Distribution,
    grouping: SoftGrouping,
    p_target: Distribution,
    grid_step: float = 0.005,
) -> float:
    """Exhaustive simplex grid search; the independent check on the optimizer.

    Enumerates every weight vector with coordinates that are multiples of
    grid_step and returns the minimum divergence found. Exponential in k,
    hence restricted to k <= 4.
    """
    k = grouping.k
    if k > 4:
        raise TooManyGroups(f"grid search over a {k}-simplex is not tractable")
    if not 0.0 < grid_step <= 0.5:
        raise OutOfRange(f"grid_step must be in (0, 0.5], got {grid_step}")
    n = int(round(1.0 / grid_step))
    r, _ = _ratio_matrix(p_train, grouping)
    t = p_target.probs
    pos = t > 0.0
    t_pos = t[pos]
    entropy_part = float(np.sum(t_pos * np.log(t_pos)))
    r_pos = r[pos, :]

    def batch_min(weight_block: np.ndarray) -> float:
        pw = weight_block @ r_pos.T
        with np.errstate(divide="ignore"):
            logs = np.where(pw > 0.0, np.log(np.where(pw > 0.0, pw, 1.0)), -np.inf)
        vals = entropy_part - logs @ t_pos
        return float(np.min(vals)) if len(vals) else np.inf

    best = np.inf
    if k == 1:
        return batch_min(np.array([[1.0]]))
    if k == 2:
        c = np.arange(n + 1, dtype=float)
        block = np.column_stack([c, n - c]) * grid_step
        return batch_min(block)
    for c1 in range(n + 1):
        if k == 3:
            c2 = np.arange(n - c1 + 1, dtype=float)
            block = np.column_stack([np.full_like(c2, c1), c2, n - c1 - c2]) * grid_step
            best = min(best, batch_min(block))
        else:
            rem = n - c1
            g2, g3 = np.meshgrid(np.arange(rem + 1), np.arange(rem + 1), indexing="ij")
            keep = (g2 + g3) <= rem
            c2, c3 = g2[keep].astype(float), g3[keep].astype(float)
            block = np.column_stack([np.full_like(c2, c1), c2, c3, rem - c2 - c3]) * grid_step
            best = min(best, batch_min(block))
    return best


@dataclass(frozen=True)
class MinKlRow:
    scheme: str
    kl_gdro: float
    kl_resampling: float


def min_kl_table(
    schemes: list,
    p_train: Distribution,
    p_target: Distribution,
) -> list:
    """Per-scheme minimum and uniform-weight divergences of GroupingSchemes, in input order."""
    if not schemes:
        raise OutOfRange("schemes list is empty")
    rows = []
    for scheme in schemes:
        grouping = atom_grouping(scheme, p_train)
        uniform = resampling_weights(grouping)
        kl_res = kl_divergence(p_target, reweighted_distribution(p_train, grouping, uniform))
        opt = optimal_weights(p_train, grouping, p_target)
        rows.append(MinKlRow(scheme=scheme.name, kl_gdro=opt.achieved_kl, kl_resampling=kl_res))
    return rows


def table_to_csv(rows: list) -> str:
    lines = ["scheme,kl_gdro,kl_resampling"]
    for row in rows:
        lines.append(f"{row.scheme},{row.kl_gdro:.6f},{row.kl_resampling:.6f}")
    return "\n".join(lines) + "\n"
