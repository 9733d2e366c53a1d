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

from .dist_core import Distribution, SoftGrouping, group_conditionals, kl_divergence, reweighted_distribution
from .errors import OutOfRange, SupportMismatch, TooManyGroups
from .grouping import atom_grouping
from .nnet import BLOCK_ROWS, row_blocks

__all__ = [
    "OptimizationResult",
    "resampling_weights",
    "optimal_weights",
    "MinKlRow",
    "min_kl_table",
    "brute_force_min_kl",
    "table_to_csv",
]

# Cover's iteration stops at a gap of _TOL nats, or after _MAX_ITERS updates.
_TOL = 1e-11
_MAX_ITERS = 100_000


@dataclass(frozen=True)
class OptimizationResult:
    weights: np.ndarray  # read-only, on the simplex
    achieved_kl: float
    iterations: int
    converged: bool
    gap: float


def resampling_weights(grouping: SoftGrouping) -> np.ndarray:
    """Uniform weights 1/k, read-only: what uniform group sampling induces."""
    w = np.full(grouping.k, 1.0 / grouping.k)
    w.setflags(write=False)
    return w


def optimal_weights(p_train: Distribution, grouping: SoftGrouping, p_target: Distribution) -> OptimizationResult:
    """Minimize kl_divergence(p_target, P^w) over the weight simplex.

    Cover's iteration from uniform w: w <- w * r(w), renormalized, where
    r_i(w) = sum_j t_j R_ji / (R w)_j over the atoms j with target mass.
    Every iterate satisfies f(w) - f* <= gap = log max_i r_i(w), so _TOL is
    a bound in nats on f(w) - f*: the iteration stops once gap <= _TOL. After
    _MAX_ITERS updates the last iterate is returned with its gap and
    converged=False rather than raising.

    A group with no mass under p_train has a zero column in R, so its ratio
    is 0 and the first update gives it weight exactly 0, where it stays.
    Target mass on an atom that no group with mass covers makes every P^w
    miss it: SupportMismatch.
    """
    pos = p_target.probs > 0.0
    r = group_conditionals(p_train, grouping)[pos]
    t = p_target.probs[pos]
    uncovered = ~np.any(r > 0.0, axis=1)
    if np.any(uncovered):
        atoms = np.nonzero(pos)[0][uncovered].tolist()
        raise SupportMismatch(f"target has mass on atoms {atoms} that no group with training mass covers")

    k = r.shape[1]
    w = np.full(k, 1.0 / k)
    for iterations in range(_MAX_ITERS + 1):
        pw = r @ w
        ratio = (t / pw) @ r
        gap = float(np.log(ratio.max()))
        if gap <= _TOL or iterations == _MAX_ITERS:
            break
        w = w * ratio
        w /= w.sum()

    w.setflags(write=False)
    kl = float(np.sum(t * np.log(t / pw)))
    return OptimizationResult(
        weights=w,
        achieved_kl=0.0 if kl <= 0.0 else kl,  # as kl_divergence rounds: never below 0.0
        iterations=iterations,
        converged=gap <= _TOL,
        gap=gap,
    )


def brute_force_min_kl(
    p_train: Distribution,
    grouping: SoftGrouping,
    p_target: Distribution,
    grid_step: float = 0.005,
) -> float:
    """Exhaustive simplex grid search; the independent check on the optimizer.

    Visits every weight vector whose coordinates are multiples of grid_step,
    C(n+k-1, k-1) points for n = 1/grid_step (1,373,701 at k = 4 and step
    0.005), and returns the minimum divergence found. Exponential in k,
    hence restricted to k <= 4.

    The points stream through buffers of nnet.BLOCK_ROWS rows, one leading
    coordinate c1 at a time. The middle coordinates (c2[, c3]) are tabulated
    once in order of their sum, so the points with room for a given c1 are a
    prefix of that table, which is walked in nnet.row_blocks slices. Each
    slice's product stays on OpenBLAS's single-thread path and rounds as one
    product over the whole prefix would, so the result does not depend on
    BLOCK_ROWS.
    """
    r = group_conditionals(p_train, grouping)
    k = grouping.k
    if k > 4:
        raise TooManyGroups(f"grid search over a {k}-simplex is not tractable")
    if not 0.0 < grid_step <= 0.5:
        raise OutOfRange(f"grid_step must be in (0, 0.5], got {grid_step}")
    n = int(round(1.0 / grid_step))
    t = p_target.probs
    pos = t > 0.0
    t_pos = t[pos]
    entropy_part = float(np.sum(t_pos * np.log(t_pos)))
    r_pos_t = np.ascontiguousarray(r[pos, :].T)
    if k == 1:
        with np.errstate(divide="ignore"):
            return float(entropy_part - (np.log(r_pos_t) @ t_pos)[0])

    # Middle points ordered by their sum s: one empty point at k = 2, c2 = s
    # at k = 3, and c2 = 0..s with c3 = s - c2 at k = 4. Row j of a block is
    # (c1, middle point j, n - c1 - sums[j]) * grid_step.
    s = np.arange(n + 1.0) if k > 2 else np.zeros(1)
    sums = np.repeat(s, np.arange(1, n + 2)) if k == 4 else s
    middle = np.empty((len(sums), k - 2))
    if k == 3:
        middle[:, 0] = sums
    elif k == 4:
        np.subtract(np.arange(len(sums)), sums * (sums + 1.0) / 2.0, out=middle[:, 0])
        np.subtract(sums, middle[:, 0], out=middle[:, 1])
    middle *= grid_step
    rows = min(len(sums), BLOCK_ROWS + 1)  # row_blocks may end on a block one row longer
    block = np.empty((rows, k))
    pw = np.empty((rows, len(t_pos)))
    dots = np.empty(rows)

    best = -np.inf
    with np.errstate(divide="ignore"):  # log 0 = -inf where a point misses target mass
        for c1 in range(n + 1):
            rem = n - c1
            m = int(np.searchsorted(sums, rem, side="right"))
            block[:, 0] = c1 * grid_step
            for start, stop in row_blocks(m):
                w, p, d = block[: stop - start], pw[: stop - start], dots[: stop - start]
                w[:, 1:-1] = middle[start:stop]
                np.subtract(rem, sums[start:stop], out=w[:, -1])
                w[:, -1] *= grid_step
                np.matmul(w, r_pos_t, out=p)
                np.log(p, out=p)
                np.matmul(p, t_pos, out=d)
                best = max(best, d.max())
    # Rounding is monotone, so entropy_part - max(dots) is exactly min(entropy_part - dots).
    return float(entropy_part - best)


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
    """Per-scheme minimum and uniform-weight divergences of GroupingSchemes, in input order.

    A solve that runs out of iterations warns, naming the scheme; its row
    keeps the last iterate's divergence, which the warning's gap bounds.
    An empty list gives an empty table; ExperimentSpec refuses one first.
    """
    rows = []
    for scheme in schemes:
        grouping = atom_grouping(scheme, p_train)
        uniform = resampling_weights(grouping)
        kl_res = kl_divergence(p_target, reweighted_distribution(p_train, grouping, uniform))
        opt = optimal_weights(p_train, grouping, p_target)
        if not opt.converged:
            warnings.warn(
                f"{scheme.name}: the min-KL solve stopped after {opt.iterations} iterations "
                f"with gap {opt.gap:.3g} nats, above its tolerance",
                stacklevel=2,
            )
        rows.append(MinKlRow(scheme=scheme.name, kl_gdro=opt.achieved_kl, kl_resampling=kl_res))
    return rows


def table_to_csv(rows: list) -> str:
    lines = ["scheme,kl_gdro,kl_resampling"]
    for row in rows:
        lines.append(f"{row.scheme},{row.kl_gdro:.6f},{row.kl_resampling:.6f}")
    return "\n".join(lines) + "\n"
