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
from .nnet import row_blocks

__all__ = [
    "WeightVector",
    "OptimizationResult",
    "resampling_weights",
    "optimal_weights",
    "min_kl_table",
    "brute_force_min_kl",
    "table_to_csv",
]

# Grid points per product: 1024 x k <= 4 coordinates x 8 atoms stays far under
# OpenBLAS's single-thread GEMM cutoff, and the buffers stay a few tens of KB.
_GRID_BLOCK = 1024


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

    Visits every weight vector whose coordinates are multiples of grid_step,
    C(n+k-1, k-1) points for n = 1/grid_step (1,373,701 at k = 4 and step
    0.005), and returns the minimum divergence found. Exponential in k,
    hence restricted to k <= 4.

    The points stream through buffers of _GRID_BLOCK rows, one leading
    coordinate c1 at a time. The middle coordinates (c2[, c3]) are tabulated
    once in order of their sum, so the points with room for a given c1 are a
    prefix of that table, which is walked in nnet.row_blocks slices. Each
    slice's product stays on OpenBLAS's single-thread path and rounds as one
    product over the whole prefix would, so the result does not depend on
    the block size.
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
    rows = min(len(sums), _GRID_BLOCK + 1)  # row_blocks may end on a block one row longer
    block = np.empty((rows, k))
    pw = np.empty((rows, len(t_pos)))
    dots = np.empty(rows)

    best = -np.inf
    with np.errstate(divide="ignore"):  # log 0 = -inf where a point misses target mass
        for c1 in range(n + 1):
            rem = n - c1
            m = int(np.searchsorted(sums, rem, side="right"))
            block[:, 0] = c1 * grid_step
            for start, stop in row_blocks(m, _GRID_BLOCK):
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
