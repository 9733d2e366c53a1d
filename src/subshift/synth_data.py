"""Desk-scale synthetic tabular data with a tunable shortcut.

Each sample draws an atom (y, s, a) from a source distribution, then three
Gaussian feature blocks encode the three variables: block b is spherical
noise centered at mu_b * (2v - 1) * ones(d_b) for the block's binary value
v. With mu_a > mu_y the shortcut block is the larger-margin signal, which
is what lets an unmitigated learner inherit the training correlation.

One data seed yields three independent streams: make_splits draws the
biased train and val splits from the first two, and make_test_split draws
the uniform test split from the third. Drawing the test split on its own
lets a caller fit on train and val, release them, and only then draw the
data it scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .dist_core import ATOM_LABELS, Distribution, N_ATOMS, atom_index, biased_distribution, uniform_distribution
from .errors import OutOfRange, check_fields

if TYPE_CHECKING:
    from .grouping import GroupingScheme

__all__ = ["FeatureConfig", "Dataset", "sample_dataset", "make_splits", "make_test_split"]


@dataclass(frozen=True)
class FeatureConfig:
    d_y: int = field(default=5, metadata={"min": 1})
    d_a: int = field(default=5, metadata={"min": 1})
    d_s: int = field(default=5, metadata={"min": 1})
    # Calibrated so an unmitigated learner prefers the shortcut block yet a
    # group-balanced one can still recover the label signal; see README.
    mu_y: float = 0.6
    mu_a: float = 2.0
    mu_s: float = 1.0
    noise_sd: float = field(default=1.0, metadata={"above": 0})

    def __post_init__(self):
        check_fields(self)

    @property
    def dim(self) -> int:
        return self.d_y + self.d_a + self.d_s


@dataclass(frozen=True)
class Dataset:
    """Column-oriented sample store; group annotation is optional.

    An annotated split holds each sample's group id, the GroupingScheme the
    ids were drawn from and its group count k.
    """

    features: np.ndarray
    y: np.ndarray
    s: np.ndarray
    a: np.ndarray
    group: np.ndarray | None = None
    group_scheme: GroupingScheme | None = None
    group_count: int | None = None

    def atom_indices(self) -> np.ndarray:
        return atom_index(self.y, self.s, self.a)


def _labels(rng, dist: Distribution, n: int) -> np.ndarray:
    """The [3 x n] (y, s, a) rows of n atoms drawn from dist: a split's first draw, before its features."""
    return ATOM_LABELS.T.take(rng.choice(N_ATOMS, size=n, p=dist.probs), axis=1)  # one gather, rows contiguous


def sample_dataset(dist: Distribution, n: int, cfg: FeatureConfig, seed: int) -> Dataset:
    """Draw n i.i.d. samples; bitwise deterministic for fixed arguments.

    A feature that overflows float64 raises OutOfRange, naming noise_sd and
    the three means.
    """
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    y, s, a = _labels(rng, dist, n)

    # noise * noise_sd + centers, built in the one array the draw returns;
    # an overflow is refused below, by name, rather than warned about
    features = rng.standard_normal((n, cfg.dim))
    signs = lambda v: (2.0 * v - 1.0)[:, None]
    with np.errstate(over="ignore"):
        features *= cfg.noise_sd
        features[:, : cfg.d_y] += cfg.mu_y * signs(y)
        features[:, cfg.d_y : cfg.d_y + cfg.d_a] += cfg.mu_a * signs(a)
        features[:, cfg.d_y + cfg.d_a :] += cfg.mu_s * signs(s)
    if not np.isfinite(features).all():
        raise OutOfRange(
            f"features overflow: noise_sd={cfg.noise_sd}, mu_y={cfg.mu_y}, mu_a={cfg.mu_a} "
            f"and mu_s={cfg.mu_s} draw values beyond float64's range"
        )

    return Dataset(features=features, y=y, s=s, a=a)


def _split_seeds(seed: int) -> tuple[int, int, int]:
    """The train, val and test stream seeds of one data seed."""
    return tuple(int(x) for x in np.random.SeedSequence(seed).generate_state(3))


def make_splits(cfg: FeatureConfig, n_train: int, n_val: int, p_s0: float, p_s1: float, seed: int):
    """Biased train and val splits of one data seed."""
    biased = biased_distribution(p_s0, p_s1)
    s_train, s_val, _ = _split_seeds(seed)
    return sample_dataset(biased, n_train, cfg, s_train), sample_dataset(biased, n_val, cfg, s_val)


def make_test_split(cfg: FeatureConfig, n_test: int, seed: int) -> Dataset:
    """The distribution-shifted uniform test split of one data seed."""
    return sample_dataset(uniform_distribution(), n_test, cfg, _split_seeds(seed)[2])


def _scored_labels(n_val: int, n_test: int, p_s0: float, p_s1: float, seed: int):
    """The (y, s, a) rows of one data seed's val and test splits, as make_splits and make_test_split draw them."""
    _, s_val, s_test = _split_seeds(seed)
    val = _labels(np.random.default_rng(s_val), biased_distribution(p_s0, p_s1), n_val)
    return val, _labels(np.random.default_rng(s_test), uniform_distribution(), n_test)
