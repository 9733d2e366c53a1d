"""Probability-vector algebra over (y, s, a) atoms.

An atom is one joint assignment of the three binary variables: the class
label y, the secondary attribute s, and the shortcut attribute a. Atoms are
indexed canonically (atom_index) as

    index = 4*y + 2*s + a

and row j of the read-only table ATOM_LABELS, the one decoder, holds the
(y, s, a) of atom j. The module owns both atom-space types, Distribution and
the grouping matrix SoftGrouping (grouping.py builds one from a scheme
name). Each has one constructor, which keeps a read-only copy of its input
and refuses anything that is not a distribution over atoms, or a matrix of
conditional ones, NaN included. The module builds the biased training
distribution, reweights it through a grouping (P^w = R @ w, R from
group_conditionals), and measures KL divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroup, InvalidScheme, NonNormalizable, OutOfRange, SupportMismatch

__all__ = [
    "N_ATOMS",
    "ATOM_LABELS",
    "atom_index",
    "Distribution",
    "SoftGrouping",
    "uniform_distribution",
    "biased_distribution",
    "kl_divergence",
    "group_conditionals",
    "reweighted_distribution",
]

N_ATOMS = 8

_INPUT_SLACK = 1e-9
_NEG_SLACK = -1e-12


def atom_index(y, s, a):
    """Vectorized canonical index 4*y + 2*s + a."""
    return 4 * np.asarray(y) + 2 * np.asarray(s) + np.asarray(a)


ATOM_LABELS = np.array([[j >> 2 & 1, j >> 1 & 1, j & 1] for j in range(N_ATOMS)], dtype=np.int8)
ATOM_LABELS.setflags(write=False)


@dataclass(frozen=True)
class Distribution:
    """A probability vector over atoms: entries non-negative, summing to 1 within 1e-12.

    Keeps a read-only copy of a finite (N_ATOMS,) vector, clipped at 0 and renormalized.
    An entry below -1e-12 or a mass more than 1e-9 from 1 raises NonNormalizable.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (N_ATOMS,):
            raise NonNormalizable(f"expected a vector of {N_ATOMS} atoms, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise NonNormalizable("non-finite entries")
        if np.any(p < _NEG_SLACK):
            raise NonNormalizable(f"negative entry {p.min():.3e} below tolerance")
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if abs(total - 1.0) > _INPUT_SLACK:
            raise NonNormalizable(f"mass {float(total)} deviates from 1 by more than {_INPUT_SLACK}")
        p /= total
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class SoftGrouping:
    """Conditional assignment matrix P(group | atom): N_ATOMS rows on the simplex.

    Keeps a read-only copy of an [N_ATOMS x k] matrix. A row with an entry that
    is not >= 0 (NaN included) or a sum more than 1e-12 from 1 raises InvalidScheme.
    """

    assign: np.ndarray

    def __post_init__(self):
        a = np.array(self.assign, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "assign", a)
        if a.ndim != 2 or len(a) != N_ATOMS:
            raise InvalidScheme(f"assign must be [{N_ATOMS} x k], got {a.shape}")
        if not (np.all(a >= 0.0) and np.max(np.abs(a.sum(axis=1) - 1.0)) <= 1e-12):
            raise InvalidScheme("rows must be conditional distributions")

    @property
    def k(self) -> int:
        return self.assign.shape[1]

    @property
    def is_hard(self) -> bool:
        return bool(np.all((self.assign == 0.0) | (self.assign == 1.0)))


def uniform_distribution() -> Distribution:
    return Distribution(np.full(N_ATOMS, 1.0 / N_ATOMS))


def biased_distribution(p_s0: float, p_s1: float) -> Distribution:
    """Joint distribution with a tunable shortcut correlation.

    p_s0 and p_s1 give the fraction of shortcut-aligned samples (y == a)
    within s=0 and s=1. The marginals P(y=1) = P(a=1) = P(s=1) = 0.5 hold
    for any setting; (0.5, 0.5) is the uniform, uncorrelated case.
    """
    for name, v in (("p_s0", p_s0), ("p_s1", p_s1)):
        if not 0.0 < v < 1.0:
            raise OutOfRange(f"{name} must lie strictly inside (0, 1), got {v}")
    y, s, a = ATOM_LABELS.T
    aligned = np.where(s == 0, p_s0, p_s1)
    return Distribution(np.where(y == a, aligned, 1.0 - aligned) / 4.0)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """KL(p || q) = sum_j p_j ln(p_j / q_j), in nats.

    Convention 0*ln(0) = 0. Mass of p outside q's support is a
    SupportMismatch error rather than +inf, to surface configuration bugs.
    A sum that rounds to 0 or below, -0.0 included, is returned as 0.0.
    """
    pv, qv = p.probs, q.probs
    pos = pv > 0.0
    if np.any(qv[pos] == 0.0):
        raise SupportMismatch("p has mass where q is zero")
    kl = float(np.sum(pv[pos] * np.log(pv[pos] / qv[pos])))
    return 0.0 if kl <= 0.0 else kl  # NaN passes, as max(0.0, kl) would not


def group_conditionals(p: Distribution, g: SoftGrouping) -> np.ndarray:
    """R[j, i] = share of group i's mass contributed by atom j.

    g is a SoftGrouping, the conditionals P(group | atom); anything else
    raises InvalidScheme. With m_ji = p_j * P(group i | atom j) and
    M_i = sum_j m_ji, R[j, i] = m_ji / M_i, so P^w = R @ w. A group with
    M_i = 0 gets a zero column; every other column has a positive entry.
    """
    if not isinstance(g, SoftGrouping):
        raise InvalidScheme(f"expected a SoftGrouping, got {type(g).__name__}")
    m = p.probs[:, None] * g.assign
    mass = m.sum(axis=0)
    return np.divide(m, mass, out=np.zeros_like(m), where=mass > 0.0)


def reweighted_distribution(p: Distribution, g: SoftGrouping, w) -> Distribution:
    """Redistribute mass across groups while preserving within-group ratios.

    g is a SoftGrouping (anything else raises InvalidScheme); w is an array
    of shape (g.k,), else SupportMismatch, whose entries must lie on the
    simplex: an entry below 0 or a sum more than 1e-10 from 1 (NaN included)
    raises OutOfRange. The result is P^w = R @ w with R from
    group_conditionals. For a hard partition this reduces to scaling each
    group's conditional distribution by its weight. A positive weight on a
    group without mass raises EmptyGroup.
    """
    r = group_conditionals(p, g)
    wv = np.asarray(w, dtype=float)
    if wv.shape != (g.k,):
        raise SupportMismatch(f"weights of shape {wv.shape} do not fit {g.k} groups")
    if not (np.all(wv >= 0.0) and abs(wv.sum() - 1.0) <= 1e-10):
        raise OutOfRange(f"weights must lie on the simplex, got {wv.tolist()} with sum {float(wv.sum())}")
    dead = ~r.any(axis=0) & (wv > 0.0)
    if np.any(dead):
        raise EmptyGroup(f"groups {np.nonzero(dead)[0].tolist()} have weight but no mass")
    return Distribution(r @ wv)
