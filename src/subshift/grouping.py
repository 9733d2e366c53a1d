"""Subgrouping schemes over (y, s, a) atoms.

A grouping is a dist_core.SoftGrouping, the [n_atoms x k] matrix of
conditionals P(group | atom); this module builds it from a scheme's name.
A scheme is its serialized name, and each name is one entry in one table
below: a hard partition (_HARD), an equal-mass split of one (_SPLIT), a
noisy annotation of one (_NOISY, whose name ends in its noise level, e.g.
'Noisy_AY_0.10'), or Random. Only a noisy grouping
depends on the data, so it is built per p_train; every other grouping is
built once, at import, into _FIXED and shared read-only, so adding a fixed
scheme is still one entry in _HARD or _SPLIT. A scheme is y-free, and so
accepted by model-based mitigation methods, when every group of its
noise-free grouping holds both classes. The module also annotates sampled
datasets with group ids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dist_core import ATOM_LABELS, Distribution, N_ATOMS, SoftGrouping, atom_index
from .errors import InvalidScheme

__all__ = [
    "GroupingScheme",
    "atom_grouping",
    "annotate_samples",
    "refine",
    "reweighting_schemes",
    "model_based_schemes",
    "NOISE_LEVELS",
    "is_y_free",
]

# Noise sweep used by the standard scheme lists.
NOISE_LEVELS = (0.01, 0.05, 0.10, 0.25, 0.50)

# name -> group of atom (y, s, a)
_HARD = {
    "Y": lambda y, s, a: y,
    "A": lambda y, s, a: a,
    "S": lambda y, s, a: s,
    "AY": lambda y, s, a: 2 * y + a,
    "SY": lambda y, s, a: 2 * y + s,
    "YSA": lambda y, s, a: 4 * y + 2 * s + a,
    "SC_noSC": lambda y, s, a: int(y != a),
    "AS": lambda y, s, a: 2 * s + a,
}
# name -> hard parent whose groups are split in two
_SPLIT = {"AY_8": "AY", "SY_8": "SY", "A_4": "A", "S_4": "S"}
# name prefix -> hard parent; the noise level, at two decimals, completes the name
_NOISY = {"Noisy_AY_": "AY", "Noisy_A_": "A"}
_RANDOM_K = 4  # groups of the Random scheme, each drawn uniformly per sample


def _noisy(name: str) -> tuple[str, float] | None:
    """The name prefix and noise level of a noisy scheme's name; None for any other name."""
    for prefix in _NOISY:
        if name.startswith(prefix):
            try:
                return prefix, float(name[len(prefix):])
            except ValueError:
                raise InvalidScheme(f"bad noise fraction in {name!r}") from None
    return None


@dataclass(frozen=True)
class GroupingScheme:
    """A scheme, identified by its serialized name, e.g. 'AY_8' or 'Noisy_AY_0.05'.

    Only the canonical spelling is accepted: result rows and KL rows are
    keyed by the name, so one scheme has one name.
    """

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidScheme(f"a scheme name is a string, got {self.name!r}")
        if self.name in _FIXED:
            return
        noisy = _noisy(self.name)
        if noisy is None:
            raise InvalidScheme(f"unknown scheme name {self.name!r}")
        prefix, noise = noisy
        if not 0.0 <= noise < 1.0:
            raise InvalidScheme(f"noise fraction {noise} outside [0, 1)")
        canonical = f"{prefix}{abs(noise):.2f}"  # -0.0 is written 0.00
        if canonical != self.name:
            raise InvalidScheme(f"scheme {self.name!r} must be written {canonical!r}")


def _partition(name: str) -> SoftGrouping:
    labels = [_HARD[name](*row) for row in ATOM_LABELS.tolist()]
    return SoftGrouping(np.eye(max(labels) + 1)[labels])


def refine(grouping: SoftGrouping) -> SoftGrouping:
    """Split every group into two equal-mass children (k doubles).

    The conditional mass is divided exactly 0.5/0.5 at the distribution
    level; sample-level coin flips happen in annotate_samples, which seeds
    them independently.
    """
    return SoftGrouping(np.repeat(0.5 * grouping.assign, 2, axis=1))  # group g -> children 2g, 2g + 1


# name -> grouping of every scheme that does not depend on the data; a SoftGrouping is read-only, so shared
_FIXED = {name: _partition(name) for name in _HARD}
_FIXED.update({name: refine(_FIXED[parent]) for name, parent in _SPLIT.items()})
_FIXED["Random"] = SoftGrouping(np.full((N_ATOMS, _RANDOM_K), 1.0 / _RANDOM_K))


def atom_grouping(scheme: GroupingScheme, p_train: Distribution | None = None) -> SoftGrouping:
    """The scheme's P(group | atom) matrix.

    A fixed scheme's shared grouping is returned as is. A noisy scheme is
    built from p_train, which shapes its misannotation profile.
    """
    if scheme.name in _FIXED:
        return _FIXED[scheme.name]
    if p_train is None:
        raise InvalidScheme(f"{scheme.name} requires p_train for the noise profile")
    prefix, noise = _noisy(scheme.name)
    parent = _FIXED[_NOISY[prefix]].assign
    # A corrupted annotation is redrawn from the clean groups' mass profile,
    # so every row mixes the clean one-hot with the group marginals.
    return SoftGrouping((1.0 - noise) * parent + noise * np.tile(p_train.probs @ parent, (N_ATOMS, 1)))


def annotate_samples(dataset, scheme: GroupingScheme, seed: int, p_train: Distribution | None = None):
    """Assign a group id to every sample, returning a new annotated dataset.

    Each sample draws its group from its atom's conditional by inverting the
    row's CDF at a uniform u, reproducibly under the given seed. A one-hot
    row's CDF steps from exactly 0 to exactly 1, so hard schemes give every
    sample its partition label. Only the group annotation changes; y, s, a
    are untouched.
    """
    grouping = atom_grouping(scheme, p_train)
    atoms = atom_index(dataset.y, dataset.s, dataset.a)
    u = np.random.default_rng(seed).random(len(atoms))
    cdf = np.cumsum(grouping.assign, axis=1)
    groups = np.zeros(len(atoms), dtype=np.int64)
    for c in range(grouping.k - 1):  # the last column is 1 > u and never counts
        groups += cdf[atoms, c] <= u
    return replace(dataset, group=groups, group_scheme=scheme, group_count=grouping.k)


def is_y_free(scheme: GroupingScheme) -> bool:
    """Whether every group of the noise-free grouping holds both classes."""
    noisy = _noisy(scheme.name)
    assign = _FIXED[_NOISY[noisy[0]] if noisy else scheme.name].assign
    return bool(np.all([assign[ATOM_LABELS[:, 0] == y].any(axis=0) for y in (0, 1)]))


def reweighting_schemes() -> list:
    """The 15 schemes accepted by reweighting methods, in reference order."""
    names = ["A", "Y", "S", "AY", "SY", "YSA", "SC_noSC", "AY_8", "SY_8", "Random"]
    return [GroupingScheme(n) for n in names + [f"Noisy_AY_{b:.2f}" for b in NOISE_LEVELS]]


def model_based_schemes() -> list:
    """The 12 label-free schemes accepted by model-based methods."""
    names = ["A", "S", "SC_noSC", "Random", "A_4", "S_4", "AS"]
    return [GroupingScheme(n) for n in names + [f"Noisy_A_{b:.2f}" for b in NOISE_LEVELS]]
