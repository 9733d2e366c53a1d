"""Subgrouping schemes over (y, s, a) atoms.

A grouping is an [n_atoms x k] matrix of conditionals P(group | atom). Hard
partitions are the 0/1 special case; split, noisy and random schemes have
soft rows. Each scheme is one entry in one table below: a hard partition
(_HARD), an equal-mass split of one (_SPLIT), a noisy annotation of one
(_NOISY), or Random. Its serialized name, its groups and whether it is
y-free follow from that entry: a scheme is y-free, and so accepted by
model-based mitigation methods, when every group of its noise-free grouping
holds both classes. The module also annotates sampled datasets with group ids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dist_core import Distribution, N_ATOMS
from .errors import InvalidScheme

__all__ = [
    "SoftGrouping",
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

# kind -> (serialized name, group of atom (y, s, a), group names)
_HARD = {
    "Y": ("Y", lambda y, s, a: y, ("y0", "y1")),
    "A": ("A", lambda y, s, a: a, ("a0", "a1")),
    "S": ("S", lambda y, s, a: s, ("s0", "s1")),
    "AY": ("AY", lambda y, s, a: 2 * y + a, ("a0_y0", "a1_y0", "a0_y1", "a1_y1")),
    "SY": ("SY", lambda y, s, a: 2 * y + s, ("s0_y0", "s1_y0", "s0_y1", "s1_y1")),
    "YSA": (
        "YSA",
        lambda y, s, a: 4 * y + 2 * s + a,
        tuple(f"y{y}_s{s}_a{a}" for y in (0, 1) for s in (0, 1) for a in (0, 1)),
    ),
    "SCnoSC": ("SC_noSC", lambda y, s, a: int(y != a), ("aligned", "conflicting")),
    "AS": ("AS", lambda y, s, a: 2 * s + a, ("a0_s0", "a1_s0", "a0_s1", "a1_s1")),
}
# kind -> (serialized name, hard parent whose groups are split in two)
_SPLIT = {"AY8": ("AY_8", "AY"), "SY8": ("SY_8", "SY"), "A4": ("A_4", "A"), "S4": ("S_4", "S")}
# kind -> (serialized name prefix, hard parent); the noise level completes the name
_NOISY = {"NoisyAY": ("Noisy_AY_", "AY"), "NoisyA": ("Noisy_A_", "A")}
_RANDOM_K = 4  # groups of the Random scheme, each drawn uniformly per sample

_FIXED_NAMES = {kind: entry[0] for kind, entry in (_HARD | _SPLIT).items()} | {"Random": "Random"}
_NAME_TO_KIND = {name: kind for kind, name in _FIXED_NAMES.items()}


@dataclass(frozen=True)
class GroupingScheme:
    """A named scheme; noise applies to NoisyAY/NoisyA."""

    kind: str
    noise: float = 0.0

    def __post_init__(self):
        if self.kind not in _FIXED_NAMES and self.kind not in _NOISY:
            raise InvalidScheme(f"unknown kind {self.kind!r}")
        if self.kind in _NOISY and not 0.0 <= self.noise < 1.0:
            raise InvalidScheme(f"noise fraction {self.noise} outside [0, 1)")

    @property
    def name(self) -> str:
        """Serialized name used in result files, e.g. 'AY_8', 'Noisy_AY_0.05'."""
        if self.kind in _NOISY:
            return f"{_NOISY[self.kind][0]}{self.noise:.2f}"
        return _FIXED_NAMES[self.kind]

    @staticmethod
    def from_name(name: str) -> "GroupingScheme":
        """The scheme serialized as name; only its canonical spelling is accepted."""
        if name in _NAME_TO_KIND:
            return GroupingScheme(_NAME_TO_KIND[name])
        for kind, (prefix, _) in _NOISY.items():
            if name.startswith(prefix):
                try:
                    scheme = GroupingScheme(kind, noise=float(name[len(prefix):]))
                except ValueError:
                    raise InvalidScheme(f"bad noise fraction in {name!r}") from None
                if scheme.name != name:  # result rows and KL rows are keyed by the canonical name
                    raise InvalidScheme(f"scheme {name!r} must be written {scheme.name!r}")
                return scheme
        raise InvalidScheme(f"unknown scheme name {name!r}")


@dataclass(frozen=True)
class SoftGrouping:
    """Conditional assignment matrix P(group | atom), rows on the simplex."""

    assign: np.ndarray
    group_names: tuple
    scheme_id: str

    def __post_init__(self):
        a = np.asarray(self.assign, dtype=float)
        object.__setattr__(self, "assign", a)
        a.setflags(write=False)
        if a.ndim != 2 or a.shape[1] < 1:
            raise InvalidScheme(f"assign must be [n_atoms x k], got {a.shape}")
        if a.shape[1] != len(self.group_names):
            raise InvalidScheme("group_names length disagrees with k")
        if np.any(a < 0.0) or np.max(np.abs(a.sum(axis=1) - 1.0)) > 1e-12:
            raise InvalidScheme("rows must be conditional distributions")

    @property
    def k(self) -> int:
        return self.assign.shape[1]

    @property
    def is_hard(self) -> bool:
        return bool(np.all((self.assign == 0.0) | (self.assign == 1.0)))


def _partition(kind: str) -> SoftGrouping:
    name, group_of, names = _HARD[kind]
    labels = [group_of((j >> 2) & 1, (j >> 1) & 1, j & 1) for j in range(N_ATOMS)]
    return SoftGrouping(np.eye(len(names))[labels], names, name)


def refine(grouping: SoftGrouping) -> SoftGrouping:
    """Split every group into two equal-mass children (k doubles).

    The conditional mass is divided exactly 0.5/0.5 at the distribution
    level; sample-level coin flips happen in annotate_samples, which seeds
    them independently.
    """
    a = grouping.assign
    out = np.zeros((a.shape[0], 2 * a.shape[1]))
    out[:, 0::2] = 0.5 * a
    out[:, 1::2] = 0.5 * a
    names = tuple(f"{n}_{half}" for n in grouping.group_names for half in (0, 1))
    return SoftGrouping(out, names, f"{grouping.scheme_id}_refined")


def atom_grouping(scheme: GroupingScheme, p_train: Distribution | None = None) -> SoftGrouping:
    """Build the scheme's P(group | atom) matrix.

    Noisy schemes need p_train to shape the misannotation profile; all
    other schemes ignore it.
    """
    if scheme.kind in _HARD:
        return _partition(scheme.kind)
    if scheme.kind in _SPLIT:
        name, parent = _SPLIT[scheme.kind]
        return replace(refine(_partition(parent)), scheme_id=name)
    if scheme.kind == "Random":
        assign = np.full((N_ATOMS, _RANDOM_K), 1.0 / _RANDOM_K)
        return SoftGrouping(assign, tuple(f"r{i}" for i in range(_RANDOM_K)), "Random")
    if p_train is None:
        raise InvalidScheme(f"{scheme.kind} requires p_train for the noise profile")
    parent = _partition(_NOISY[scheme.kind][1])
    # A corrupted annotation is redrawn from the clean groups' mass profile,
    # so every row mixes the clean one-hot with the group marginals.
    marginal = p_train.probs @ parent.assign
    assign = (1.0 - scheme.noise) * parent.assign + scheme.noise * np.tile(marginal, (N_ATOMS, 1))
    return SoftGrouping(assign, parent.group_names, scheme.name)


def annotate_samples(dataset, scheme: GroupingScheme, seed: int, p_train: Distribution | None = None):
    """Assign a group id to every sample, returning a new annotated dataset.

    Each sample draws its group from its atom's conditional by inverting the
    row's CDF at a uniform u, reproducibly under the given seed. A one-hot
    row's CDF steps from exactly 0 to exactly 1, so hard schemes give every
    sample its partition label. Only the group annotation changes; y, s, a
    are untouched.
    """
    grouping = atom_grouping(scheme, p_train)
    atoms = dataset.atom_indices()
    u = np.random.default_rng(seed).random(len(atoms))
    cdf = np.cumsum(grouping.assign, axis=1)
    groups = np.zeros(len(atoms), dtype=np.int64)
    for c in range(grouping.k - 1):  # the last column is 1 > u and never counts
        groups += cdf[atoms, c] <= u
    return dataset.with_groups(groups, scheme.name, grouping.k)


def is_y_free(scheme: GroupingScheme) -> bool:
    """Whether every group of the noise-free grouping holds both classes."""
    kind = _NOISY[scheme.kind][1] if scheme.kind in _NOISY else scheme.kind
    assign = atom_grouping(GroupingScheme(kind)).assign
    return bool(assign.reshape(2, N_ATOMS // 2, -1).any(axis=1).all())  # atoms 0-3 have y = 0, 4-7 y = 1


def reweighting_schemes() -> list:
    """The 15 schemes accepted by reweighting methods, in reference order."""
    base = [GroupingScheme(k) for k in ("A", "Y", "S", "AY", "SY", "YSA", "SCnoSC", "AY8", "SY8", "Random")]
    return base + [GroupingScheme("NoisyAY", noise=b) for b in NOISE_LEVELS]


def model_based_schemes() -> list:
    """The 12 label-free schemes accepted by model-based methods."""
    base = [GroupingScheme(k) for k in ("A", "S", "SCnoSC", "Random", "A4", "S4", "AS")]
    return base + [GroupingScheme("NoisyA", noise=b) for b in NOISE_LEVELS]
