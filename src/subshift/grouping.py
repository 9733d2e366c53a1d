"""Subgrouping schemes over (y, s, a) atoms.

A grouping is an [n_atoms x k] matrix of conditionals P(group | atom). Hard
partitions are the 0/1 special case; noisy and random schemes have genuinely
soft rows. The module also annotates sampled datasets with group ids and
knows which schemes are compatible with model-based mitigation methods
(those whose groups never isolate a single class).
"""

from __future__ import annotations

from dataclasses import dataclass

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

_HARD_KINDS = ("Y", "A", "S", "AY", "SY", "YSA", "SCnoSC", "AS")
_SPLIT_KINDS = {"AY8": "AY", "SY8": "SY", "A4": "A", "S4": "S"}
_NOISY_KINDS = {"NoisyAY": "AY", "NoisyA": "A"}
_KINDS = _HARD_KINDS + tuple(_SPLIT_KINDS) + tuple(_NOISY_KINDS) + ("Random",)
_RANDOM_K = 4  # groups of the Random scheme, each drawn uniformly per sample

# Schemes whose construction uses the class label. Model-based methods
# reject these; note SCnoSC is deliberately absent: although built from
# (a, y) cells, each of its groups contains both classes.
_Y_BASED_KINDS = frozenset({"Y", "AY", "SY", "YSA", "AY8", "SY8", "NoisyAY"})

_KIND_TO_NAME = {
    "Y": "Y", "A": "A", "S": "S", "AY": "AY", "SY": "SY", "YSA": "YSA",
    "SCnoSC": "SC_noSC", "AS": "AS", "AY8": "AY_8", "SY8": "SY_8",
    "A4": "A_4", "S4": "S_4", "Random": "Random",
}
_NAME_TO_KIND = {v: k for k, v in _KIND_TO_NAME.items()}


@dataclass(frozen=True)
class GroupingScheme:
    """A named scheme; noise applies to NoisyAY/NoisyA."""

    kind: str
    noise: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidScheme(f"unknown kind {self.kind!r}")
        if self.kind in _NOISY_KINDS and not 0.0 <= self.noise < 1.0:
            raise InvalidScheme(f"noise fraction {self.noise} outside [0, 1)")

    @property
    def name(self) -> str:
        """Serialized name used in result files, e.g. 'AY_8', 'Noisy_AY_0.05'."""
        if self.kind == "NoisyAY":
            return f"Noisy_AY_{self.noise:.2f}"
        if self.kind == "NoisyA":
            return f"Noisy_A_{self.noise:.2f}"
        return _KIND_TO_NAME[self.kind]

    @staticmethod
    def from_name(name: str) -> "GroupingScheme":
        if name in _NAME_TO_KIND:
            return GroupingScheme(_NAME_TO_KIND[name])
        for prefix, kind in (("Noisy_AY_", "NoisyAY"), ("Noisy_A_", "NoisyA")):
            if name.startswith(prefix):
                try:
                    return GroupingScheme(kind, noise=float(name[len(prefix):]))
                except ValueError:
                    raise InvalidScheme(f"bad noise fraction in {name!r}") from None
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


def _hard_assign(group_of_atom) -> np.ndarray:
    labels = [group_of_atom(j) for j in range(N_ATOMS)]
    k = max(labels) + 1
    a = np.zeros((N_ATOMS, k))
    a[np.arange(N_ATOMS), labels] = 1.0
    return a


def _bits(j):
    return (j >> 2) & 1, (j >> 1) & 1, j & 1  # y, s, a


def _hard_grouping(kind: str) -> SoftGrouping:
    if kind == "Y":
        assign = _hard_assign(lambda j: _bits(j)[0])
        names = ("y0", "y1")
    elif kind == "A":
        assign = _hard_assign(lambda j: _bits(j)[2])
        names = ("a0", "a1")
    elif kind == "S":
        assign = _hard_assign(lambda j: _bits(j)[1])
        names = ("s0", "s1")
    elif kind == "AY":
        assign = _hard_assign(lambda j: 2 * _bits(j)[0] + _bits(j)[2])
        names = ("a0_y0", "a1_y0", "a0_y1", "a1_y1")
    elif kind == "SY":
        assign = _hard_assign(lambda j: 2 * _bits(j)[0] + _bits(j)[1])
        names = ("s0_y0", "s1_y0", "s0_y1", "s1_y1")
    elif kind == "YSA":
        assign = np.eye(N_ATOMS)
        names = tuple(f"y{y}_s{s}_a{a}" for y in (0, 1) for s in (0, 1) for a in (0, 1))
    elif kind == "SCnoSC":
        assign = _hard_assign(lambda j: 0 if _bits(j)[0] == _bits(j)[2] else 1)
        names = ("aligned", "conflicting")
    elif kind == "AS":
        assign = _hard_assign(lambda j: 2 * _bits(j)[1] + _bits(j)[2])
        names = ("a0_s0", "a1_s0", "a0_s1", "a1_s1")
    else:
        raise InvalidScheme(kind)
    return SoftGrouping(assign, names, _KIND_TO_NAME[kind])


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


def _noisy_grouping(kind: str, b: float, p_train: Distribution) -> SoftGrouping:
    parent = _hard_grouping(_NOISY_KINDS[kind])
    # A corrupted annotation is redrawn from the clean groups' mass profile,
    # so every row mixes the clean one-hot with the group marginals.
    marginal = p_train.probs @ parent.assign
    assign = (1.0 - b) * parent.assign + b * np.tile(marginal, (N_ATOMS, 1))
    name = f"Noisy_{_KIND_TO_NAME[_NOISY_KINDS[kind]]}_{b:.2f}"
    return SoftGrouping(assign, parent.group_names, name)


def atom_grouping(scheme: GroupingScheme, p_train: Distribution | None = None) -> SoftGrouping:
    """Build the scheme's P(group | atom) matrix.

    Noisy schemes need p_train to shape the misannotation profile; all
    other schemes ignore it.
    """
    if scheme.kind in _HARD_KINDS:
        return _hard_grouping(scheme.kind)
    if scheme.kind in _SPLIT_KINDS:
        parent = _hard_grouping(_SPLIT_KINDS[scheme.kind])
        split = refine(parent)
        return SoftGrouping(split.assign, split.group_names, _KIND_TO_NAME[scheme.kind])
    if scheme.kind == "Random":
        assign = np.full((N_ATOMS, _RANDOM_K), 1.0 / _RANDOM_K)
        return SoftGrouping(assign, tuple(f"r{i}" for i in range(_RANDOM_K)), "Random")
    if scheme.kind in _NOISY_KINDS:
        if p_train is None:
            raise InvalidScheme(f"{scheme.kind} requires p_train for the noise profile")
        return _noisy_grouping(scheme.kind, scheme.noise, p_train)
    raise InvalidScheme(scheme.kind)


def annotate_samples(dataset, scheme: GroupingScheme, seed: int, p_train: Distribution | None = None):
    """Assign a group id to every sample, returning a new annotated dataset.

    Hard rows map deterministically; soft rows are sampled per sample from
    the atom's conditional, reproducibly under the given seed. Only the
    group annotation changes; y, s, a are untouched.
    """
    grouping = atom_grouping(scheme, p_train)
    atoms = dataset.atom_indices()
    if grouping.is_hard:
        groups = np.argmax(grouping.assign, axis=1)[atoms]
    else:
        rng = np.random.default_rng(seed)
        u = rng.random(len(atoms))
        cdf = np.cumsum(grouping.assign, axis=1)
        cdf[:, -1] = 1.0
        groups = np.empty(len(atoms), dtype=np.int64)
        for atom in range(grouping.assign.shape[0]):
            mask = atoms == atom
            groups[mask] = np.searchsorted(cdf[atom], u[mask], side="right")
    return dataset.with_groups(groups.astype(np.int64), scheme.name, grouping.k)


def is_y_free(scheme: GroupingScheme) -> bool:
    return scheme.kind not in _Y_BASED_KINDS


def reweighting_schemes() -> list:
    """The 15 schemes accepted by reweighting methods, in reference order."""
    base = [GroupingScheme(k) for k in ("A", "Y", "S", "AY", "SY", "YSA", "SCnoSC", "AY8", "SY8", "Random")]
    return base + [GroupingScheme("NoisyAY", noise=b) for b in NOISE_LEVELS]


def model_based_schemes() -> list:
    """The 12 label-free schemes accepted by model-based methods."""
    base = [GroupingScheme(k) for k in ("A", "S", "SCnoSC", "Random", "A4", "S4", "AS")]
    return base + [GroupingScheme("NoisyA", noise=b) for b in NOISE_LEVELS]
