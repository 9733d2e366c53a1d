"""Desk-scale synthetic tabular data with a tunable shortcut.

Each sample draws an atom (y, s, a) from a source distribution, then three
Gaussian feature blocks encode the three variables: block b is spherical
noise centered at mu_b * (2v - 1) * ones(d_b) for the block's binary value
v. With mu_a > mu_y the shortcut block is the larger-margin signal, which
is what lets an unmitigated learner inherit the training correlation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dist_core import Distribution, N_ATOMS, atom_index, biased_distribution, uniform_distribution
from .errors import OutOfRange

__all__ = ["FeatureConfig", "Dataset", "sample_dataset", "make_splits", "write_dataset_csv", "read_dataset_csv"]


@dataclass(frozen=True)
class FeatureConfig:
    d_y: int = 5
    d_a: int = 5
    d_s: int = 5
    # Calibrated so an unmitigated learner prefers the shortcut block yet a
    # group-balanced one can still recover the label signal; see README.
    mu_y: float = 0.6
    mu_a: float = 2.0
    mu_s: float = 1.0
    noise_sd: float = 1.0

    def __post_init__(self):
        if min(self.d_y, self.d_a, self.d_s) < 1:
            raise OutOfRange("every feature block needs at least one dimension")
        if self.noise_sd <= 0.0:
            raise OutOfRange(f"noise_sd must be positive, got {self.noise_sd}")

    @property
    def dim(self) -> int:
        return self.d_y + self.d_a + self.d_s


@dataclass(frozen=True)
class Dataset:
    """Column-oriented sample store; group annotation is optional."""

    features: np.ndarray
    y: np.ndarray
    s: np.ndarray
    a: np.ndarray
    source_probs: np.ndarray
    seed: int
    config: FeatureConfig
    group: np.ndarray | None = None
    group_scheme: str | None = None
    group_count: int | None = None

    def __len__(self) -> int:
        return len(self.y)

    def atom_indices(self) -> np.ndarray:
        return atom_index(self.y, self.s, self.a)

    def with_groups(self, groups: np.ndarray, scheme_name: str, k: int) -> "Dataset":
        return replace(self, group=groups, group_scheme=scheme_name, group_count=k)

    def empirical_distribution(self) -> Distribution:
        counts = np.bincount(self.atom_indices(), minlength=N_ATOMS).astype(float)
        return Distribution(counts / counts.sum())


def sample_dataset(dist: Distribution, n: int, cfg: FeatureConfig, seed: int) -> Dataset:
    """Draw n i.i.d. samples; bitwise deterministic for fixed arguments."""
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    atoms = rng.choice(N_ATOMS, size=n, p=dist.probs)
    y = ((atoms >> 2) & 1).astype(np.int8)
    s = ((atoms >> 1) & 1).astype(np.int8)
    a = (atoms & 1).astype(np.int8)

    # noise * noise_sd + centers, built in the one array the draw returns
    features = rng.standard_normal((n, cfg.dim))
    features *= cfg.noise_sd
    signs = lambda v: (2.0 * v - 1.0)[:, None]
    features[:, : cfg.d_y] += cfg.mu_y * signs(y)
    features[:, cfg.d_y : cfg.d_y + cfg.d_a] += cfg.mu_a * signs(a)
    features[:, cfg.d_y + cfg.d_a :] += cfg.mu_s * signs(s)

    return Dataset(
        features=features,
        y=y,
        s=s,
        a=a,
        source_probs=dist.probs,
        seed=seed,
        config=cfg,
    )


def make_splits(
    cfg: FeatureConfig,
    n_train: int,
    n_val: int,
    n_test: int,
    p_s0: float,
    p_s1: float,
    seed: int,
):
    """Biased train/val plus a distribution-shifted uniform test split."""
    biased = biased_distribution(p_s0, p_s1)
    s_train, s_val, s_test = (int(x) for x in np.random.SeedSequence(seed).generate_state(3))
    train = sample_dataset(biased, n_train, cfg, s_train)
    val = sample_dataset(biased, n_val, cfg, s_val)
    test = sample_dataset(uniform_distribution(), n_test, cfg, s_test)
    return train, val, test


def write_dataset_csv(ds: Dataset, path) -> None:
    """CSV with feat_* columns then y, s, a, group; JSON sidecar with provenance."""
    path = Path(path)
    d = ds.features.shape[1]
    header = ",".join([f"feat_{i}" for i in range(d)] + ["y", "s", "a", "group"])
    lines = [header]
    has_groups = ds.group is not None
    for i in range(len(ds)):
        feats = ",".join(f"{v:.9g}" for v in ds.features[i])
        g = str(int(ds.group[i])) if has_groups else ""
        lines.append(f"{feats},{ds.y[i]},{ds.s[i]},{ds.a[i]},{g}")
    path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "feature_config": asdict(ds.config),
        "distribution": [float(p) for p in ds.source_probs],
        "seed": int(ds.seed),
        "n": len(ds),
        "group_scheme": ds.group_scheme,
        "group_count": ds.group_count,
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def read_dataset_csv(path) -> Dataset:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    cfg = FeatureConfig(**sidecar["feature_config"])
    raw = np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding="utf-8")
    d = cfg.dim
    features = np.column_stack([raw[f"feat_{i}"] for i in range(d)]).astype(float)
    groups = None
    g = raw["group"]
    if g.dtype.kind in "if" and not np.all(np.isnan(np.asarray(g, dtype=float))):
        groups = np.asarray(g, dtype=np.int64)
    ds = Dataset(
        features=features,
        y=np.asarray(raw["y"], dtype=np.int8),
        s=np.asarray(raw["s"], dtype=np.int8),
        a=np.asarray(raw["a"], dtype=np.int8),
        source_probs=np.asarray(sidecar["distribution"], dtype=float),
        seed=int(sidecar["seed"]),
        config=cfg,
    )
    if groups is not None:
        ds = ds.with_groups(groups, sidecar.get("group_scheme"), sidecar.get("group_count"))
    return ds
