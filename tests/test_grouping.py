import re

import numpy as np
import pytest

from subshift.dist_core import SoftGrouping, atom_index, biased_distribution, uniform_distribution
from subshift.errors import InvalidScheme
from subshift.grouping import (
    GroupingScheme,
    NOISE_LEVELS,
    annotate_samples,
    atom_grouping,
    is_y_free,
    model_based_schemes,
    refine,
    reweighting_schemes,
)
from subshift.reweight_opt import min_kl_table
from subshift.synth_data import FeatureConfig, sample_dataset

# group index sets, in group order, for every hard scheme
HARD_INDEX_SETS = {
    "Y": [{0, 1, 2, 3}, {4, 5, 6, 7}],
    "A": [{0, 2, 4, 6}, {1, 3, 5, 7}],
    "S": [{0, 1, 4, 5}, {2, 3, 6, 7}],
    "AY": [{0, 2}, {1, 3}, {4, 6}, {5, 7}],
    "SY": [{0, 1}, {2, 3}, {4, 5}, {6, 7}],
    "YSA": [{i} for i in range(8)],
    "SC_noSC": [{0, 2, 5, 7}, {1, 3, 4, 6}],
    "AS": [{0, 4}, {1, 5}, {2, 6}, {3, 7}],
}

# the 8 hard partitions written out as the group label of atoms 0-7, atom = 4y + 2s + a
HARD_LABELS = {
    "Y": [0, 0, 0, 0, 1, 1, 1, 1],
    "A": [0, 1, 0, 1, 0, 1, 0, 1],
    "S": [0, 0, 1, 1, 0, 0, 1, 1],
    "AY": [0, 1, 0, 1, 2, 3, 2, 3],
    "SY": [0, 0, 1, 1, 2, 2, 3, 3],
    "YSA": [0, 1, 2, 3, 4, 5, 6, 7],
    "SC_noSC": [0, 1, 0, 1, 1, 0, 1, 0],
    "AS": [0, 1, 2, 3, 0, 1, 2, 3],
}
SPLIT_PARENTS = {"AY_8": "AY", "SY_8": "SY", "A_4": "A", "S_4": "S"}
# the 13 schemes whose grouping does not depend on the data
FIXED_NAMES = (*HARD_LABELS, *SPLIT_PARENTS, "Random")

# the 23 distinct scheme names of the two standard lists
ALL_SCHEME_NAMES = tuple(dict.fromkeys(s.name for s in reweighting_schemes() + model_based_schemes()))


def compact_id(value):
    """Test ids spell scheme names without underscores (SCnoSC, AY8)."""
    return value.replace("_", "") if isinstance(value, str) else None


def hard_groups(g: SoftGrouping) -> list:
    labels = np.argmax(g.assign, axis=1)
    return [set(np.nonzero(labels == i)[0].tolist()) for i in range(g.k)]


class TestSchemeNames:
    def test_serialized_names(self):
        names = [s.name for s in reweighting_schemes()]
        assert names == [
            "A", "Y", "S", "AY", "SY", "YSA", "SC_noSC", "AY_8", "SY_8", "Random",
            "Noisy_AY_0.01", "Noisy_AY_0.05", "Noisy_AY_0.10", "Noisy_AY_0.25", "Noisy_AY_0.50",
        ]

    def test_model_based_names(self):
        names = [s.name for s in model_based_schemes()]
        assert names == [
            "A", "S", "SC_noSC", "Random", "A_4", "S_4", "AS",
            "Noisy_A_0.01", "Noisy_A_0.05", "Noisy_A_0.10", "Noisy_A_0.25", "Noisy_A_0.50",
        ]

    def test_round_trip(self):
        for scheme in reweighting_schemes() + model_based_schemes():
            assert GroupingScheme(scheme.name) == scheme

    def test_unknown_name_rejected(self):
        # compact spellings of SC_noSC, AY_8 and Noisy_AY_b are not names
        for name in ("BOGUS", "SCnoSC", "AY8", "NoisyAY"):
            with pytest.raises(InvalidScheme, match=re.escape(f"unknown scheme name {name!r}")):
                GroupingScheme(name)
        # a name that is not a string is no scheme either, not an AttributeError
        for name in (5, None, ("AY",)):
            with pytest.raises(InvalidScheme, match=re.escape(f"a scheme name is a string, got {name!r}")):
                GroupingScheme(name)

    @pytest.mark.parametrize(
        "name,canonical",
        [
            ("Noisy_AY_0.1", "Noisy_AY_0.10"),
            ("Noisy_A_0.100", "Noisy_A_0.10"),
            ("Noisy_AY_1e-1", "Noisy_AY_0.10"),
            # the same grouping and min KL as Noisy_AY_0.00, under another row key
            ("Noisy_AY_-0.00", "Noisy_AY_0.00"),
        ],
    )
    def test_noncanonical_name_rejected(self, name, canonical):
        # result rows and KL rows are keyed by the name, so one scheme has one spelling
        with pytest.raises(InvalidScheme, match=re.escape(f"scheme {name!r} must be written {canonical!r}")):
            GroupingScheme(name)

    def test_noise_range(self):
        with pytest.raises(InvalidScheme):
            GroupingScheme("Noisy_AY_1.00")
        with pytest.raises(InvalidScheme):
            GroupingScheme("Noisy_AY_-0.10")


class TestHardGroupings:
    @pytest.mark.parametrize("name,expected", sorted(HARD_INDEX_SETS.items()), ids=compact_id)
    def test_index_sets(self, name, expected):
        g = atom_grouping(GroupingScheme(name))
        assert hard_groups(g) == expected

    @pytest.mark.parametrize("name", sorted(HARD_INDEX_SETS), ids=compact_id)
    def test_rows_are_one_hot(self, name):
        g = atom_grouping(GroupingScheme(name))
        assert g.is_hard
        assert np.allclose(g.assign.sum(axis=1), 1.0)
        assert set(np.unique(g.assign)) <= {0.0, 1.0}


class TestSplitGroupings:
    def test_ay8_duplicates_parents(self):
        parent = atom_grouping(GroupingScheme("AY"))
        child = atom_grouping(GroupingScheme("AY_8"))
        assert child.k == 8
        # each parent column split into two half-mass columns
        assert np.allclose(child.assign[:, 0::2] + child.assign[:, 1::2], parent.assign)
        assert np.allclose(child.assign[child.assign > 0], 0.5)

    def test_refine_matches_ay8(self):
        refined = refine(atom_grouping(GroupingScheme("AY")))
        child = atom_grouping(GroupingScheme("AY_8"))
        assert np.array_equal(refined.assign, child.assign)

    def test_refine_single_group(self):
        g = SoftGrouping(np.ones((8, 1)))
        r = refine(g)
        assert r.k == 2
        assert np.allclose(r.assign, 0.5)

    @pytest.mark.parametrize("name,parent", [("SY_8", "SY"), ("A_4", "A"), ("S_4", "S")], ids=compact_id)
    def test_other_splits(self, name, parent):
        child = atom_grouping(GroupingScheme(name))
        par = atom_grouping(GroupingScheme(parent))
        assert child.k == 2 * par.k
        assert np.allclose(child.assign[:, 0::2] + child.assign[:, 1::2], par.assign)


class TestRandomGrouping:
    def test_uniform_rows(self):
        g = atom_grouping(GroupingScheme("Random"))
        assert g.k == 4
        assert np.allclose(g.assign, 0.25)


def written_out_assign(name):
    """The fixed scheme's P(group | atom) matrix, built here without atom_grouping."""
    if name == "Random":
        return np.full((8, 4), 0.25)
    if name in SPLIT_PARENTS:
        return refine(SoftGrouping(written_out_assign(SPLIT_PARENTS[name]))).assign
    labels = HARD_LABELS[name]
    return np.eye(max(labels) + 1)[labels]


class TestFixedGroupings:
    """The 13 data-independent groupings are built once, at import, and shared."""

    def test_the_fixed_names_are_the_non_noisy_standard_names(self):
        assert sorted(FIXED_NAMES) == sorted(n for n in ALL_SCHEME_NAMES if not n.startswith("Noisy_"))

    @pytest.mark.parametrize("name", FIXED_NAMES, ids=compact_id)
    def test_every_call_returns_the_same_object(self, name, p_train):
        shared = atom_grouping(GroupingScheme(name))
        for p in (None, p_train, uniform_distribution(), biased_distribution(0.6, 0.9)):
            assert atom_grouping(GroupingScheme(name), p) is shared

    @pytest.mark.parametrize("name", FIXED_NAMES, ids=compact_id)
    def test_matrix_equals_the_written_out_one(self, name):
        assert np.array_equal(atom_grouping(GroupingScheme(name)).assign, written_out_assign(name))

    @pytest.mark.parametrize("name", FIXED_NAMES, ids=compact_id)
    def test_shared_matrix_is_read_only(self, name):
        assign = atom_grouping(GroupingScheme(name)).assign
        with pytest.raises(ValueError, match="read-only"):
            assign[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            assign *= 2.0
        assert np.array_equal(atom_grouping(GroupingScheme(name)).assign, written_out_assign(name))

    def test_min_kl_table_builds_only_noisy_groupings(self, monkeypatch):
        """Across bias levels, only the 10 noisy names build a grouping, once per level."""
        built = []
        real_post_init = SoftGrouping.__post_init__

        def counting_post_init(self):
            built.append(self)
            real_post_init(self)

        monkeypatch.setattr(SoftGrouping, "__post_init__", counting_post_init)
        schemes = [GroupingScheme(n) for n in ALL_SCHEME_NAMES]
        for p_s0, p_s1 in ((0.95, 0.8), (0.85, 0.7), (0.6, 0.9)):
            min_kl_table(schemes, biased_distribution(p_s0, p_s1), uniform_distribution())
        assert len(built) == 3 * sum(n.startswith("Noisy_") for n in ALL_SCHEME_NAMES) == 30


class TestNoisyGroupings:
    def test_zero_noise_equals_clean(self, p_train):
        clean = atom_grouping(GroupingScheme("AY"))
        noisy = atom_grouping(GroupingScheme("Noisy_AY_0.00"), p_train)
        assert np.array_equal(noisy.assign, clean.assign)

    @pytest.mark.parametrize("b", NOISE_LEVELS)
    def test_exact_mixture_form(self, b, p_train):
        clean = atom_grouping(GroupingScheme("AY"))
        noisy = atom_grouping(GroupingScheme(f"Noisy_AY_{b:.2f}"), p_train)
        masses = clean.assign.T @ p_train.probs
        expected = (1 - b) * clean.assign + b * np.tile(masses, (8, 1))
        assert np.allclose(noisy.assign, expected, atol=1e-15)

    def test_group_masses_invariant(self, p_train):
        # mixing toward the clean marginals keeps every group's mass fixed
        clean = atom_grouping(GroupingScheme("AY"))
        masses = clean.assign.T @ p_train.probs
        for b in NOISE_LEVELS:
            noisy = atom_grouping(GroupingScheme(f"Noisy_AY_{b:.2f}"), p_train)
            assert np.allclose(noisy.assign.T @ p_train.probs, masses, atol=1e-15)

    def test_requires_source_distribution(self):
        with pytest.raises(InvalidScheme):
            atom_grouping(GroupingScheme("Noisy_AY_0.25"))

    def test_noisy_a_mixes_a_partition(self, p_train):
        clean = atom_grouping(GroupingScheme("A"))
        noisy = atom_grouping(GroupingScheme("Noisy_A_0.10"), p_train)
        masses = clean.assign.T @ p_train.probs
        expected = 0.9 * clean.assign + 0.1 * np.tile(masses, (8, 1))
        assert np.allclose(noisy.assign, expected, atol=1e-15)


@pytest.fixture(scope="module")
def big_dataset(p_train):
    return sample_dataset(p_train, 100_000, FeatureConfig(d_y=1, d_a=1, d_s=1), seed=5)


def per_atom_annotation(dataset, scheme, seed, p_train):
    """Reference annotation: argmax for hard rows, else a searchsorted per atom."""
    grouping = atom_grouping(scheme, p_train)
    atoms = atom_index(dataset.y, dataset.s, dataset.a)
    if grouping.is_hard:
        return np.argmax(grouping.assign, axis=1)[atoms].astype(np.int64)
    u = np.random.default_rng(seed).random(len(atoms))
    cdf = np.cumsum(grouping.assign, axis=1)
    cdf[:, -1] = 1.0
    groups = np.empty(len(atoms), dtype=np.int64)
    for atom in range(grouping.assign.shape[0]):
        mask = atoms == atom
        groups[mask] = np.searchsorted(cdf[atom], u[mask], side="right")
    return groups


def cdf_matrix_annotation(dataset, scheme, seed, p_train):
    """The [n, k] formula annotate_samples used before it counted one CDF
    column at a time: the number of CDF entries at or below u."""
    grouping = atom_grouping(scheme, p_train)
    atoms = atom_index(dataset.y, dataset.s, dataset.a)
    u = np.random.default_rng(seed).random(len(atoms))
    cdf = np.cumsum(grouping.assign, axis=1)
    cdf[:, -1] = 1.0
    return (cdf[atoms] <= u[:, None]).sum(axis=1, dtype=np.int64)


class TestAnnotateSamples:
    @pytest.mark.parametrize("name", sorted(HARD_INDEX_SETS), ids=compact_id)
    def test_hard_ay_matches_cells(self, big_dataset, name):
        ds = annotate_samples(big_dataset, GroupingScheme(name), seed=0)
        label = np.empty(8, dtype=np.int64)
        for g, atoms in enumerate(HARD_INDEX_SETS[name]):
            label[sorted(atoms)] = g
        assert np.array_equal(ds.group, label[atom_index(ds.y, ds.s, ds.a)])

    @pytest.mark.parametrize("name", ALL_SCHEME_NAMES)
    def test_matches_per_atom_reference(self, p_train, big_dataset, name):
        scheme = GroupingScheme(name)
        for seed in (0, 11):
            got = annotate_samples(big_dataset, scheme, seed, p_train).group
            expected = per_atom_annotation(big_dataset, scheme, seed, p_train)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)
            assert np.array_equal(got, cdf_matrix_annotation(big_dataset, scheme, seed, p_train))

    def test_deterministic_given_seed(self, p_train, big_dataset):
        a = annotate_samples(big_dataset, GroupingScheme("Random"), seed=42)
        b = annotate_samples(big_dataset, GroupingScheme("Random"), seed=42)
        c = annotate_samples(big_dataset, GroupingScheme("Random"), seed=43)
        assert np.array_equal(a.group, b.group)
        assert not np.array_equal(a.group, c.group)

    def test_random_frequencies(self, big_dataset):
        ds = annotate_samples(big_dataset, GroupingScheme("Random"), seed=7)
        freqs = np.bincount(ds.group, minlength=4) / len(ds.y)
        assert np.allclose(freqs, 0.25, atol=0.01)

    def test_noisy_keep_fraction(self, p_train, big_dataset):
        # The noisy row is a (1-b)/b mixture whose noise part can re-draw the
        # clean group, so the expected keep fraction is
        # (1-b) + b * sum_g mass_g^2, not 1-b itself.
        b = 0.25
        ds = annotate_samples(big_dataset, GroupingScheme(f"Noisy_AY_{b:.2f}"), seed=3, p_train=p_train)
        clean = 2 * ds.y + ds.a
        kept = float((ds.group == clean).mean())
        masses = np.array([0.4375, 0.0625, 0.0625, 0.4375])
        expected = (1 - b) + b * float(masses @ masses)
        assert expected == pytest.approx(0.847656, abs=1e-6)
        assert kept == pytest.approx(expected, abs=0.01)

    def test_labels_untouched(self, p_train, big_dataset):
        ds = annotate_samples(big_dataset, GroupingScheme("Noisy_AY_0.50"), seed=3, p_train=p_train)
        assert np.array_equal(ds.y, big_dataset.y)
        assert np.array_equal(ds.s, big_dataset.s)
        assert np.array_equal(ds.a, big_dataset.a)

    def test_split_scheme_halves_parent(self, p_train, big_dataset):
        ds = annotate_samples(big_dataset, GroupingScheme("AY_8"), seed=9)
        parent = 2 * ds.y + ds.a
        assert np.array_equal(ds.group // 2, parent)
        child_is_odd = (ds.group % 2).mean()
        assert child_is_odd == pytest.approx(0.5, abs=0.01)


class TestYFreedom:
    def test_kind_classification(self):
        y_based = {"Y", "AY", "SY", "YSA", "AY_8", "SY_8"}
        for scheme in reweighting_schemes():
            expected = scheme.name in y_based or scheme.name.startswith("Noisy_AY_")
            assert is_y_free(scheme) == (not expected)

    def test_model_based_schemes_are_y_free(self):
        for scheme in model_based_schemes():
            assert is_y_free(scheme)

    def test_model_based_groups_contain_both_classes(self, p_train):
        # no group may separate atoms differing only in y
        for scheme in model_based_schemes():
            g = atom_grouping(scheme, p_train)
            for col in range(g.k):
                support = np.nonzero(g.assign[:, col] > 0)[0]
                ys = {atom >> 2 for atom in support}
                assert ys == {0, 1}, f"{scheme.name} group {col} is single-class"


class TestSchemeLists:
    def test_all_constructible(self, p_train):
        for scheme in reweighting_schemes() + model_based_schemes():
            g = atom_grouping(scheme, p_train)
            assert np.allclose(g.assign.sum(axis=1), 1.0, atol=1e-12)
            assert (g.assign >= 0).all()
