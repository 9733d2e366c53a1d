import re

import numpy as np
import pytest

from subshift.dist_core import biased_distribution, uniform_distribution
from subshift.errors import InvalidScheme, YBasedGrouping
from subshift.grouping import (
    GroupingScheme,
    NOISE_LEVELS,
    SoftGrouping,
    annotate_samples,
    atom_grouping,
    is_y_free,
    model_based_schemes,
    refine,
    reweighting_schemes,
)
from subshift.synth_data import FeatureConfig, sample_dataset

# group index sets, in group order, for every hard scheme
HARD_INDEX_SETS = {
    "Y": [{0, 1, 2, 3}, {4, 5, 6, 7}],
    "A": [{0, 2, 4, 6}, {1, 3, 5, 7}],
    "S": [{0, 1, 4, 5}, {2, 3, 6, 7}],
    "AY": [{0, 2}, {1, 3}, {4, 6}, {5, 7}],
    "SY": [{0, 1}, {2, 3}, {4, 5}, {6, 7}],
    "YSA": [{i} for i in range(8)],
    "SCnoSC": [{0, 2, 5, 7}, {1, 3, 4, 6}],
    "AS": [{0, 4}, {1, 5}, {2, 6}, {3, 7}],
}

# the 23 distinct scheme names of the two standard lists
ALL_SCHEME_NAMES = tuple(dict.fromkeys(s.name for s in reweighting_schemes() + model_based_schemes()))


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
            assert GroupingScheme.from_name(scheme.name) == scheme

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidScheme):
            GroupingScheme.from_name("BOGUS")

    @pytest.mark.parametrize(
        "name,canonical",
        [("Noisy_AY_0.1", "Noisy_AY_0.10"), ("Noisy_A_0.100", "Noisy_A_0.10"), ("Noisy_AY_1e-1", "Noisy_AY_0.10")],
    )
    def test_noncanonical_name_rejected(self, name, canonical):
        # result rows and KL rows are keyed by the name, so one scheme has one spelling
        with pytest.raises(InvalidScheme, match=re.escape(f"scheme {name!r} must be written {canonical!r}")):
            GroupingScheme.from_name(name)

    def test_noise_range(self):
        with pytest.raises(InvalidScheme):
            GroupingScheme("NoisyAY", noise=1.0)
        with pytest.raises(InvalidScheme):
            GroupingScheme("NoisyAY", noise=-0.1)


class TestHardGroupings:
    @pytest.mark.parametrize("kind,expected", sorted(HARD_INDEX_SETS.items()))
    def test_index_sets(self, kind, expected):
        g = atom_grouping(GroupingScheme(kind))
        assert hard_groups(g) == expected

    @pytest.mark.parametrize("kind", sorted(HARD_INDEX_SETS))
    def test_rows_are_one_hot(self, kind):
        g = atom_grouping(GroupingScheme(kind))
        assert g.is_hard
        assert np.allclose(g.assign.sum(axis=1), 1.0)
        assert set(np.unique(g.assign)) <= {0.0, 1.0}


class TestSplitGroupings:
    def test_ay8_duplicates_parents(self):
        parent = atom_grouping(GroupingScheme("AY"))
        child = atom_grouping(GroupingScheme("AY8"))
        assert child.k == 8
        # each parent column split into two half-mass columns
        assert np.allclose(child.assign[:, 0::2] + child.assign[:, 1::2], parent.assign)
        assert np.allclose(child.assign[child.assign > 0], 0.5)

    def test_refine_matches_ay8(self):
        refined = refine(atom_grouping(GroupingScheme("AY")))
        child = atom_grouping(GroupingScheme("AY8"))
        assert np.array_equal(refined.assign, child.assign)

    def test_refine_single_group(self):
        g = SoftGrouping(np.ones((8, 1)), ("all",), "single")
        r = refine(g)
        assert r.k == 2
        assert np.allclose(r.assign, 0.5)

    @pytest.mark.parametrize("kind,parent", [("SY8", "SY"), ("A4", "A"), ("S4", "S")])
    def test_other_splits(self, kind, parent):
        child = atom_grouping(GroupingScheme(kind))
        par = atom_grouping(GroupingScheme(parent))
        assert child.k == 2 * par.k
        assert np.allclose(child.assign[:, 0::2] + child.assign[:, 1::2], par.assign)


class TestRandomGrouping:
    def test_uniform_rows(self):
        g = atom_grouping(GroupingScheme("Random"))
        assert g.k == 4
        assert np.allclose(g.assign, 0.25)


class TestNoisyGroupings:
    def test_zero_noise_equals_clean(self, p_train):
        clean = atom_grouping(GroupingScheme("AY"))
        noisy = atom_grouping(GroupingScheme("NoisyAY", noise=0.0), p_train)
        assert np.array_equal(noisy.assign, clean.assign)

    @pytest.mark.parametrize("b", NOISE_LEVELS)
    def test_exact_mixture_form(self, b, p_train):
        clean = atom_grouping(GroupingScheme("AY"))
        noisy = atom_grouping(GroupingScheme("NoisyAY", noise=b), p_train)
        masses = clean.assign.T @ p_train.probs
        expected = (1 - b) * clean.assign + b * np.tile(masses, (8, 1))
        assert np.allclose(noisy.assign, expected, atol=1e-15)

    def test_group_masses_invariant(self, p_train):
        # mixing toward the clean marginals keeps every group's mass fixed
        clean = atom_grouping(GroupingScheme("AY"))
        masses = clean.assign.T @ p_train.probs
        for b in NOISE_LEVELS:
            noisy = atom_grouping(GroupingScheme("NoisyAY", noise=b), p_train)
            assert np.allclose(noisy.assign.T @ p_train.probs, masses, atol=1e-15)

    def test_requires_source_distribution(self):
        with pytest.raises(InvalidScheme):
            atom_grouping(GroupingScheme("NoisyAY", noise=0.25))

    def test_noisy_a_mixes_a_partition(self, p_train):
        clean = atom_grouping(GroupingScheme("A"))
        noisy = atom_grouping(GroupingScheme("NoisyA", noise=0.1), p_train)
        masses = clean.assign.T @ p_train.probs
        expected = 0.9 * clean.assign + 0.1 * np.tile(masses, (8, 1))
        assert np.allclose(noisy.assign, expected, atol=1e-15)


@pytest.fixture(scope="module")
def big_dataset(p_train):
    return sample_dataset(p_train, 100_000, FeatureConfig(d_y=1, d_a=1, d_s=1), seed=5)


def per_atom_annotation(dataset, scheme, seed, p_train):
    """Reference annotation: argmax for hard rows, else a searchsorted per atom."""
    grouping = atom_grouping(scheme, p_train)
    atoms = dataset.atom_indices()
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


class TestAnnotateSamples:
    @pytest.mark.parametrize("kind", sorted(HARD_INDEX_SETS))
    def test_hard_ay_matches_cells(self, big_dataset, kind):
        ds = annotate_samples(big_dataset, GroupingScheme(kind), seed=0)
        label = np.empty(8, dtype=np.int64)
        for g, atoms in enumerate(HARD_INDEX_SETS[kind]):
            label[sorted(atoms)] = g
        assert np.array_equal(ds.group, label[ds.atom_indices()])

    @pytest.mark.parametrize("name", ALL_SCHEME_NAMES)
    def test_matches_per_atom_reference(self, p_train, big_dataset, name):
        scheme = GroupingScheme.from_name(name)
        for seed in (0, 11):
            got = annotate_samples(big_dataset, scheme, seed, p_train).group
            expected = per_atom_annotation(big_dataset, scheme, seed, p_train)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)

    def test_deterministic_given_seed(self, p_train, big_dataset):
        a = annotate_samples(big_dataset, GroupingScheme("Random"), seed=42)
        b = annotate_samples(big_dataset, GroupingScheme("Random"), seed=42)
        c = annotate_samples(big_dataset, GroupingScheme("Random"), seed=43)
        assert np.array_equal(a.group, b.group)
        assert not np.array_equal(a.group, c.group)

    def test_random_frequencies(self, big_dataset):
        ds = annotate_samples(big_dataset, GroupingScheme("Random"), seed=7)
        freqs = np.bincount(ds.group, minlength=4) / len(ds)
        assert np.allclose(freqs, 0.25, atol=0.01)

    def test_noisy_keep_fraction(self, p_train, big_dataset):
        # The noisy row is a (1-b)/b mixture whose noise part can re-draw the
        # clean group, so the expected keep fraction is
        # (1-b) + b * sum_g mass_g^2, not 1-b itself.
        b = 0.25
        ds = annotate_samples(big_dataset, GroupingScheme("NoisyAY", noise=b), seed=3, p_train=p_train)
        clean = 2 * ds.y + ds.a
        kept = float((ds.group == clean).mean())
        masses = np.array([0.4375, 0.0625, 0.0625, 0.4375])
        expected = (1 - b) + b * float(masses @ masses)
        assert expected == pytest.approx(0.847656, abs=1e-6)
        assert kept == pytest.approx(expected, abs=0.01)

    def test_labels_untouched(self, p_train, big_dataset):
        ds = annotate_samples(big_dataset, GroupingScheme("NoisyAY", noise=0.5), seed=3, p_train=p_train)
        assert np.array_equal(ds.y, big_dataset.y)
        assert np.array_equal(ds.s, big_dataset.s)
        assert np.array_equal(ds.a, big_dataset.a)

    def test_split_scheme_halves_parent(self, p_train, big_dataset):
        ds = annotate_samples(big_dataset, GroupingScheme("AY8"), seed=9)
        parent = 2 * ds.y + ds.a
        assert np.array_equal(ds.group // 2, parent)
        child_is_odd = (ds.group % 2).mean()
        assert child_is_odd == pytest.approx(0.5, abs=0.01)


class TestYFreedom:
    def test_kind_classification(self):
        y_based = {"Y", "AY", "SY", "YSA", "AY8", "SY8"}
        for scheme in reweighting_schemes():
            expected = scheme.kind in y_based or scheme.kind == "NoisyAY"
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
    def test_counts(self):
        assert len(reweighting_schemes()) == 15
        assert len(model_based_schemes()) == 12

    def test_all_constructible(self, p_train):
        for scheme in reweighting_schemes() + model_based_schemes():
            g = atom_grouping(scheme, p_train)
            assert np.allclose(g.assign.sum(axis=1), 1.0, atol=1e-12)
            assert (g.assign >= 0).all()
