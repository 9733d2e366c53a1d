import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshift.dist_core import (
    ATOM_LABELS,
    N_ATOMS,
    Distribution,
    SoftGrouping,
    atom_index,
    biased_distribution,
    kl_divergence,
    reweighted_distribution,
    uniform_distribution,
)
from subshift.errors import EmptyGroup, InvalidScheme, NonNormalizable, OutOfRange, SupportMismatch
from subshift.grouping import GroupingScheme, atom_grouping

from refused_inputs import REFUSED_ATOM_SPACE_VALUES

P_TRAIN_PROBS = [0.95 / 4, 0.05 / 4, 0.8 / 4, 0.2 / 4, 0.05 / 4, 0.95 / 4, 0.2 / 4, 0.8 / 4]


def random_distribution(rng, allow_zeros=False):
    raw = rng.random(N_ATOMS)
    if allow_zeros:
        raw[rng.integers(0, N_ATOMS)] = 0.0
    return Distribution(raw / raw.sum())


@st.composite
def accepted_pairs(draw):
    """Two length-8 vectors with zeros, normalized, then scaled to a mass within Distribution's
    1e-9 slack; q's zero counts are lifted to 1 where p's count is positive, so q's support covers p's."""
    counts = st.lists(st.integers(0, 1000), min_size=N_ATOMS, max_size=N_ATOMS).filter(any)
    mass = st.sampled_from([1.0, 1.0 + 5e-10, 1.0 - 5e-10])
    p_counts, q_counts = draw(counts), draw(counts)
    q_counts = [max(qc, 1) if pc else qc for pc, qc in zip(p_counts, q_counts)]
    return tuple(np.array(c) / sum(c) * draw(mass) for c in (p_counts, q_counts))


class TestAtom:
    def test_index_layout(self):
        # canonical order: index = 4y + 2s + a
        assert [atom_index(y, s, a) for y in (0, 1) for s in (0, 1) for a in (0, 1)] == list(range(8))

    def test_vectorized(self):
        y = np.array([0, 1, 1])
        s = np.array([1, 0, 1])
        a = np.array([0, 1, 1])
        assert atom_index(y, s, a).tolist() == [2, 5, 7]

    def test_label_table_inverts_the_index(self):
        assert ATOM_LABELS.shape == (N_ATOMS, 3) and ATOM_LABELS.dtype == np.int8
        assert [atom_index(y, s, a) for y, s, a in ATOM_LABELS.tolist()] == list(range(N_ATOMS))
        assert atom_index(*ATOM_LABELS.T).tolist() == list(range(N_ATOMS))

    def test_label_table_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            ATOM_LABELS[0, 0] = 1
        assert ATOM_LABELS[0].tolist() == [0, 0, 0]


class TestDistribution:
    def test_uniform(self):
        d = Distribution([1 / 8] * 8)
        assert np.array_equal(d.probs, uniform_distribution().probs)

    def test_training_vector(self):
        d = Distribution(P_TRAIN_PROBS)
        assert np.allclose(d.probs, [0.2375, 0.0125, 0.2, 0.05, 0.0125, 0.2375, 0.05, 0.2])

    def test_zero_mass_atoms_allowed(self):
        d = Distribution([0.5, 0.5, 0, 0, 0, 0, 0, 0])
        assert d.probs[2:].sum() == 0.0

    def test_renormalizes_tiny_slack(self):
        d = Distribution(np.array([1 / 8] * 8) * (1 + 5e-10))
        assert abs(d.probs.sum() - 1.0) < 1e-15

    def test_tiny_negative_clamped(self):
        d = Distribution([1 / 8 + 1e-13] * 7 + [1 / 8 - 7e-13])
        assert (d.probs >= 0).all()

    def test_rejects_bad_sum(self):
        with pytest.raises(NonNormalizable):
            Distribution([0.2] * 8)

    def test_bad_sum_message_prints_a_plain_float(self):
        with pytest.raises(NonNormalizable, match=r"^mass 1\.2 deviates from 1 by more than 1e-09$"):
            Distribution([1.2, 0, 0, 0, 0, 0, 0, 0])

    def test_rejects_negative(self):
        with pytest.raises(NonNormalizable):
            Distribution([-0.1, 1.1, 0, 0, 0, 0, 0, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(NonNormalizable):
            Distribution([0.5, 0.5])

    @pytest.mark.parametrize("probs", [[0.5, 0.5], np.full((2, 4), 0.125), 1.0])
    def test_rejects_wrong_shape(self, probs):
        with pytest.raises(NonNormalizable, match=r"expected a vector of 8 atoms"):
            Distribution(np.array(probs))

    @pytest.mark.parametrize(
        "probs,message",
        [
            ([np.nan] * 8, r"^non-finite entries$"),
            ([-1e-3, 1.001] + [0.0] * 6, r"^negative entry -1\.000e-03 below tolerance$"),
        ],
        ids=["nan", "negative"],
    )
    def test_refusal_wording(self, probs, message):
        with pytest.raises(NonNormalizable, match=message):
            Distribution(probs)

    def test_immutable(self):
        d = uniform_distribution()
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_leaves_the_callers_array_writable(self):
        p = np.full(8, 0.125)
        d = Distribution(p)
        p[0] = 0.5
        assert np.array_equal(d.probs, np.full(8, 0.125))


@pytest.mark.parametrize("cls,value", REFUSED_ATOM_SPACE_VALUES.values(), ids=REFUSED_ATOM_SPACE_VALUES.keys())
def test_atom_space_value_refused_at_construction(cls, value):
    with pytest.raises((NonNormalizable, InvalidScheme)):
        cls(value)


class TestBiasedDistribution:
    def test_default_training_levels(self, p_train):
        assert np.allclose(p_train.probs, [0.2375, 0.0125, 0.2, 0.05, 0.0125, 0.2375, 0.05, 0.2])

    def test_no_correlation_gives_uniform(self):
        d = biased_distribution(0.5, 0.5)
        assert np.allclose(d.probs, 1 / 8)

    def test_marginals(self, p_train):
        p = p_train.probs
        y1 = sum(p[atom_index(1, s, a)] for s in (0, 1) for a in (0, 1))
        a1 = sum(p[atom_index(y, s, 1)] for y in (0, 1) for s in (0, 1))
        s1 = sum(p[atom_index(y, 1, a)] for y in (0, 1) for a in (0, 1))
        assert y1 == pytest.approx(0.5)
        assert a1 == pytest.approx(0.5)
        assert s1 == pytest.approx(0.5)

    def test_weaker_bias_aligned_mass(self):
        d = biased_distribution(0.85, 0.70)
        aligned = sum(d.probs[atom_index(y, s, y)] for y in (0, 1) for s in (0, 1))
        assert aligned == pytest.approx(0.775)

    @pytest.mark.parametrize("bad", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.2), (0.5, 1.5)])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(OutOfRange):
            biased_distribution(*bad)

    @staticmethod
    def loop_reference(p_s0, p_s1):
        """The atom-by-atom nested loop that biased_distribution reads from ATOM_LABELS instead."""
        p = np.empty(N_ATOMS)
        for y in (0, 1):
            for s in (0, 1):
                for a in (0, 1):
                    aligned = p_s0 if s == 0 else p_s1
                    frac = aligned if y == a else 1.0 - aligned
                    p[4 * y + 2 * s + a] = frac / 4.0
        return Distribution(p)

    def test_bitwise_equal_to_the_nested_loop(self):
        """At the default and weak-shift bias, the 169 levels of the benchmark's kl_bias_grid at
        seed 1 (the default plus 168 drawn from U(0.55, 0.99)), and 10,000 random levels."""
        grid = np.random.default_rng(1).uniform(0.55, 0.99, size=(168, 2))
        spread = np.random.default_rng(2).uniform(0.001, 0.999, size=(10_000, 2))
        levels = [(0.95, 0.8), (0.85, 0.70)] + [tuple(map(float, p)) for p in np.vstack([grid, spread])]
        differ = [
            (p_s0, p_s1)
            for p_s0, p_s1 in levels
            if biased_distribution(p_s0, p_s1).probs.tobytes() != self.loop_reference(p_s0, p_s1).probs.tobytes()
        ]
        assert len(levels) == 10_170 and differ == []


class TestKlDivergence:
    def test_training_vs_uniform_reverse(self, p_train, p_uniform):
        assert kl_divergence(p_uniform, p_train) == pytest.approx(0.527, abs=5e-4)

    def test_self_is_zero(self, p_train):
        assert kl_divergence(p_train, p_train) == 0.0

    def test_two_atom_hand_value(self):
        p = Distribution([0.75, 0.25, 0, 0, 0, 0, 0, 0])
        q = Distribution([0.5, 0.5, 0, 0, 0, 0, 0, 0])
        expected = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1308, abs=5e-5)

    def test_zero_times_log_zero(self):
        p = Distribution([0.5, 0.5, 0, 0, 0, 0, 0, 0])
        q = uniform_distribution()
        assert np.isfinite(kl_divergence(p, q))

    def test_support_violation(self, p_uniform):
        q = Distribution([0.5, 0.5, 0, 0, 0, 0, 0, 0])
        with pytest.raises(SupportMismatch):
            kl_divergence(p_uniform, q)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_identity(self, seed):
        rng = np.random.default_rng(seed)
        p = random_distribution(rng)
        q = random_distribution(rng)
        kl = kl_divergence(p, q)
        assert kl >= 0.0
        if np.array_equal(p.probs, q.probs):
            assert kl == 0.0
        else:
            assert kl > 0.0 or 0.5 * np.abs(p.probs - q.probs).sum() < 1e-9

    @given(accepted_pairs())
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_for_any_accepted_pair(self, pair):
        # Gibbs' inequality holds for every pair the constructor lets through,
        # and a sum that rounds below zero reads 0.0
        p, q = (Distribution(raw) for raw in pair)
        assert kl_divergence(p, q) >= 0.0


class TestSoftGrouping:
    @pytest.mark.parametrize("assign", [np.eye(3), np.ones(8), np.ones((8, 0)), np.ones((8, 2))])
    def test_rejects_wrong_shape_or_rows(self, assign):
        with pytest.raises(InvalidScheme):
            SoftGrouping(assign)

    def test_leaves_the_callers_array_writable(self):
        assign = np.full((8, 2), 0.5)
        g = SoftGrouping(assign)
        assign[0] = [1.0, 0.0]
        assert np.array_equal(g.assign, np.full((8, 2), 0.5))


class TestReweightedDistribution:
    def test_y_partition_uniform_weights_is_identity(self, p_train):
        g = atom_grouping(GroupingScheme("Y"))
        pw = reweighted_distribution(p_train, g, np.array([0.5, 0.5]))
        assert np.allclose(pw.probs, p_train.probs, atol=1e-15)

    def test_ay_quarter_weights_fixture(self, p_train):
        g = atom_grouping(GroupingScheme("AY"))
        pw = reweighted_distribution(p_train, g, np.array([0.25] * 4))
        expected = [0.136, 0.050, 0.114, 0.200, 0.050, 0.136, 0.200, 0.114]
        assert np.allclose(pw.probs, expected, atol=5e-4)

    def test_single_group_identity(self, p_train):
        g = SoftGrouping(np.ones((8, 1)))
        pw = reweighted_distribution(p_train, g, np.array([1.0]))
        assert np.allclose(pw.probs, p_train.probs, atol=1e-15)

    def test_mass_conservation_random(self, rng):
        for _ in range(25):
            p = random_distribution(rng)
            k = int(rng.integers(1, 6))
            assign = rng.random((8, k))
            assign /= assign.sum(axis=1, keepdims=True)
            w = rng.random(k)
            w /= w.sum()
            pw = reweighted_distribution(p, SoftGrouping(assign), w)
            assert abs(pw.probs.sum() - 1.0) < 1e-12

    def test_within_group_ratio_preserved(self, p_train, rng):
        g = atom_grouping(GroupingScheme("AY"))
        labels = np.argmax(g.assign, axis=1)
        w = rng.random(4)
        w /= w.sum()
        pw = reweighted_distribution(p_train, g, w)
        for j in range(8):
            for l in range(8):
                if labels[j] == labels[l] and p_train.probs[l] > 0 and pw.probs[l] > 0:
                    assert pw.probs[j] / pw.probs[l] == pytest.approx(
                        p_train.probs[j] / p_train.probs[l], rel=1e-10
                    )

    def test_hard_soft_consistency(self, p_train, rng):
        g = atom_grouping(GroupingScheme("SY"))
        w = rng.random(4)
        w /= w.sum()
        # a hard partition scales each group's conditional distribution by its weight
        labels = np.argmax(g.assign, axis=1)
        mass = np.bincount(labels, weights=p_train.probs)
        direct = w[labels] * p_train.probs / mass[labels]
        generic = reweighted_distribution(p_train, g, w).probs
        assert np.allclose(direct, generic, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "assign",
        [np.ones((8, 2)), np.tile([1.5, -0.5], (8, 1)), np.repeat(np.eye(2), 4, axis=0)],
        ids=["rows_sum_to_2", "negative_column", "valid_matrix"],
    )
    def test_rejects_a_bare_matrix(self, p_train, assign):
        with pytest.raises(InvalidScheme, match=r"^expected a SoftGrouping, got ndarray$"):
            reweighted_distribution(p_train, assign, np.array([0.5, 0.5]))

    def test_rejects_off_simplex_weights(self, p_train):
        g = atom_grouping(GroupingScheme("Y"))
        for w in ([0.5, 0.6], [-0.1, 1.1], [np.nan, 1.0]):
            with pytest.raises(OutOfRange, match="weights must lie on the simplex"):
                reweighted_distribution(p_train, g, np.array(w))

    def test_negative_weight_summing_to_one_is_rejected(self, p_train):
        # Random's groups all span every atom, so this P^w is a valid
        # distribution (p_train itself); only the weight check stops it.
        g = atom_grouping(GroupingScheme("Random"))
        w = np.array([1.2, -0.2, 0.0, 0.0])
        message = r"^weights must lie on the simplex, got \[1\.2, -0\.2, 0\.0, 0\.0\] with sum 1\.0$"
        with pytest.raises(OutOfRange, match=message):
            reweighted_distribution(p_train, g, w)

    def test_rejects_weights_that_are_not_a_vector(self, p_train):
        g = atom_grouping(GroupingScheme("Y"))
        with pytest.raises(SupportMismatch):
            reweighted_distribution(p_train, g, np.array([[0.5], [0.5]]))

    def test_empty_group_weight_rejected(self):
        p = Distribution([0.5, 0.5, 0, 0, 0, 0, 0, 0])
        g = atom_grouping(GroupingScheme("Y"))
        with pytest.raises(EmptyGroup):
            reweighted_distribution(p, g, np.array([0.5, 0.5]))
