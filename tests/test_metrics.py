import warnings

import numpy as np
import pytest

from subshift.dist_core import uniform_distribution
from subshift.errors import DegenerateInput, MissingCell, SingleClass
from subshift.metrics import _betainc, auc, correct, evaluate, group_accuracies, pearson
from subshift.mitigation import TrainConfig, train_erm
from subshift.synth_data import Dataset, FeatureConfig, make_splits, make_test_split, sample_dataset


def pairwise_auc(scores, labels):
    """Brute force over all positive-negative pairs; ties count half."""
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (len(pos) * len(neg))


def with_correlation(rng, n, r):
    """Centred x and y whose sample correlation is r up to rounding."""
    x, z = rng.normal(size=(2, n))
    x -= x.mean()
    x /= np.linalg.norm(x)
    z -= z.mean()
    z -= (z @ x) * x
    z /= np.linalg.norm(z)
    return x, r * x + np.sqrt(1.0 - r * r) * z


class FixedScores:
    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def predict_scores(self, x):
        return self.scores[: len(x)]


def tiny_dataset(y, s, a, d=2):
    n = len(y)
    return Dataset(
        features=np.zeros((n, 3 * d)),
        y=np.asarray(y, dtype=np.int8),
        s=np.asarray(s, dtype=np.int8),
        a=np.asarray(a, dtype=np.int8),
    )


class TestAuc:
    def test_four_sample_fixture(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_inverted_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_ties(self):
        assert auc([0.3] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_matches_pairwise_oracle_with_ties(self, rng):
        """Bitwise, on tied and on continuous scores: both count the same integers and halves, then divide once."""
        for i in range(40):
            n = int(rng.integers(4, 30))
            scores = rng.integers(0, 5, size=n) / 4.0 if i % 2 else rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            assert auc(scores, labels) == pairwise_auc(scores, labels)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_negation_complements(self, rng):
        scores = rng.normal(size=31)  # continuous, ties have measure zero
        labels = rng.integers(0, 2, size=31)
        labels[:2] = [0, 1]
        assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_single_class(self):
        with pytest.raises(SingleClass):
            auc([0.1, 0.9], [1, 1])

    def test_equals_scipy_mann_whitney_u_on_heavy_ties(self, rng):
        """Bitwise: AUC is the Mann-Whitney U of the positives over n_pos * n_neg."""
        stats = pytest.importorskip("scipy.stats")
        for _ in range(200):
            n = int(rng.integers(2, 601))
            values = rng.integers(0, 4, size=n) / 3.0
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            pos, neg = values[labels == 1], values[labels == 0]
            assert auc(values, labels) == stats.mannwhitneyu(pos, neg).statistic / (len(pos) * len(neg))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(DegenerateInput, match="AUC needs finite scores"):
            auc([0.1, bad, 0.9], [0, 1, 1])


def mask_accuracy(scores, labels):
    """Reference: the mean of a boolean mask of rows whose thresholded score equals the label."""
    return float(((np.asarray(scores) >= 0.5).astype(int) == np.asarray(labels)).mean())


class TestAccuracy:
    def test_threshold_is_inclusive(self):
        assert correct([0.5], [1]).tolist() == [True]
        assert correct([0.4999], [1]).tolist() == [False]
        assert group_accuracies([0.5, 0.4999], [1, 1], [0, 1]).tolist() == [1.0, 0.0]

    def test_basic(self):
        assert correct([0.2, 0.9, 0.6, 0.1], [0, 1, 0, 1]).tolist() == [True, True, False, False]
        assert group_accuracies([0.2, 0.9, 0.6, 0.1], [0, 1, 0, 1], [0, 0, 0, 0]).tolist() == [0.5]

    @pytest.mark.parametrize("present", [(0,), (3,), (0, 2), (1, 2, 4)], ids=["one", "one_after_absent", "gap", "gaps"])
    @pytest.mark.parametrize("label_dtype", [np.int8, np.int64])
    def test_matches_a_mask_based_reference(self, rng, present, label_dtype):
        """Scores on a 1/8 grid hit 0.5 exactly; absent groups get no entry, the others keep group order."""
        n = 500
        scores = rng.integers(0, 9, size=n) / 8.0
        labels = rng.integers(0, 2, size=n).astype(label_dtype)
        groups = rng.choice(present, size=n)
        assert np.any(scores == 0.5)
        assert correct(scores, labels).tolist() == ((scores >= 0.5).astype(int) == labels).tolist()
        want = [mask_accuracy(scores[groups == g], labels[groups == g]) for g in present]
        assert group_accuracies(scores, labels, groups).tolist() == want  # bitwise


class TestEvaluate:
    # per (a, s, y): scores chosen so per-group accuracies disagree
    Y = [0, 1, 0, 1, 0, 1, 0, 1]
    S = [0, 0, 1, 1, 0, 0, 1, 1]
    A = [0, 0, 0, 0, 1, 1, 1, 1]
    SCORES = [0.2, 0.7, 0.6, 0.8, 0.4, 0.3, 0.9, 0.5]

    def test_hand_fixture(self):
        ds = tiny_dataset(self.Y, self.S, self.A)
        report = evaluate(FixedScores(self.SCORES), ds)
        assert report.overall_auc == pytest.approx(9.0 / 16.0, abs=1e-12)
        assert report.min_acc_A == 0.5
        assert report.gap_A == pytest.approx(0.25)
        assert report.min_acc_S == 0.5
        assert report.gap_S == pytest.approx(0.25)

    def test_order_invariance(self, rng):
        perm = rng.permutation(8)
        ds = tiny_dataset(np.array(self.Y)[perm], np.array(self.S)[perm], np.array(self.A)[perm])
        report = evaluate(FixedScores(np.array(self.SCORES)[perm]), ds)
        assert report.gap_A == pytest.approx(0.25)
        assert report.gap_S == pytest.approx(0.25)
        assert report.overall_auc == pytest.approx(9.0 / 16.0, abs=1e-12)

    def test_constant_predictor_has_zero_gaps(self):
        """Classes are balanced inside every partition cell here, so a
        constant score is equally (in)accurate everywhere."""
        ds = tiny_dataset(self.Y, self.S, self.A)
        report = evaluate(FixedScores([0.9] * 8), ds)
        assert report.gap_A == 0.0
        assert report.gap_S == 0.0

    def test_missing_cell_rejected(self):
        ds = tiny_dataset([0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 0])  # no a=1 rows
        with pytest.raises(MissingCell):
            evaluate(FixedScores([0.5] * 4), ds)

    @pytest.mark.parametrize(
        "empty,named",
        [([(0, 0)], (0, 0)), ([(0, 1)], (0, 1)), ([(1, 0)], (1, 0)), ([(1, 1)], (1, 1)), ([(1, 1), (0, 1)], (0, 1))],
        ids=["a0_s0", "a0_s1", "a1_s0", "a1_s1", "two_cells"],
    )
    def test_missing_cell_names_the_first_empty_cell(self, empty, named):
        keep = [i for i in range(8) if (self.A[i], self.S[i]) not in empty]
        ds = tiny_dataset(*(np.array(v)[keep] for v in (self.Y, self.S, self.A)))
        with pytest.raises(MissingCell, match=f"^no samples with a={named[0]}, s={named[1]}$"):
            evaluate(FixedScores(np.array(self.SCORES)[keep]), ds)

    def test_random_scores_are_chance_with_flat_gaps(self):
        class RandomModel:
            def predict_scores(self, x):
                return np.random.default_rng(99).uniform(size=len(x))

        ds = sample_dataset(
            uniform_distribution(), 8000, FeatureConfig(d_y=1, d_a=1, d_s=1), seed=7
        )
        report = evaluate(RandomModel(), ds)
        assert report.overall_auc == pytest.approx(0.5, abs=0.03)
        assert report.gap_A < 0.05
        assert report.gap_S < 0.05

    def test_shortcut_model_disparity_shrinks_on_balanced_split(self):
        """The s gap comes from a-imbalance across s; the uniform test split
        balances a within each s value and the gap collapses."""
        tr, va = make_splits(FeatureConfig(), 4000, 2000, 0.95, 0.8, seed=1)
        te = make_test_split(FeatureConfig(), 4000, seed=1)
        model = train_erm(tr, TrainConfig(), 0)
        assert evaluate(model, va).gap_S > evaluate(model, te).gap_S


class TestPearson:
    def test_identity_line(self):
        r, p = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert r == pytest.approx(1.0, abs=1e-12)
        assert p < 1e-6

    def test_negative_affine(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        r, _ = pearson(x, -2.0 * x + 3.0)
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_five_point_covariance_oracle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 7.0])
        xc = x - x.mean()
        yc = y - y.mean()
        want = float(np.sum(xc * yc) / np.sqrt(np.sum(xc**2) * np.sum(yc**2)))
        r, _ = pearson(x, y)
        assert r == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 15, 45, 200])
    @pytest.mark.parametrize(
        "target_r", [0.01, 0.6, -0.995], ids=["p_near_1", "moderate", "strong"]
    )
    def test_p_value_matches_t_distribution(self, rng, target_r, n):
        stats = pytest.importorskip("scipy.stats")
        x, y = with_correlation(rng, n, target_r)
        r, p = pearson(x, y)
        assert r == pytest.approx(target_r, abs=1e-12)
        assert r == stats.pearsonr(x, y).statistic
        t = abs(r) * np.sqrt((n - 2) / (1.0 - r * r))
        assert p == pytest.approx(2.0 * stats.t.sf(t, df=n - 2), rel=1e-9)
        assert p == pytest.approx(stats.pearsonr(x, y).pvalue, rel=1e-9)

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (2.0, 7.5), (40.0, 3.0), (99.0, 99.0)])
    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.3, 0.5, 0.8, 0.999, 1.0])
    def test_incomplete_beta_matches_scipy_on_both_sides_of_the_switch(self, a, b, x):
        special = pytest.importorskip("scipy.special")
        assert _betainc(a, b, x) == pytest.approx(special.betainc(a, b, x), rel=1e-11, abs=1e-300)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_rejects_short_input(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0, 2.0], [3.0, 4.0])

    def test_rejects_zero_variance(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_rejects_non_finite_values(self, bad, side):
        # raised before any arithmetic, so numpy warns nothing on the way
        values = {"x": [1.0, 2.0, 3.0, 4.0], "y": [2.0, 1.0, 4.0, 3.0]}
        values[side][1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInput, match="Pearson r needs finite values"):
                pearson(values["x"], values["y"])
