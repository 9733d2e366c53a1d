import warnings

import numpy as np
import pytest

from subshift.dist_core import N_ATOMS, atom_index, biased_distribution, uniform_distribution
from subshift.errors import OutOfRange
from subshift.metrics import auc
from subshift.mitigation import TrainConfig, train
from subshift.synth_data import FeatureConfig, _scored_labels, make_splits, make_test_split, sample_dataset


@pytest.fixture(scope="module")
def big_uniform():
    return sample_dataset(uniform_distribution(), 80_000, FeatureConfig(), seed=42)


@pytest.fixture(scope="module")
def big_biased(p_train):
    return sample_dataset(p_train, 80_000, FeatureConfig(), seed=43)


class TestFeatureConfig:
    def test_dim(self):
        assert FeatureConfig().dim == 15
        assert FeatureConfig(d_y=2, d_a=3, d_s=4).dim == 9

    def test_shortcut_stronger_than_label_by_default(self):
        cfg = FeatureConfig()
        assert cfg.mu_a > cfg.mu_y

    def test_rejects_empty_block(self):
        with pytest.raises(OutOfRange):
            FeatureConfig(d_a=0)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(OutOfRange):
            FeatureConfig(noise_sd=0.0)

    @pytest.mark.parametrize("field", ["mu_y", "mu_a", "mu_s", "noise_sd"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "int_1e400"]
    )
    def test_rejects_non_finite_float(self, field, value):
        with pytest.raises(OutOfRange, match=f"{field} must be finite"):
            FeatureConfig(**{field: value})


class TestSampleDataset:
    def test_overflowing_draw_is_refused_by_name(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match=r"noise_sd=1e\+308, mu_y=0\.6, mu_a=2\.0 and mu_s=1\.0"):
                sample_dataset(uniform_distribution(), 16, FeatureConfig(noise_sd=1e308), seed=0)
            ds = sample_dataset(uniform_distribution(), 16, FeatureConfig(noise_sd=1e307), seed=0)
        assert np.isfinite(ds.features).all()

    def test_uniform_atom_frequencies(self, big_uniform):
        freq = np.bincount(atom_index(big_uniform.y, big_uniform.s, big_uniform.a), minlength=8) / len(big_uniform.y)
        assert np.all(np.abs(freq - 0.125) < 0.005)

    def test_biased_conditional(self, big_biased):
        """The bias knob lands on the aligned-pair rate per environment."""
        m0 = (big_biased.y == 0) & (big_biased.s == 0)
        assert (big_biased.a[m0] == 0).mean() == pytest.approx(0.95, abs=0.01)
        m1 = (big_biased.y == 1) & (big_biased.s == 1)
        assert (big_biased.a[m1] == 1).mean() == pytest.approx(0.80, abs=0.01)

    def test_unbiased_label_attribute_independence(self, big_uniform):
        p = (big_uniform.y[big_uniform.a == 1] == 1).mean()
        assert abs(p - 0.5) < 0.01

    def test_deterministic(self, p_train):
        cfg = FeatureConfig(d_y=2, d_a=2, d_s=2)
        one = sample_dataset(p_train, 500, cfg, seed=9)
        two = sample_dataset(p_train, 500, cfg, seed=9)
        assert np.array_equal(one.features, two.features)
        assert np.array_equal(one.y, two.y)
        assert np.array_equal(one.s, two.s)
        assert np.array_equal(one.a, two.a)

    def test_seed_changes_draw(self, p_train):
        cfg = FeatureConfig(d_y=1, d_a=1, d_s=1)
        one = sample_dataset(p_train, 500, cfg, seed=9)
        two = sample_dataset(p_train, 500, cfg, seed=10)
        assert not np.array_equal(one.features, two.features)

    def test_rejects_empty(self, p_train):
        with pytest.raises(OutOfRange):
            sample_dataset(p_train, 0, FeatureConfig(), seed=0)

    def test_features_match_noise_plus_centers(self, p_train):
        """Built in place, the features equal noise * noise_sd + centers bit
        for bit, the two-array expression rebuilt here from the same draws."""
        cfg = FeatureConfig(d_y=2, d_a=3, d_s=4, mu_y=0.7, mu_a=1.9, mu_s=1.3, noise_sd=0.8)
        ds = sample_dataset(p_train, 700, cfg, seed=21)

        rng = np.random.default_rng(21)
        atoms = rng.choice(N_ATOMS, size=700, p=p_train.probs)
        noise = rng.standard_normal((700, cfg.dim)) * cfg.noise_sd
        signs = lambda bit: (2.0 * ((atoms >> bit) & 1) - 1.0)[:, None]
        centers = np.empty((700, cfg.dim))
        centers[:, :2] = cfg.mu_y * signs(2)
        centers[:, 2:5] = cfg.mu_a * signs(0)
        centers[:, 5:] = cfg.mu_s * signs(1)
        assert np.array_equal(ds.features, noise + centers)

    @pytest.mark.parametrize("block,lo,hi", [("y", 0, 5), ("a", 5, 10), ("s", 10, 15)])
    def test_block_means(self, big_uniform, block, lo, hi):
        cfg = FeatureConfig()  # the config big_uniform was drawn with
        mu = {"y": cfg.mu_y, "a": cfg.mu_a, "s": cfg.mu_s}[block]
        values = getattr(big_uniform, block)
        for v in (0, 1):
            slab = big_uniform.features[values == v, lo:hi]
            tol = 3.0 * cfg.noise_sd / np.sqrt(slab.size)
            assert abs(slab.mean() - mu * (2 * v - 1)) <= tol

    def test_zero_signal_gives_chance_auc(self):
        cfg = FeatureConfig(mu_y=0.0, mu_a=0.0, mu_s=0.0)
        train_ds = sample_dataset(uniform_distribution(), 2000, cfg, seed=7)
        test_ds = sample_dataset(uniform_distribution(), 20_000, cfg, seed=8)
        model = train("erm", train_ds, TrainConfig(epochs=10), 0)
        score = auc(model.predict_scores(test_ds.features), test_ds.y)
        assert 0.48 <= score <= 0.52


class TestMakeSplits:
    def test_sources(self):
        """Train and val are drawn from the biased distribution, test from the uniform one."""
        cfg = FeatureConfig(d_y=1, d_a=1, d_s=1)
        splits = (*make_splits(cfg, 80_000, 80_000, 0.95, 0.8, seed=0), make_test_split(cfg, 80_000, seed=0))
        biased = biased_distribution(0.95, 0.8).probs
        for ds, probs in zip(splits, (biased, biased, uniform_distribution().probs)):
            freq = np.bincount(atom_index(ds.y, ds.s, ds.a), minlength=N_ATOMS) / len(ds.y)
            assert np.all(np.abs(freq - probs) < 0.005)

    def test_child_seeds_distinct(self):
        cfg = FeatureConfig(d_y=1, d_a=1, d_s=1)
        tr, va = make_splits(cfg, 100, 100, 0.5, 0.5, seed=0)
        te = make_test_split(cfg, 100, seed=0)
        # equal sizes and sources, so only the seed tells the splits apart
        assert not np.array_equal(tr.features, va.features)
        assert not np.array_equal(tr.features, te.features)
        assert not np.array_equal(va.features, te.features)

    def test_deterministic(self):
        cfg = FeatureConfig(d_y=1, d_a=1, d_s=1)
        a = (*make_splits(cfg, 200, 100, 0.95, 0.8, seed=4), make_test_split(cfg, 200, seed=4))
        b = (*make_splits(cfg, 200, 100, 0.95, 0.8, seed=4), make_test_split(cfg, 200, seed=4))
        for da, db in zip(a, b):
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.y, db.y)

    def test_splits_draw_the_seed_sequence_streams(self):
        """Train, val and test take the three SeedSequence(seed) streams in
        order, whichever call draws them."""
        cfg = FeatureConfig(d_y=1, d_a=1, d_s=1)
        streams = [int(x) for x in np.random.SeedSequence(9).generate_state(3)]
        biased = biased_distribution(0.95, 0.8)
        expected = (
            sample_dataset(biased, 120, cfg, streams[0]),
            sample_dataset(biased, 60, cfg, streams[1]),
            sample_dataset(uniform_distribution(), 90, cfg, streams[2]),
        )
        got = (*make_splits(cfg, 120, 60, 0.95, 0.8, seed=9), make_test_split(cfg, 90, seed=9))
        for ds, want in zip(got, expected):
            assert np.array_equal(ds.features, want.features)
            assert np.array_equal(atom_index(ds.y, ds.s, ds.a), atom_index(want.y, want.s, want.a))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scored_labels_replay_the_val_and_test_draws(self, seed):
        """A sweep checks each seed's val and test labels before training; they are the splits' labels bit for bit."""
        cfg = FeatureConfig()
        (_, val), test = make_splits(cfg, 500, 300, 0.95, 0.8, seed=seed), make_test_split(cfg, 400, seed=seed)
        got = _scored_labels(300, 400, 0.95, 0.8, seed)
        for labels, split in zip(got, (val, test)):
            assert labels.dtype == split.y.dtype
            assert np.array_equal(labels, [split.y, split.s, split.a])

    def test_no_shift_means_no_generalization_drop(self):
        """With matched train and test distributions the val to test gap closes."""
        tr, va = make_splits(FeatureConfig(), 4000, 2000, 0.5, 0.5, seed=11)
        te = make_test_split(FeatureConfig(), 4000, seed=11)
        model = train("erm", tr, TrainConfig(epochs=10), 0)
        val_auc = auc(model.predict_scores(va.features), va.y)
        test_auc = auc(model.predict_scores(te.features), te.y)
        assert val_auc - test_auc <= 0.02
