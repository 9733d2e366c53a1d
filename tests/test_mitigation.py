import tracemalloc

import numpy as np
import pytest

from subshift import nnet
from subshift.dist_core import biased_distribution, uniform_distribution
from subshift.errors import EmptyGroup, InvalidScheme, OutOfRange, YBasedGrouping
from subshift.grouping import GroupingScheme, annotate_samples
from subshift.metrics import auc
from subshift.mitigation import (
    JTT_STAGE1_GRID,
    JTT_UPWEIGHT_GRID,
    TrainConfig,
    TrainedModel,
    train,
    train_cfair,
    train_domain_ind,
    train_erm,
    train_gdro,
    train_jtt,
    train_resampling,
)
from subshift.synth_data import Dataset, FeatureConfig, make_splits, sample_dataset

SHARED_BLOCKS = ("w1", "b1", "w_heads", "b_heads")


def params_equal(a, b, fields=SHARED_BLOCKS):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


@pytest.fixture(scope="module")
def small_train(p_train):
    return sample_dataset(p_train, 1200, FeatureConfig(d_y=2, d_a=2, d_s=2), seed=2)


@pytest.fixture(scope="module")
def small_val(p_train):
    return sample_dataset(p_train, 400, FeatureConfig(d_y=2, d_a=2, d_s=2), seed=3)


@pytest.fixture(scope="module")
def train_a(small_train):
    return annotate_samples(small_train, GroupingScheme("A"), seed=0)


@pytest.fixture(scope="module")
def train_ay(small_train):
    return annotate_samples(small_train, GroupingScheme("AY"), seed=0)


def single_group(ds):
    return ds.with_groups(np.zeros(len(ds), dtype=np.int64), None, 1)


class TestDeterminism:
    """Same config and seed must reproduce final parameters bitwise."""

    CASES = ("erm", "gdro", "resampling", "domain_ind", "cfair", "jtt")

    @pytest.mark.parametrize("method", CASES)
    def test_bitwise_repeatable(self, method, small_train, small_val, train_a, train_ay):
        cfg = TrainConfig(epochs=3, seed=0, jtt_stage1_epochs=1, jtt_upweight=5.0)
        ds = {"gdro": train_ay, "resampling": train_ay, "domain_ind": train_a, "cfair": train_a}.get(
            method, small_train
        )
        val = small_val if method == "jtt" else None
        one = train(method, ds, cfg, val=val)
        two = train(method, ds, cfg, val=val)
        fields = [f for f in ("w1", "b1", "w_heads", "b_heads", "w_adv", "b_adv")
                  if getattr(one.params, f) is not None]
        assert params_equal(one.params, two.params, fields)


def fit_one(method, small_train, small_val, train_a, train_ay, epochs):
    cfg = TrainConfig(epochs=epochs, seed=0, jtt_stage1_epochs=1, jtt_upweight=5.0)
    ds = {"gdro": train_ay, "resampling": train_ay, "domain_ind": train_a, "cfair": train_a}.get(
        method, small_train
    )
    return train(method, ds, cfg, val=small_val if method == "jtt" else None)


class TestHistory:
    @pytest.mark.parametrize("method", TestDeterminism.CASES)
    def test_history_is_a_tuple_of_epoch_rows(self, method, small_train, small_val, train_a, train_ay):
        model = fit_one(method, small_train, small_val, train_a, train_ay, epochs=2)
        assert isinstance(model.history, tuple)
        assert [row["epoch"] for row in model.history] == [0, 1]
        for row in model.history:
            assert np.isfinite(row["train_loss"])
            if method == "gdro":
                assert row["group_weights"].shape == (4,)
            else:
                assert row["group_weights"] is None
            assert ("adversary_loss" in row) == (method == "cfair")


# Which nnet functions each trainer reaches. The benchmark's tracer counts
# calls by patching these module attributes, so trainers must look them up
# on the module at call time rather than binding them at import.
NNET_USES = {
    "erm": {"bce_loss_and_grad", "sgd_adam_step", "forward"},
    "gdro": {"bce_loss_and_grad", "sgd_adam_step", "per_sample_losses", "forward"},
    "resampling": {"bce_loss_and_grad", "sgd_adam_step", "forward"},
    "domain_ind": {"bce_loss_and_grad", "sgd_adam_step", "forward"},
    "cfair": {"cfair_loss_and_grad", "sgd_adam_step", "forward"},
    "jtt": {"bce_loss_and_grad", "sgd_adam_step", "forward"},
}


@pytest.mark.parametrize("method", TestDeterminism.CASES)
def test_trainers_reach_patched_nnet_functions(
    method, monkeypatch, small_train, small_val, train_a, train_ay
):
    calls = {}
    for name in set().union(*NNET_USES.values()):
        original = getattr(nnet, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(nnet, name, counted)
    fit_one(method, small_train, small_val, train_a, train_ay, epochs=1)
    assert set(calls) == NNET_USES[method]


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field,value,error",
        [
            ("epochs", 2.0, OutOfRange),
            ("jtt_stage1_epochs", 1.5, OutOfRange),
            ("lr", float("nan"), OutOfRange),
            ("lr_decay_factor", 0.0, OutOfRange),
            ("lr_decay_factor", -0.1, OutOfRange),
            ("weight_decay", -1e-4, OutOfRange),
            ("weight_decay", float("nan"), OutOfRange),
            ("lr_decay_epoch", -1, OutOfRange),
            ("domain_ind_rule", "vote", InvalidScheme),
        ],
    )
    def test_rejects_out_of_range_field(self, field, value, error):
        with pytest.raises(error, match=field if error is OutOfRange else "inference rule"):
            TrainConfig(**{field: value})

    def test_boundary_values_accepted(self):
        cfg = TrainConfig(weight_decay=0.0, lr_decay_epoch=0, jtt_stage1_epochs=np.int64(2), domain_ind_rule="sum")
        assert cfg.jtt_stage1_epochs == 2


class TestErm:
    def test_history_length_and_scores(self, small_train):
        cfg = TrainConfig(epochs=4, seed=1)
        model = train_erm(small_train, cfg)
        assert len(model.history) == 4
        scores = model.predict_scores(small_train.features[:10])
        assert scores.shape == (10,)
        assert np.all((scores > 0) & (scores < 1))

    def test_no_shortcut_means_no_generalization_drop(self):
        """With the shortcut block silenced there is nothing spurious to learn."""
        tr, va, te = make_splits(FeatureConfig(mu_a=0.0), 4000, 1000, 2000, 0.95, 0.8, seed=5)
        model = train_erm(tr, TrainConfig(seed=0))
        gap = auc(model.predict_scores(va.features), va.y) - auc(
            model.predict_scores(te.features), te.y
        )
        assert gap < 0.02


class TestGdro:
    def test_weights_stay_on_simplex(self, train_ay):
        model = train_gdro(train_ay, TrainConfig(epochs=5, seed=0))
        for row in model.history:
            q = row["group_weights"]
            assert np.all(q >= 0)
            assert abs(q.sum() - 1.0) < 1e-10

    def test_zero_eta_keeps_uniform_weights(self, train_ay):
        model = train_gdro(train_ay, TrainConfig(epochs=3, seed=0, gdro_eta=0.0))
        for row in model.history:
            assert np.array_equal(row["group_weights"], np.full(4, 0.25))

    def test_single_group_reduces_to_erm(self, small_train):
        cfg = TrainConfig(epochs=4, seed=0)
        assert params_equal(
            train_gdro(single_group(small_train), cfg).params,
            train_erm(small_train, cfg).params,
        )

    def test_weight_drifts_toward_conflicting_groups(self):
        """At realistic scale the bias-conflicting pairs accumulate weight."""
        tr, _, _ = make_splits(FeatureConfig(), 8000, 10, 10, 0.95, 0.8, seed=0)
        ds = annotate_samples(tr, GroupingScheme("AY"), seed=0)
        model = train_gdro(ds, TrainConfig(seed=0))
        q = model.history[-1]["group_weights"]
        assert q[1] + q[2] > 0.5

    def test_requires_annotation(self, small_train):
        with pytest.raises(InvalidScheme):
            train_gdro(small_train, TrainConfig(epochs=1))

    def test_rejects_empty_group(self, small_train):
        bad = small_train.with_groups(np.zeros(len(small_train), dtype=np.int64), None, 2)
        with pytest.raises(EmptyGroup):
            train_gdro(bad, TrainConfig(epochs=1))


class TestResampling:
    def test_group_frequencies_balance(self, monkeypatch):
        """Over 10^4 batches each of k=4 groups fills 1/4 of slots within 0.01."""
        n = 640
        rng = np.random.default_rng(0)
        groups = np.repeat(np.arange(4), n // 4)[rng.permutation(n)]
        features = np.column_stack(
            [groups.astype(float), rng.normal(size=n), rng.normal(size=n)]
        )
        ds = Dataset(
            features=features,
            y=rng.integers(0, 2, n).astype(np.int8),
            s=np.zeros(n, np.int8),
            a=np.zeros(n, np.int8),
        ).with_groups(groups, None, 4)

        seen = np.zeros(4)
        real = nnet.bce_loss_and_grad

        def spy(params, x, y, sample_weights=None, head_ids=None):
            np.add.at(seen, x[:, 0].astype(int), 1.0)
            return real(params, x, y, sample_weights=sample_weights, head_ids=head_ids)

        monkeypatch.setattr(nnet, "bce_loss_and_grad", spy)
        train_resampling(ds, TrainConfig(epochs=1000, batch_size=64, hidden=4, seed=1))
        freq = seen / seen.sum()
        assert seen.sum() == 64 * 10_000
        assert np.all(np.abs(freq - 0.25) < 0.01)

    def test_single_group_runs(self, small_train):
        model = train_resampling(single_group(small_train), TrainConfig(epochs=2, seed=0))
        assert len(model.history) == 2

    def test_rejects_empty_group(self, small_train):
        bad = small_train.with_groups(np.zeros(len(small_train), dtype=np.int64), None, 3)
        with pytest.raises(EmptyGroup):
            train_resampling(bad, TrainConfig(epochs=1))


class TestDomainInd:
    def test_rejects_label_based_grouping(self, train_ay):
        with pytest.raises(YBasedGrouping):
            train_domain_ind(train_ay, TrainConfig(epochs=1))

    def test_structural_rejection_without_scheme_name(self, small_train):
        bad = small_train.with_groups(small_train.y.astype(np.int64), None, 2)
        with pytest.raises(YBasedGrouping):
            train_domain_ind(bad, TrainConfig(epochs=1))

    def test_one_head_reduces_to_erm(self, small_train):
        cfg = TrainConfig(epochs=4, seed=0)
        assert params_equal(
            train_domain_ind(single_group(small_train), cfg).params,
            train_erm(small_train, cfg).params,
        )

    def test_rejects_unknown_inference_rule(self, train_a):
        with pytest.raises(InvalidScheme):
            train_domain_ind(train_a, TrainConfig(epochs=1, domain_ind_rule="vote"))

    def test_absent_group_head_gets_zero_gradient(self, rng):
        params = nnet.init_params(4, hidden=5, n_heads=3, seed=0)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 2, 8)
        head_ids = np.zeros(8, dtype=int)
        _, grads = nnet.bce_loss_and_grad(params, x, y, head_ids=head_ids)
        assert np.all(grads.w_heads[1:] == 0.0)
        assert np.all(grads.b_heads[1:] == 0.0)

    def test_inference_rules(self):
        hidden = 4
        params = nnet.ModelParams(
            w1=np.zeros((3, hidden)),
            b1=np.zeros(hidden),
            w_heads=np.zeros((2, hidden)),
            b_heads=np.array([2.0, -3.0]),
        )
        x = np.zeros((1, 3))
        max_abs = TrainedModel(
            params=params, method="domain_ind", config=TrainConfig(), history=()
        )
        from scipy.special import expit

        assert max_abs.predict_scores(x)[0] == pytest.approx(expit(-3.0))
        summed = TrainedModel(
            params=params,
            method="domain_ind",
            config=TrainConfig(domain_ind_rule="sum"),
            history=(),
        )
        assert summed.predict_scores(x)[0] == pytest.approx(expit(-1.0))


class TestPredictScores:
    """Full-split scoring runs in 1024-row blocks."""

    @pytest.mark.parametrize("n", (1, 1023, 1024, 1025, 2500))
    @pytest.mark.parametrize(
        "n_heads, rule", ((1, "max_abs"), (3, "max_abs"), (3, "sum")), ids=("one-head", "max_abs", "sum")
    )
    def test_blocks_match_one_unblocked_forward(self, rng, n, n_heads, rule):
        params = nnet.init_params(15, hidden=16, n_heads=n_heads, seed=1)
        params.flat[:] += rng.normal(size=params.flat.shape)  # spread the logits
        x = rng.normal(size=(n, 15))
        model = TrainedModel(
            params=params, method="domain_ind", config=TrainConfig(domain_ind_rule=rule), history=()
        )
        logits, _ = nnet.forward(params, x)
        if n_heads > 1 and rule == "sum":
            logits = logits.sum(axis=1)
        elif n_heads > 1:
            logits = logits[np.arange(n), np.argmax(np.abs(logits), axis=1)]
        np.testing.assert_array_equal(model.predict_scores(x), nnet.expit(logits))

    def test_peak_memory_is_bounded(self, rng):
        """Scoring holds the [n] score vector and one block's activations,
        never an [n, hidden] activation of the whole split."""
        x = rng.normal(size=(200_000, 15))
        model = TrainedModel(params=nnet.init_params(15, seed=0), method="erm", config=TrainConfig(), history=())
        model.predict_scores(x)  # one-time allocations
        tracemalloc.start()
        try:
            model.predict_scores(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * x.shape[0] * 8, peak  # twice the 1.6 MB score vector


class TestCfair:
    def test_zero_mu_matches_erm_on_shared_blocks(self, small_train, train_a):
        cfg = TrainConfig(epochs=5, seed=0, cfair_mu=0.0)
        cf = train_cfair(train_a, cfg)
        erm = train_erm(small_train, cfg)
        assert params_equal(cf.params, erm.params)

    def test_rejects_label_based_grouping(self, train_ay):
        with pytest.raises(YBasedGrouping):
            train_cfair(train_ay, TrainConfig(epochs=1))

    def test_rejects_single_group(self, small_train):
        with pytest.raises(InvalidScheme):
            train_cfair(single_group(small_train), TrainConfig(epochs=1))

    def test_reversal_holds_adversary_near_chance(self):
        """Unopposed (mu=0) the group adversary learns; reversal stops it."""
        cfg = FeatureConfig(d_y=3, d_a=1, d_s=1, mu_y=1.0, mu_a=1.0, mu_s=0.5)
        ds = sample_dataset(uniform_distribution(), 4000, cfg, seed=2)
        ds = annotate_samples(ds, GroupingScheme("A"), seed=0)
        free = train_cfair(ds, TrainConfig(epochs=40, hidden=4, seed=0, cfair_mu=0.0))
        fought = train_cfair(ds, TrainConfig(epochs=40, hidden=4, seed=0, cfair_mu=3.0))
        free_final = free.history[-1]["adversary_loss"]
        fought_final = fought.history[-1]["adversary_loss"]
        assert free.history[0]["adversary_loss"] - free_final > 0.02
        assert fought_final > free_final + 0.02

    def test_history_tracks_adversary(self, train_a):
        model = train_cfair(train_a, TrainConfig(epochs=2, seed=0))
        assert all("adversary_loss" in row for row in model.history)


class TestJtt:
    def test_unit_upweight_equals_erm(self, small_train, small_val):
        cfg = TrainConfig(epochs=5, seed=0, jtt_stage1_epochs=1, jtt_upweight=1.0)
        jt = train_jtt(small_train, small_val, cfg)
        erm = train_erm(small_train, cfg)
        assert params_equal(jt.params, erm.params)

    def test_warns_on_empty_error_set(self, p_train):
        easy = FeatureConfig(mu_y=6.0, mu_a=0.5, mu_s=0.5, noise_sd=0.5)
        ds = sample_dataset(p_train, 512, easy, seed=3)
        val = sample_dataset(p_train, 256, easy, seed=4)
        cfg = TrainConfig(epochs=6, seed=0, jtt_stage1_epochs=2, jtt_upweight=5.0)
        with pytest.warns(UserWarning, match="no training errors"):
            model = train_jtt(ds, val, cfg)
        assert model.info["n_upweighted"] == 0

    def test_grid_selection_reports_choice(self, small_train, small_val):
        val = annotate_samples(small_val, GroupingScheme("A"), seed=0)
        model = train_jtt(small_train, val, TrainConfig(epochs=3, seed=0))
        assert model.info["stage1_epochs"] in JTT_STAGE1_GRID
        assert model.info["upweight"] in JTT_UPWEIGHT_GRID
        assert len(model.history) == 3

    def test_dispatcher_requires_val(self, small_train):
        with pytest.raises(InvalidScheme):
            train("jtt", small_train, TrainConfig(epochs=1))

    def test_dispatcher_rejects_unknown_method(self, small_train):
        with pytest.raises(InvalidScheme):
            train("boosting", small_train, TrainConfig(epochs=1))
