import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from subshift import mitigation, nnet
from subshift.dist_core import biased_distribution, uniform_distribution
from subshift.errors import DegenerateInput, EmptyGroup, InvalidConfig, InvalidScheme, OutOfRange, YBasedGrouping
from subshift.grouping import GroupingScheme, annotate_samples
from subshift.metrics import auc
from subshift.mitigation import (
    JTT_STAGE1_GRID,
    JTT_UPWEIGHT_GRID,
    METHODS,
    NEEDS_TRAIN_GROUPS,
    NEEDS_Y_FREE,
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
from subshift.synth_data import Dataset, FeatureConfig, make_splits, make_test_split, sample_dataset

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
def val_a(small_val):
    return annotate_samples(small_val, GroupingScheme("A"), seed=0)


@pytest.fixture(scope="module")
def train_a(small_train):
    return annotate_samples(small_train, GroupingScheme("A"), seed=0)


@pytest.fixture(scope="module")
def train_ay(small_train):
    return annotate_samples(small_train, GroupingScheme("AY"), seed=0)


def hand_grouped(ds, groups, k):
    """ds with group ids that no scheme draws (one group, an empty one, a
    chosen layout), labelled with the y-free scheme A so trainers take them."""
    return replace(ds, group=groups, group_scheme=GroupingScheme("A"), group_count=k)


def single_group(ds):
    return hand_grouped(ds, np.zeros(len(ds.y), dtype=np.int64), 1)


@pytest.fixture
def pin_jtt_grid(monkeypatch):
    """pin(stage1_epochs, upweight) collapses JTT's tuning grid to that one cell."""

    def pin(stage1_epochs, upweight):
        monkeypatch.setattr(mitigation, "JTT_STAGE1_GRID", (stage1_epochs,))
        monkeypatch.setattr(mitigation, "JTT_UPWEIGHT_GRID", (upweight,))

    return pin


class TestDeterminism:
    """Same config and seed must reproduce final parameters bitwise."""

    CASES = ("erm", "gdro", "resampling", "domain_ind", "cfair", "jtt")

    @pytest.mark.parametrize("method", CASES)
    def test_bitwise_repeatable(self, method, small_train, val_a, train_a, train_ay, pin_jtt_grid):
        pin_jtt_grid(1, 5.0)
        cfg = TrainConfig(epochs=3)
        ds = {"gdro": train_ay, "resampling": train_ay, "domain_ind": train_a, "cfair": train_a}.get(
            method, small_train
        )
        val = val_a if method == "jtt" else None
        one = train(method, ds, cfg, 0, val=val)
        two = train(method, ds, cfg, 0, val=val)
        fields = [f for f in ("w1", "b1", "w_heads", "b_heads", "w_adv", "b_adv")
                  if getattr(one.params, f) is not None]
        assert params_equal(one.params, two.params, fields)


def fit_one(method, small_train, val_a, train_a, train_ay, epochs):
    """Train one method on its usual split; JTT's grid must be pinned to one cell first."""
    cfg = TrainConfig(epochs=epochs)
    ds = {"gdro": train_ay, "resampling": train_ay, "domain_ind": train_a, "cfair": train_a}.get(
        method, small_train
    )
    return train(method, ds, cfg, 0, val=val_a if method == "jtt" else None)


class TestHistory:
    # What each method's steps report, beside the epoch number every row carries.
    REPORTED = {"gdro": {"train_loss", "group_weights"}, "cfair": {"train_loss", "adversary_loss"}}

    @pytest.mark.parametrize("method", TestDeterminism.CASES)
    def test_history_is_a_tuple_of_epoch_rows(
        self, method, small_train, val_a, train_a, train_ay, pin_jtt_grid
    ):
        pin_jtt_grid(1, 5.0)
        model = fit_one(method, small_train, val_a, train_a, train_ay, epochs=2)
        assert isinstance(model.history, tuple)
        assert [row["epoch"] for row in model.history] == [0, 1]
        for row in model.history:
            assert set(row) == {"epoch", *self.REPORTED.get(method, {"train_loss"})}
            assert np.isfinite(row["train_loss"])
            if method == "gdro":
                assert row["group_weights"].shape == (4,)

    def test_fit_records_the_epoch_mean_of_every_reported_value(self, small_train):
        """_fit knows no method: a row is the epoch number plus each report entry's mean over the epoch's steps."""
        steps = []

        def step(params, batch):
            i = len(steps)
            steps.append(i)
            report = {"scalar": float(i), "array": np.array([i, i * i], dtype=float)}
            return report, params.like(np.zeros_like(params.flat))

        def four_batches(rng):
            return (np.arange(8) for _ in range(4))

        model = mitigation._fit(small_train, TrainConfig(epochs=2), 0, step, batches=four_batches)
        assert len(steps) == 8
        assert [set(row) for row in model.history] == [{"epoch", "scalar", "array"}] * 2
        # steps 0-3, then 4-7: means 1.5 and 5.5; squares 0, 1, 4, 9 and 16, 25, 36, 49
        assert [(row["epoch"], row["scalar"]) for row in model.history] == [(0, 1.5), (1, 5.5)]
        assert [row["array"].tolist() for row in model.history] == [[1.5, 3.5], [5.5, 31.5]]

    def test_fit_stops_after_the_first_epoch_whose_means_are_not_finite(self, small_train):
        """A NaN loss in epoch 2's second step ends training after that epoch, named 1-based."""
        steps = []

        def step(params, batch):
            steps.append(len(steps))
            loss = float("nan") if len(steps) == 6 else 0.5
            return {"train_loss": loss}, params.like(np.zeros_like(params.flat))

        def four_batches(rng):
            return (np.arange(8) for _ in range(4))

        with pytest.raises(DegenerateInput, match="^training diverged in epoch 2 of 3: train_loss not finite$"):
            mitigation._fit(small_train, TrainConfig(epochs=3), 0, step, batches=four_batches)
        assert len(steps) == 8  # the failing epoch finishes; epoch 3 never starts


# Which nnet functions each trainer reaches. The benchmark's tracer counts
# calls by patching these module attributes, so trainers must look them up
# on the module at call time rather than binding them at import.
NNET_USES = {
    "erm": {"bce_loss_and_grad", "sgd_adam_step", "forward"},
    "gdro": {"bce_loss_and_grad", "sgd_adam_step", "forward"},
    "resampling": {"bce_loss_and_grad", "sgd_adam_step", "forward"},
    "domain_ind": {"bce_loss_and_grad", "sgd_adam_step", "forward"},
    "cfair": {"cfair_loss_and_grad", "sgd_adam_step", "forward"},
    "jtt": {"bce_loss_and_grad", "sgd_adam_step", "forward"},
}


@pytest.mark.parametrize("method", TestDeterminism.CASES)
def test_trainers_reach_patched_nnet_functions(
    method, monkeypatch, small_train, val_a, train_a, train_ay, pin_jtt_grid
):
    pin_jtt_grid(1, 5.0)
    calls = {}
    for name in set().union(*NNET_USES.values()):
        original = getattr(nnet, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(nnet, name, counted)
    fit_one(method, small_train, val_a, train_a, train_ay, epochs=1)
    assert set(calls) == NNET_USES[method]


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field,value,error",
        [
            ("epochs", 2.0, InvalidConfig),
            # manifest.json cannot hold a numpy integer
            ("epochs", np.int64(2), InvalidConfig),
            ("lr", float("nan"), OutOfRange),
            ("lr_decay_factor", 0.0, OutOfRange),
            ("lr_decay_factor", -0.1, OutOfRange),
            ("weight_decay", -1e-4, OutOfRange),
            ("weight_decay", float("nan"), OutOfRange),
            ("lr_decay_epoch", -1, OutOfRange),
            ("lr", float("inf"), OutOfRange),
            ("gdro_eta", float("nan"), OutOfRange),
            ("gdro_eta", -0.01, OutOfRange),
            ("gdro_size_adjust", float("-inf"), OutOfRange),
            ("cfair_mu", -5.0, OutOfRange),
        ],
    )
    def test_rejects_out_of_range_field(self, field, value, error):
        with pytest.raises(error, match=field):
            TrainConfig(**{field: value})

    def test_boundary_values_accepted(self):
        cfg = TrainConfig(
            weight_decay=0.0, lr_decay_epoch=0, epochs=2,
            gdro_eta=0.0, gdro_size_adjust=0.0, cfair_mu=0.0,
        )
        assert cfg.epochs == 2


class TestErm:
    def test_history_length_and_scores(self, small_train):
        cfg = TrainConfig(epochs=4)
        model = train_erm(small_train, cfg, 1)
        assert len(model.history) == 4
        scores = model.predict_scores(small_train.features[:10])
        assert scores.shape == (10,)
        assert np.all((scores > 0) & (scores < 1))

    def test_no_shortcut_means_no_generalization_drop(self):
        """With the shortcut block silenced there is nothing spurious to learn."""
        tr, va = make_splits(FeatureConfig(mu_a=0.0), 4000, 1000, 0.95, 0.8, seed=5)
        te = make_test_split(FeatureConfig(mu_a=0.0), 2000, seed=5)
        model = train_erm(tr, TrainConfig(), 0)
        gap = auc(model.predict_scores(va.features), va.y) - auc(
            model.predict_scores(te.features), te.y
        )
        assert gap < 0.02


@pytest.mark.parametrize("method", ("gdro", "resampling", "domain_ind", "cfair"))
def test_rejects_empty_group(method, small_train):
    bad = hand_grouped(small_train, np.zeros(len(small_train.y), dtype=np.int64), 2)
    with pytest.raises(EmptyGroup, match="group 1 has no training samples"):
        train(method, bad, TrainConfig(epochs=1), 0)


@pytest.mark.parametrize("method", METHODS)
def test_exactly_the_group_counting_methods_refuse_an_empty_train_group(method, p_train, val_a, pin_jtt_grid):
    """NEEDS_TRAIN_GROUPS, which the sweep's empty-group warning reads, names the trainers that refuse."""
    pin_jtt_grid(1, 5.0)
    tiny = sample_dataset(p_train, 3, FeatureConfig(d_y=2, d_a=2, d_s=2), seed=2)
    tiny = annotate_samples(tiny, GroupingScheme("Random"), seed=0)
    assert np.bincount(tiny.group, minlength=4).tolist() == [1, 1, 1, 0]
    if method in NEEDS_TRAIN_GROUPS:
        with pytest.raises(EmptyGroup, match="^group 3 has no training samples$"):
            train(method, tiny, TrainConfig(epochs=1), 0, val=val_a)
    else:
        with warnings.catch_warnings():  # three rows may leave JTT's stage 1 without an error
            warnings.filterwarnings("ignore", "stage-1 model makes no training errors")
            model = train(method, tiny, TrainConfig(epochs=1), 0, val=val_a)
        assert len(model.history) == 1


@pytest.mark.parametrize("method", NEEDS_Y_FREE)
def test_y_based_scheme_refusal_names_the_method(method, train_ay):
    """The trainers refuse an annotated split through the rule run_sweep applies, with its message."""
    with pytest.raises(YBasedGrouping, match=f"^{method} needs y-free groups, but AY groups are a function of y$"):
        train(method, train_ay, TrainConfig(epochs=1), 0)


@pytest.mark.parametrize("method", ("gdro", "resampling", "domain_ind", "cfair"))
def test_refuses_groups_no_scheme_drew(method, train_a):
    """Groups come only from a scheme: ids without one are refused, whatever they hold."""
    unnamed = replace(train_a, group_scheme=None)
    with pytest.raises(InvalidScheme, match="^dataset carries no grouping scheme; annotate it first$"):
        train(method, unnamed, TrainConfig(epochs=1), 0)


class TestGdro:
    def test_weights_stay_on_simplex(self, train_ay):
        model = train_gdro(train_ay, TrainConfig(epochs=5), 0)
        for row in model.history:
            q = row["group_weights"]
            assert np.all(q >= 0)
            assert abs(q.sum() - 1.0) < 1e-10

    def test_group_weights_are_the_epoch_mean_of_each_steps_q(self, train_ay, monkeypatch):
        """Each step reports a copy of q after its update; the row holds their mean, not the last q."""
        seen = []
        real_fit = mitigation._fit

        def recording_fit(dataset, cfg, seed, step, **kwargs):
            def recorded(params, batch):
                report, grads = step(params, batch)
                seen.append(report["group_weights"])
                return report, grads

            return real_fit(dataset, cfg, seed, recorded, **kwargs)

        monkeypatch.setattr(mitigation, "_fit", recording_fit)
        model = train_gdro(train_ay, TrainConfig(epochs=2), 0)
        per_epoch = len(seen) // 2
        for epoch, row in enumerate(model.history):
            epoch_qs = seen[epoch * per_epoch : (epoch + 1) * per_epoch]
            np.testing.assert_array_equal(row["group_weights"], np.mean(epoch_qs, axis=0))
        assert not np.array_equal(seen[0], seen[per_epoch - 1])  # q moves within an epoch; each report is a copy

    def test_one_forward_per_batch(self, train_ay, monkeypatch):
        """The q-update reads the per-sample losses of the step's own forward."""
        calls = []
        real_forward = nnet.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(nnet, "forward", counted)
        cfg = TrainConfig(epochs=1)
        train_gdro(train_ay, cfg, 0)
        assert len(calls) == -(-len(train_ay.y) // cfg.batch_size)

    def test_large_eta_keeps_weights_finite(self, train_ay):
        """eta * loss far above 709 would overflow exp on q itself; the update runs on log q."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_gdro(train_ay, TrainConfig(epochs=2, gdro_eta=1000.0), 0)
        for row in model.history:
            q = row["group_weights"]
            assert np.all(np.isfinite(q))
            assert abs(q.sum() - 1.0) < 1e-10
        assert np.all(np.isfinite(model.params.flat))

    def test_zero_eta_keeps_uniform_weights(self, train_ay):
        model = train_gdro(train_ay, TrainConfig(epochs=3, gdro_eta=0.0), 0)
        for row in model.history:
            assert np.array_equal(row["group_weights"], np.full(4, 0.25))

    def test_single_group_reduces_to_erm(self, small_train):
        cfg = TrainConfig(epochs=4)
        assert params_equal(
            train_gdro(single_group(small_train), cfg, 0).params,
            train_erm(small_train, cfg, 0).params,
        )

    def test_weight_drifts_toward_conflicting_groups(self):
        """At realistic scale the bias-conflicting pairs accumulate weight."""
        tr, _ = make_splits(FeatureConfig(), 8000, 10, 0.95, 0.8, seed=0)
        ds = annotate_samples(tr, GroupingScheme("AY"), seed=0)
        model = train_gdro(ds, TrainConfig(), 0)
        q = model.history[-1]["group_weights"]
        assert q[1] + q[2] > 0.5

    def test_requires_annotation(self, small_train):
        with pytest.raises(InvalidScheme):
            train_gdro(small_train, TrainConfig(epochs=1), 0)


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
        )
        ds = hand_grouped(ds, groups, 4)

        seen = np.zeros(4)
        real = nnet.bce_loss_and_grad

        def spy(params, x, y, sample_weights=None, head_ids=None):
            np.add.at(seen, x[:, 0].astype(int), 1.0)
            return real(params, x, y, sample_weights=sample_weights, head_ids=head_ids)

        monkeypatch.setattr(nnet, "bce_loss_and_grad", spy)
        train_resampling(ds, TrainConfig(epochs=1000, batch_size=64, hidden=4), 1)
        freq = seen / seen.sum()
        assert seen.sum() == 64 * 10_000
        assert np.all(np.abs(freq - 0.25) < 0.01)

    @pytest.mark.parametrize("k", (1, 2, 4, 8))
    def test_batches_match_a_per_group_draw_bit_for_bit(self, k, small_train, monkeypatch):
        """A batch is one draw, taken group by group and in slot order inside
        each group: its rows and the generator's final state are those of a
        loop that draws each group's slots in turn. Group k - 1 has one row."""
        groups = np.random.default_rng(k).integers(0, max(k - 1, 1), size=len(small_train.y))
        groups[0] = k - 1
        monkeypatch.setattr(mitigation, "_fit", lambda dataset, cfg, seed, step, batches: batches)
        batches = train_resampling(hand_grouped(small_train, groups, k), TrainConfig(batch_size=100), 0)
        by_group = [np.flatnonzero(groups == g) for g in range(k)]
        drawn, ref = np.random.default_rng(7), np.random.default_rng(7)
        n_batches = 0
        for _ in range(2):  # two epochs
            for batch in batches(drawn):
                picks = ref.integers(0, k, size=100)
                want = np.empty(100, dtype=int)
                for g in range(k):
                    mask = picks == g
                    if mask.any():
                        want[mask] = by_group[g][ref.integers(0, len(by_group[g]), size=mask.sum())]
                np.testing.assert_array_equal(batch, want)
                n_batches += 1
        assert n_batches == 2 * 12
        assert drawn.bit_generator.state == ref.bit_generator.state

    def test_single_group_runs(self, small_train):
        model = train_resampling(single_group(small_train), TrainConfig(epochs=2), 0)
        assert len(model.history) == 2


class TestDomainInd:
    def test_rejects_label_based_grouping(self, train_ay):
        with pytest.raises(YBasedGrouping):
            train_domain_ind(train_ay, TrainConfig(epochs=1), 0)

    def test_one_head_reduces_to_erm(self, small_train):
        cfg = TrainConfig(epochs=4)
        assert params_equal(
            train_domain_ind(single_group(small_train), cfg, 0).params,
            train_erm(small_train, cfg, 0).params,
        )

    def test_rejects_unknown_inference_rule(self):
        # scores always come from the head with the largest |logit|; no rule is configurable
        with pytest.raises(TypeError, match="domain_ind_rule"):
            TrainConfig(epochs=1, domain_ind_rule="vote")

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
        max_abs = TrainedModel(params=params, history=())
        special = pytest.importorskip("scipy.special")

        assert max_abs.predict_scores(x)[0] == pytest.approx(special.expit(-3.0))


class TestPredictScores:
    """Full-split scoring runs in 1024-row blocks."""

    @pytest.mark.parametrize("n", (1, 1023, 1024, 1025, 2500))
    @pytest.mark.parametrize("n_heads", (1, 3), ids=("one-head", "max_abs"))
    def test_blocks_match_one_unblocked_forward(self, rng, n, n_heads):
        params = nnet.init_params(15, hidden=16, n_heads=n_heads, seed=1)
        params.flat[:] += rng.normal(size=params.flat.shape)  # spread the logits
        x = rng.normal(size=(n, 15))
        model = TrainedModel(params=params, history=())
        logits, _ = nnet.forward(params, x)
        logits = logits[np.arange(n), np.argmax(np.abs(logits), axis=1)]
        np.testing.assert_array_equal(model.predict_scores(x), nnet.expit(logits))

    def test_overflow_raises_no_warning(self):
        """Scoring silences overflow, as _fit does."""
        params = nnet.init_params(15, hidden=16, seed=0)
        params.flat[:] = 1e308  # the first layer's sums overflow to inf
        model = TrainedModel(params=params, history=())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = model.predict_scores(np.ones((4, 15)))
        np.testing.assert_array_equal(scores, 1.0)

    def test_peak_memory_is_bounded(self, rng):
        """Scoring holds the [n] score vector and one block's activations,
        never an [n, hidden] activation of the whole split."""
        x = rng.normal(size=(200_000, 15))
        model = TrainedModel(params=nnet.init_params(15, hidden=16, seed=0), history=())
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
        cfg = TrainConfig(epochs=5, cfair_mu=0.0)
        cf = train_cfair(train_a, cfg, 0)
        erm = train_erm(small_train, cfg, 0)
        assert params_equal(cf.params, erm.params)

    def test_rejects_label_based_grouping(self, train_ay):
        with pytest.raises(YBasedGrouping):
            train_cfair(train_ay, TrainConfig(epochs=1), 0)

    def test_rejects_single_group(self, small_train):
        with pytest.raises(InvalidScheme):
            train_cfair(single_group(small_train), TrainConfig(epochs=1), 0)

    def test_reversal_holds_adversary_near_chance(self):
        """Unopposed (mu=0) the group adversary learns; reversal stops it."""
        cfg = FeatureConfig(d_y=3, d_a=1, d_s=1, mu_y=1.0, mu_a=1.0, mu_s=0.5)
        ds = sample_dataset(uniform_distribution(), 4000, cfg, seed=2)
        ds = annotate_samples(ds, GroupingScheme("A"), seed=0)
        free = train_cfair(ds, TrainConfig(epochs=40, hidden=4, cfair_mu=0.0), 0)
        fought = train_cfair(ds, TrainConfig(epochs=40, hidden=4, cfair_mu=3.0), 0)
        free_final = free.history[-1]["adversary_loss"]
        fought_final = fought.history[-1]["adversary_loss"]
        assert free.history[0]["adversary_loss"] - free_final > 0.02
        assert fought_final > free_final + 0.02

    def test_history_tracks_adversary(self, train_a):
        model = train_cfair(train_a, TrainConfig(epochs=2), 0)
        assert all("adversary_loss" in row for row in model.history)


class TestJtt:
    def test_unit_upweight_equals_erm(self, small_train, val_a, pin_jtt_grid):
        pin_jtt_grid(1, 1.0)
        cfg = TrainConfig(epochs=5)
        jt = train_jtt(small_train, val_a, cfg, 0)
        erm = train_erm(small_train, cfg, 0)
        assert params_equal(jt.params, erm.params)

    def test_warns_on_empty_error_set(self, p_train, pin_jtt_grid):
        easy = FeatureConfig(mu_y=6.0, mu_a=0.5, mu_s=0.5, noise_sd=0.5)
        ds = sample_dataset(p_train, 512, easy, seed=3)
        val = annotate_samples(sample_dataset(p_train, 256, easy, seed=4), GroupingScheme("A"), seed=0)
        pin_jtt_grid(2, 5.0)
        cfg = TrainConfig(epochs=6)
        with pytest.warns(UserWarning, match="no training errors"):
            model = train_jtt(ds, val, cfg, 0)
        assert model.info["n_upweighted"] == 0

    def test_grid_selection_reports_choice(self, small_train, val_a):
        model = train_jtt(small_train, val_a, TrainConfig(epochs=3), 0)
        assert model.info["stage1_epochs"] in JTT_STAGE1_GRID
        assert model.info["upweight"] in JTT_UPWEIGHT_GRID
        assert len(model.history) == 3

    @pytest.mark.parametrize("absent", (True, False), ids=("absent_groups", "scheme_groups"))
    def test_selects_the_candidate_a_reference_ranks_best(
        self, small_train, small_val, absent, pin_jtt_grid
    ):
        """The val split holds groups 0 (bias-aligned) and 2 (bias-conflicting)
        of a declared 4, or the four groups scheme AY draws. The reference
        ranks candidates by their worst present group's accuracy."""
        if absent:
            val = hand_grouped(small_val, 2 * (small_val.a != small_val.y).astype(np.int64), 4)
        else:
            val = annotate_samples(small_val, GroupingScheme("AY"), seed=0)

        def accuracy(scores, labels):
            return float(((scores >= 0.5).astype(int) == labels).mean())

        def reference_score(model):
            scores = model.predict_scores(val.features)
            return min(accuracy(scores[val.group == g], val.y[val.group == g]) for g in set(val.group.tolist()))

        cfg = TrainConfig(epochs=3, lr=0.01)
        chosen = train_jtt(small_train, val, cfg, 0)
        candidates = []
        for s1 in JTT_STAGE1_GRID:
            for lam in JTT_UPWEIGHT_GRID:
                pin_jtt_grid(s1, lam)
                candidates.append(train_jtt(small_train, val, cfg, 0))
        ranked = [reference_score(c) for c in candidates]
        best = candidates[ranked.index(max(ranked))]  # the first of any tie, as the grid search keeps
        assert chosen.info == best.info
        assert params_equal(chosen.params, best.params)

    def test_divergence_names_the_run_that_diverged(self, small_train, val_a, pin_jtt_grid):
        """At lr 1e300 stage one diverges; at upweight 1e308 only the stage-two run does.
        The suffix keeps _fit's message first, so the diverged epoch still leads."""
        with pytest.raises(DegenerateInput, match=r"^training diverged in epoch 1 of 1: .* \(jtt stage 1, 1 epoch\)$"):
            train_jtt(small_train, val_a, TrainConfig(epochs=2, lr=1e300), 0)
        pin_jtt_grid(2, 1e308)
        stage2 = r"^training diverged in epoch 1 of 2: .* \(jtt stage 2, stage-1 epochs 2, upweight 1e\+308\)$"
        with pytest.raises(DegenerateInput, match=stage2):
            train_jtt(small_train, val_a, TrainConfig(epochs=2), 0)

    def test_refuses_a_val_split_no_scheme_annotated(self, small_train, small_val, val_a):
        """JTT selects by worst group, so its val split needs a scheme's groups."""
        for val in (small_val, replace(val_a, group_scheme=None)):
            with pytest.raises(InvalidScheme, match="annotate its validation split first"):
                train_jtt(small_train, val, TrainConfig(epochs=1), 0)

    def test_dispatcher_requires_val(self, small_train):
        with pytest.raises(InvalidScheme):
            train("jtt", small_train, TrainConfig(epochs=1), 0)

    def test_dispatcher_rejects_unknown_method(self, small_train):
        with pytest.raises(InvalidScheme):
            train("boosting", small_train, TrainConfig(epochs=1), 0)
