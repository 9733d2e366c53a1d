import math
import warnings

import numpy as np
import pytest

from subshift.dist_core import biased_distribution
from subshift.errors import DimensionMismatch
from subshift.mitigation import TrainConfig, train
from subshift.nnet import (
    BLOCK_ROWS,
    ModelParams,
    bce_loss_and_grad,
    cfair_loss_and_grad,
    expit,
    forward,
    init_params,
    row_blocks,
    sgd_adam_step,
)
from subshift.synth_data import FeatureConfig, sample_dataset

from finite_differences import central_differences

PARAM_FIELDS = ("w1", "b1", "w_heads", "b_heads", "w_adv", "b_adv")


def zeros_like(params):
    return params.like(np.zeros_like(params.flat))


def sample_losses_seen(params, x, y, head_ids=None):
    """The per-sample BCE that bce_loss_and_grad hands a weights function."""
    seen = []

    def record(sample_loss):
        seen.append(sample_loss.copy())
        return np.ones_like(sample_loss)

    bce_loss_and_grad(params, x, y, sample_weights=record, head_ids=head_ids)
    assert len(seen) == 1
    return seen[0]


def blocks_of(params):
    return [f for f in PARAM_FIELDS if getattr(params, f) is not None]


def reference_adam_step(params, grads, m, v, t, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """Block-by-block Adam with decoupled weight decay, the reference the flat
    update must match bit for bit. Arguments are dicts of blocks."""
    t += 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    new_p, new_m, new_v = {}, {}, {}
    for f in params:
        new_m[f] = beta1 * m[f] + (1.0 - beta1) * grads[f]
        new_v[f] = beta2 * v[f] + (1.0 - beta2) * grads[f] ** 2
        step = lr * (new_m[f] / bc1) / (np.sqrt(new_v[f] / bc2) + eps)
        new_p[f] = params[f] - step - lr * weight_decay * params[f]
    return new_p, new_m, new_v, t


def random_batch(rng, dim, batch, n_groups=4):
    x = rng.normal(size=(batch, dim))
    y = rng.integers(0, 2, size=batch)
    g = rng.integers(0, n_groups, size=batch)
    g[:n_groups] = np.arange(n_groups)  # every group present
    y[:2] = [0, 1]
    return x, y, g


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        params = zeros_like(init_params(3, hidden=4, seed=0))
        logits, hidden = forward(params, np.ones((5, 3)))
        assert np.all(logits == 0.0)
        assert np.all(hidden == 0.0)

    def test_hand_computed_two_by_two(self):
        # identity encoder, sum head: logit = tanh(x0) + tanh(x1)
        params = ModelParams(
            w1=np.eye(2),
            b1=np.zeros(2),
            w_heads=np.array([[1.0, 1.0]]),
            b_heads=np.zeros(1),
        )
        logits, hidden = forward(params, np.array([[0.5, -0.25]]))
        assert hidden[0, 0] == pytest.approx(math.tanh(0.5), abs=1e-15)
        assert hidden[0, 1] == pytest.approx(math.tanh(-0.25), abs=1e-15)
        assert logits[0] == pytest.approx(math.tanh(0.5) + math.tanh(-0.25), abs=1e-15)

    def test_identical_inputs_identical_logits(self, rng):
        params = init_params(4, hidden=6, seed=3)
        x = rng.normal(size=4)
        la, _ = forward(params, np.stack([x, x]))
        assert la[0] == la[1]

    def test_multi_head_shape(self):
        params = init_params(3, hidden=4, n_heads=5, seed=1)
        logits, hidden = forward(params, np.zeros((7, 3)))
        assert logits.shape == (7, 5)
        assert hidden.shape == (7, 4)

    def test_rejects_wrong_feature_count(self):
        params = init_params(3, hidden=4, seed=0)
        with pytest.raises(DimensionMismatch):
            forward(params, np.zeros((2, 5)))

    @pytest.mark.parametrize("n_heads", [1, 3])
    def test_matches_reference_expression_bit_for_bit(self, rng, n_heads):
        """The in-place hidden layer equals tanh(x @ w1 + b1) exactly, and the
        logits equal the head expression on it; nonzero biases make the order
        of the bias add and the tanh matter."""
        params = init_params(6, hidden=5, n_heads=n_heads, seed=2)
        params.flat[:] = rng.normal(size=params.flat.size)
        x = rng.normal(size=(9, 6))
        logits, hidden = forward(params, x)
        ref_hidden = np.tanh(x @ params.w1 + params.b1)
        ref_logits = ref_hidden @ params.w_heads.T + params.b_heads
        assert np.array_equal(hidden, ref_hidden)
        assert np.array_equal(logits, ref_logits)

    def test_leaves_inputs_and_params_unchanged(self, rng):
        params = init_params(4, hidden=3, n_heads=2, adv_groups=2, seed=5)
        params.flat[:] = rng.normal(size=params.flat.size)
        x = rng.normal(size=(6, 4))
        x_before, flat_before = x.copy(), params.flat.copy()
        forward(params, x)
        assert np.array_equal(x, x_before)
        assert np.array_equal(params.flat, flat_before)


class TestRowBlocks:
    @pytest.mark.parametrize(
        "n,blocks",
        [
            (0, []),
            (1, [(0, 1)]),
            (BLOCK_ROWS, [(0, BLOCK_ROWS)]),
            (BLOCK_ROWS + 1, [(0, BLOCK_ROWS + 1)]),
            (BLOCK_ROWS + 2, [(0, BLOCK_ROWS), (BLOCK_ROWS, BLOCK_ROWS + 2)]),
            (2 * BLOCK_ROWS + 1, [(0, BLOCK_ROWS), (BLOCK_ROWS, 2 * BLOCK_ROWS + 1)]),
        ],
        ids=["empty", "one_row", "one_block", "lone_last_row", "two_last_rows", "lone_row_after_two_blocks"],
    )
    def test_blocks_start_on_multiples_and_a_lone_last_row_joins_the_block_before(self, n, blocks):
        assert list(row_blocks(n)) == blocks


class TestExpit:
    def test_saturates_exactly_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expit(np.array([-800.0, 0.0, 800.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_within_four_ulp_of_scipy(self):
        # Both evaluate 1 / (1 + exp(-z)), each with an exp within 1 ulp of
        # exact (numpy's vectorised one, libm's for scipy) and its own
        # rounding of the sum and the quotient: 4 ulp bounds the difference.
        special = pytest.importorskip("scipy.special")
        z = np.linspace(-700.0, 700.0, 100_001)
        np.testing.assert_array_max_ulp(expit(z), special.expit(z), maxulp=4)


class TestBceLoss:
    def test_zero_logit_gives_ln2(self):
        params = zeros_like(init_params(3, hidden=4, seed=0))
        loss, _ = bce_loss_and_grad(params, np.ones((4, 3)), np.array([1, 1, 0, 1]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_doubling_weights_doubles_loss_and_grads(self, rng):
        params = init_params(4, hidden=5, seed=2)
        x, y, _ = random_batch(rng, 4, 8)
        w = rng.uniform(0.5, 2.0, size=8)
        loss1, g1 = bce_loss_and_grad(params, x, y, sample_weights=w)
        loss2, g2 = bce_loss_and_grad(params, x, y, sample_weights=2.0 * w)
        assert loss2 == 2.0 * loss1
        for f in PARAM_FIELDS[:4]:
            assert np.array_equal(getattr(g2, f), 2.0 * getattr(g1, f))

    def test_per_sample_losses_match_formula(self, rng):
        params = init_params(3, hidden=4, seed=5)
        x, y, _ = random_batch(rng, 3, 6)
        logits = forward(params, x)[0][:, 0]
        want = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0) - y * logits
        assert np.allclose(sample_losses_seen(params, x, y), want, atol=1e-12)

    def test_mean_of_per_sample_losses_is_unweighted_loss(self, rng):
        params = init_params(3, hidden=4, seed=6)
        x, y, _ = random_batch(rng, 3, 10)
        loss, _ = bce_loss_and_grad(params, x, y)
        assert loss == pytest.approx(float(sample_losses_seen(params, x, y).mean()), abs=1e-15)

    @pytest.mark.parametrize("n_heads", [1, 3], ids=["single_head", "routed"])
    def test_weights_function_sees_per_sample_bce(self, rng, n_heads):
        """A weights function receives each sample's BCE on its own head's
        logit; weighting by ones reproduces the unweighted call bit for bit."""
        params = init_params(3, hidden=4, n_heads=n_heads, seed=5)
        x, y, g = random_batch(rng, 3, 8, n_groups=n_heads)
        head_ids = g if n_heads > 1 else None
        seen = []

        def ones(sample_loss):
            seen.append(sample_loss.copy())
            return np.ones_like(sample_loss)

        loss, grads = bce_loss_and_grad(params, x, y, sample_weights=ones, head_ids=head_ids)
        logits, _ = forward(params, x)
        z = logits[np.arange(8), g]
        want = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0) - y * z
        assert len(seen) == 1
        assert np.allclose(seen[0], want, atol=1e-12)
        plain_loss, plain = bce_loss_and_grad(params, x, y, head_ids=head_ids)
        assert loss == plain_loss == pytest.approx(float(want.mean()), abs=1e-15)
        assert np.array_equal(grads.flat, plain.flat)

    def test_multi_head_requires_routing(self):
        params = init_params(3, hidden=4, n_heads=2, seed=0)
        with pytest.raises(DimensionMismatch):
            bce_loss_and_grad(params, np.zeros((2, 3)), np.array([0, 1]))


class TestCentralDifferences:
    """The suite's gradient oracle, which criterion 5 and TestGradReversal trust."""

    def test_exact_on_a_quadratic(self, rng):
        params = init_params(4, hidden=5, seed=3)
        c, d = rng.uniform(0.5, 2.0, size=params.w1.shape), rng.normal(size=params.w1.shape)
        fd = central_differences(params, "w1", lambda: float(np.sum(c * params.w1**2 + d * params.w1)))
        assert np.allclose(fd, 2 * c * params.w1 + d, rtol=0, atol=1e-8)

    def test_leaves_every_block_bit_identical(self, rng):
        params = init_params(4, hidden=5, adv_groups=3, seed=5)
        x, y, g = random_batch(rng, 4, 12, n_groups=3)
        before = params.flat.copy()
        for field in blocks_of(params):
            central_differences(params, field, lambda: cfair_loss_and_grad(params, x, y, g, mu=0.1)[0])
        assert np.array_equal(params.flat, before)


class TestGradientChecks:
    """Gradient properties that criterion 5's finite differences do not reach."""

    def test_permutation_invariance(self, rng):
        params = init_params(4, hidden=5, n_heads=4, seed=9)
        x, y, g = random_batch(rng, 4, 12)
        w = rng.uniform(0.5, 1.5, size=12)
        perm = rng.permutation(12)
        loss_a, grads_a = bce_loss_and_grad(params, x, y, sample_weights=w, head_ids=g)
        loss_b, grads_b = bce_loss_and_grad(
            params, x[perm], y[perm], sample_weights=w[perm], head_ids=g[perm]
        )
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        for f in PARAM_FIELDS[:4]:
            assert np.allclose(getattr(grads_a, f), getattr(grads_b, f), rtol=1e-12, atol=1e-15)


class TestGradReversal:
    def test_mu_zero_matches_plain_bce(self, rng):
        params = init_params(4, hidden=5, adv_groups=3, seed=11)
        x, y, g = random_batch(rng, 4, 10, n_groups=3)
        bce, _, grads = cfair_loss_and_grad(params, x, y, g, mu=0.0)
        plain_loss, plain = bce_loss_and_grad(params, x, y)
        assert bce == pytest.approx(plain_loss, abs=1e-15)
        for f in PARAM_FIELDS[:4]:
            assert np.array_equal(getattr(grads, f), getattr(plain, f))

    def test_composite_sign_via_finite_differences(self, rng):
        """Larger mu pushes the encoder gradient against the adversary's."""
        params = init_params(4, hidden=5, adv_groups=3, seed=13)
        x, y, g = random_batch(rng, 4, 12, n_groups=3)
        _, _, g_lo = cfair_loss_and_grad(params, x, y, g, mu=0.0)
        _, _, g_hi = cfair_loss_and_grad(params, x, y, g, mu=0.5)
        adv_part = (g_hi.w1 - g_lo.w1) / 0.5

        fd = central_differences(params, "w1", lambda: cfair_loss_and_grad(params, x, y, g, mu=0.0)[1])
        assert np.linalg.norm(adv_part + fd) <= 1e-4 * np.linalg.norm(fd)

    def test_rejects_model_without_adversary(self):
        params = init_params(3, hidden=4, seed=0)
        with pytest.raises(DimensionMismatch):
            cfair_loss_and_grad(params, np.zeros((2, 3)), [0, 1], [0, 1], mu=0.1)


def zero_moments(params):
    return np.zeros_like(params.flat), np.zeros_like(params.flat)


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        params = init_params(3, hidden=4, seed=0)
        before = params.flat.copy()
        sgd_adam_step(params, zeros_like(params), zero_moments(params), 1, lr=0.1, weight_decay=0.0)
        assert np.array_equal(params.flat, before)

    def test_weight_decay_is_decoupled(self):
        params = init_params(3, hidden=4, seed=0)
        w1 = params.w1.copy()
        sgd_adam_step(params, zeros_like(params), zero_moments(params), 1, lr=0.1, weight_decay=0.5)
        assert np.allclose(params.w1, w1 * (1.0 - 0.1 * 0.5), atol=1e-15)

    def test_quadratic_converges(self):
        """min 0.5*||p||^2: gradient is p itself."""
        params = init_params(2, hidden=3, seed=4)
        moments = zero_moments(params)
        for t in range(1, 501):
            sgd_adam_step(params, params.like(params.flat.copy()), moments, t, lr=0.01, weight_decay=0.0)
        for f in PARAM_FIELDS[:4]:
            assert np.all(np.abs(getattr(params, f)) < 1e-3)

    def test_bitwise_deterministic(self, rng):
        x, y, _ = random_batch(rng, 3, 8)

        def run():
            params = init_params(3, hidden=4, seed=7)
            moments = zero_moments(params)
            for t in range(1, 21):
                _, grads = bce_loss_and_grad(params, x, y)
                sgd_adam_step(params, grads, moments, t, lr=1e-3, weight_decay=1e-4)
            return params

        a, b = run(), run()
        for f in PARAM_FIELDS[:4]:
            assert np.array_equal(getattr(a, f), getattr(b, f))

    def test_loss_decreases_after_warmup(self):
        """Separable toy set, full batch, small lr: monotone past warmup."""
        rng = np.random.default_rng(21)
        x = np.concatenate([rng.normal(-2.0, 0.5, size=(40, 2)), rng.normal(2.0, 0.5, size=(40, 2))])
        y = np.repeat([0, 1], 40)
        params = init_params(2, hidden=4, seed=1)
        moments = zero_moments(params)
        losses = []
        for t in range(1, 201):
            loss, grads = bce_loss_and_grad(params, x, y)
            losses.append(loss)
            sgd_adam_step(params, grads, moments, t, lr=0.01, weight_decay=0.0)
        for k in range(50, len(losses)):
            assert losses[k] <= losses[k - 1] + 1e-6
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize(
        "shape", [{"n_heads": 3}, {"adv_groups": 3}], ids=["multi_head", "adversary"]
    )
    def test_flat_step_equals_blockwise_reference(self, shape):
        """50 steps with random gradients, learning rates and weight decay:
        the in-place flat update must equal the per-block one bit for bit."""
        rng = np.random.default_rng(31)
        params = init_params(5, hidden=6, seed=3, **shape)
        moments = zero_moments(params)
        fields = blocks_of(params)
        ref_p = {f: getattr(params, f).copy() for f in fields}
        ref_m = {f: np.zeros_like(ref_p[f]) for f in fields}
        ref_v = {f: np.zeros_like(ref_p[f]) for f in fields}
        t = 0
        for _ in range(50):
            grads = zeros_like(params)
            grads.flat[:] = rng.normal(size=grads.flat.size) * 10.0 ** rng.uniform(-4, 1)
            lr = float(rng.choice([1e-3, 1e-4, 0.05]))
            wd = float(rng.choice([0.0, 1e-4, 0.3]))
            sgd_adam_step(params, grads, moments, t + 1, lr, weight_decay=wd)
            ref_p, ref_m, ref_v, t = reference_adam_step(
                ref_p, {f: getattr(grads, f) for f in fields}, ref_m, ref_v, t, lr, wd
            )
            m, v = params.like(moments[0]), params.like(moments[1])
            for f in fields:
                assert np.array_equal(getattr(params, f), ref_p[f]), f
                assert np.array_equal(getattr(m, f), ref_m[f]), f
                assert np.array_equal(getattr(v, f), ref_v[f]), f

    def test_trained_models_do_not_share_params(self):
        """Adam updates in place, so each fit must own its parameter vector."""
        data = sample_dataset(biased_distribution(0.95, 0.8), 64, FeatureConfig(d_y=1, d_a=1, d_s=1), seed=0)
        cfg = TrainConfig(epochs=1)
        a, b = train("erm", data, cfg, 0), train("erm", data, cfg, 0)
        assert not np.shares_memory(a.params.flat, b.params.flat)
        assert np.array_equal(a.params.flat, b.params.flat)


class TestFlatLayout:
    def test_blocks_are_views_into_one_vector(self):
        params = init_params(4, hidden=5, n_heads=2, adv_groups=3, seed=0)
        fields = blocks_of(params)
        assert fields == list(PARAM_FIELDS)
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert params.flat.size == sum(getattr(params, f).size for f in fields)
        for f in fields:
            assert np.shares_memory(getattr(params, f), params.flat), f
        params.b_heads[1] = 7.5
        assert params.flat[4 * 5 + 5 + 2 * 5 + 1] == 7.5

    def test_constructor_keeps_shapes_and_values(self, rng):
        blocks = {"w1": rng.normal(size=(3, 2)), "b1": rng.normal(size=2),
                  "w_heads": rng.normal(size=(1, 2)), "b_heads": rng.normal(size=1)}
        params = ModelParams(**blocks)
        assert params.w_adv is None and params.b_adv is None
        for f, a in blocks.items():
            assert getattr(params, f).shape == a.shape
            assert np.array_equal(getattr(params, f), a)
        assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in blocks.values()]))

    def test_like_rebinds_the_layout_without_copying(self):
        params = init_params(3, hidden=4, adv_groups=2, seed=1)
        buf = np.zeros_like(params.flat)
        other = params.like(buf)
        assert other.flat is buf
        other.w_adv[...] = 1.0
        assert buf.sum() == other.w_adv.size
        for f in PARAM_FIELDS:
            assert getattr(other, f).shape == getattr(params, f).shape

    def test_gradients_share_the_layout(self, rng):
        params = init_params(4, hidden=5, adv_groups=3, seed=2)
        x, y, g = random_batch(rng, 4, 10, n_groups=3)
        _, plain = bce_loss_and_grad(params, x, y)
        _, _, adv = cfair_loss_and_grad(params, x, y, g, mu=0.1)
        for grads in (plain, adv):
            assert grads.flat.shape == params.flat.shape
            for f in PARAM_FIELDS:
                assert np.shares_memory(getattr(grads, f), grads.flat), f
        assert np.all(plain.w_adv == 0.0) and np.all(plain.b_adv == 0.0)
