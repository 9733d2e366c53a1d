import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshift.dist_core import (
    Distribution,
    SoftGrouping,
    biased_distribution,
    group_conditionals,
    kl_divergence,
    reweighted_distribution,
    uniform_distribution,
)
from subshift.errors import (
    InvalidScheme,
    NonNormalizable,
    SupportMismatch,
    TooManyGroups,
)
from subshift.grouping import (
    GroupingScheme,
    annotate_samples,
    atom_grouping,
    model_based_schemes,
    refine,
    reweighting_schemes,
)
from subshift import reweight_opt
from subshift.reweight_opt import (
    brute_force_min_kl,
    min_kl_table,
    optimal_weights,
    resampling_weights,
    table_to_csv,
)
from subshift.synth_data import FeatureConfig, sample_dataset


def reference_brute_force(p_train, grouping, p_target, grid_step):
    """The grid search as first written: one meshgrid block per leading coordinate."""
    k = grouping.k
    n = int(round(1.0 / grid_step))
    r = group_conditionals(p_train, grouping)
    t = p_target.probs
    pos = t > 0.0
    t_pos = t[pos]
    entropy_part = float(np.sum(t_pos * np.log(t_pos)))
    r_pos = r[pos, :]

    def batch_min(weight_block):
        pw = weight_block @ r_pos.T
        with np.errstate(divide="ignore"):
            logs = np.where(pw > 0.0, np.log(np.where(pw > 0.0, pw, 1.0)), -np.inf)
        return float(np.min(entropy_part - logs @ t_pos))

    if k == 1:
        return batch_min(np.array([[1.0]]))
    if k == 2:
        c = np.arange(n + 1, dtype=float)
        return batch_min(np.column_stack([c, n - c]) * grid_step)
    best = np.inf
    for c1 in range(n + 1):
        rem = n - c1
        if k == 3:
            c2 = np.arange(rem + 1, dtype=float)
            block = np.column_stack([np.full_like(c2, c1), c2, rem - c2]) * grid_step
        else:
            g2, g3 = np.meshgrid(np.arange(rem + 1), np.arange(rem + 1), indexing="ij")
            keep = (g2 + g3) <= rem
            c2, c3 = g2[keep].astype(float), g3[keep].astype(float)
            block = np.column_stack([np.full_like(c2, c1), c2, c3, rem - c2 - c3]) * grid_step
        best = min(best, batch_min(block))
    return best


def assert_matches_reference(p_train, grouping, p_target, grid_step):
    val = brute_force_min_kl(p_train, grouping, p_target, grid_step=grid_step)
    ref = reference_brute_force(p_train, grouping, p_target, grid_step)
    assert type(val) is float
    # The same points and arithmetic; at k <= 2 the per-point dot products
    # run through a different BLAS shape and may move by a few ulps.
    if grouping.k >= 3:
        assert val == ref
    else:
        assert abs(val - ref) <= 1e-15


def probe_is_no_better(p_train, grouping, p_target, best_kl, n_probes, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_probes):
        w = rng.dirichlet(np.ones(grouping.k))
        kl = kl_divergence(p_target, reweighted_distribution(p_train, grouping, w))
        assert best_kl <= kl + 1e-9


class TestResamplingWeights:
    def test_k4(self):
        g = atom_grouping(GroupingScheme("AY"))
        assert np.allclose(resampling_weights(g), 0.25)

    def test_k2(self):
        g = atom_grouping(GroupingScheme("Y"))
        assert np.allclose(resampling_weights(g), 0.5)

    def test_weights_are_read_only_arrays(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("AY"))
        for w in (resampling_weights(g), optimal_weights(p_train, g, p_uniform).weights):
            assert type(w) is np.ndarray and w.shape == (4,)
            with pytest.raises(ValueError):
                w[0] = 1.0

    def test_ysa_uniform_weights_give_zero_kl(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("YSA"))
        w = resampling_weights(g)
        assert np.allclose(w, 0.125)
        pw = reweighted_distribution(p_train, g, w)
        assert kl_divergence(p_uniform, pw) == pytest.approx(0.0, abs=1e-12)


class TestOptimalWeights:
    def test_ay_fixture(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("AY"))
        res = optimal_weights(p_train, g, p_uniform)
        assert res.converged
        assert np.allclose(res.weights, 0.25, atol=1e-3)
        assert res.achieved_kl == pytest.approx(0.113, abs=5e-4)
        pw = reweighted_distribution(p_train, g, res.weights)
        expected = [0.136, 0.050, 0.114, 0.200, 0.050, 0.136, 0.200, 0.114]
        assert np.allclose(pw.probs, expected, atol=5e-4)

    def test_y_partition_cannot_improve(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("Y"))
        res = optimal_weights(p_train, g, p_uniform)
        assert res.achieved_kl == pytest.approx(0.527, abs=5e-4)

    def test_noisiest_scheme(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("Noisy_AY_0.50"), p_train)
        res = optimal_weights(p_train, g, p_uniform)
        assert res.achieved_kl == pytest.approx(0.118, abs=5e-3)
        # Certified optimum; equal to AY's because the noise can be reweighted away.
        assert res.gap <= 1e-11
        assert res.achieved_kl == pytest.approx(0.113415290770, abs=1e-9)

    def test_exhausted_iterations_reports_not_converged(self, p_train, p_uniform, monkeypatch):
        g = atom_grouping(GroupingScheme("Noisy_AY_0.25"), p_train)
        monkeypatch.setattr(reweight_opt, "_MAX_ITERS", 1)
        res = optimal_weights(p_train, g, p_uniform)
        assert not res.converged
        assert res.iterations == 1
        assert np.isfinite(res.achieved_kl)
        assert np.isfinite(res.gap) and res.gap > 0.0

    def test_zero_mass_groups_get_exactly_zero_weight(self):
        p = Distribution([0.6, 0.4, 0, 0, 0, 0, 0, 0])
        target = Distribution([0.3, 0.7, 0, 0, 0, 0, 0, 0])
        g = atom_grouping(GroupingScheme("YSA"))
        res = optimal_weights(p, g, target)
        assert res.achieved_kl == pytest.approx(0.0, abs=1e-8)
        assert res.achieved_kl >= 0.0
        assert np.all(res.weights[2:] == 0.0)
        assert res.weights[:2] == pytest.approx([0.3, 0.7], abs=1e-4)
        assert not res.weights.flags.writeable

    @pytest.mark.parametrize("name", ["Y", "YSA"])
    def test_target_outside_training_support_rejected(self, p_uniform, name):
        p = Distribution([0.6, 0.4, 0, 0, 0, 0, 0, 0])
        g = atom_grouping(GroupingScheme(name))
        with pytest.raises(SupportMismatch):
            optimal_weights(p, g, p_uniform)

    def test_weights_stay_strictly_positive_on_active_groups(self, p_train, p_uniform):
        for name in ("AY", "SY", "Random"):
            g = atom_grouping(GroupingScheme(name), p_train)
            res = optimal_weights(p_train, g, p_uniform)
            assert (res.weights > 0).all()


class TestBruteForce:
    def test_ay_matches_reference(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("AY"))
        val = brute_force_min_kl(p_train, g, p_uniform, grid_step=0.005)
        assert val == pytest.approx(0.113, abs=1e-3)

    def test_single_group(self, p_train, p_uniform):
        g = SoftGrouping(np.ones((8, 1)))
        val = brute_force_min_kl(p_train, g, p_uniform, grid_step=0.01)
        assert val == pytest.approx(0.527, abs=5e-4)

    def test_s_partition(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("S"))
        val = brute_force_min_kl(p_train, g, p_uniform, grid_step=0.005)
        assert val == pytest.approx(0.527, abs=1e-3)

    def test_rejects_large_k(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("YSA"))
        with pytest.raises(TooManyGroups):
            brute_force_min_kl(p_train, g, p_uniform)

    @pytest.mark.parametrize("grid_step", [0.01, 0.02])
    @pytest.mark.parametrize(
        "bias", [None, (0.55, 0.99), (0.99, 0.55)], ids=["default", "0.55-0.99", "0.99-0.55"]
    )
    def test_matches_reference_on_grid_schemes(self, p_train, p_uniform, bias, grid_step):
        p = p_train if bias is None else biased_distribution(*bias)
        schemes = {s.name: s for s in reweighting_schemes() + model_based_schemes()}
        assert len(schemes) == 23
        seen = set()
        for scheme in schemes.values():
            g = atom_grouping(scheme, p)
            if g.k > 4:
                continue
            seen.add(g.k)
            assert_matches_reference(p, g, p_uniform, grid_step)
        assert seen == {2, 4}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_reference_on_soft_groupings(self, k):
        rng = np.random.default_rng(k)
        for _ in range(5):
            p = Distribution(rng.dirichlet(np.ones(8)))
            target = Distribution(rng.dirichlet(np.ones(8)))
            g = SoftGrouping(rng.dirichlet(np.ones(k), size=8))
            for grid_step in (0.02, 0.3):
                assert_matches_reference(p, g, target, grid_step)

    def test_target_mass_outside_every_group_gives_inf(self, p_uniform):
        p = Distribution([0.5, 0.5, 0, 0, 0, 0, 0, 0])
        g = atom_grouping(GroupingScheme("AY"))
        assert brute_force_min_kl(p, g, p_uniform, grid_step=0.1) == np.inf

    def test_peak_memory_is_bounded(self, p_train, p_uniform):
        """The k = 4 search at step 0.005 visits 1,373,701 points through
        1024-row buffers; the 20,301-point middle-coordinate table is the
        largest array it holds."""
        g = atom_grouping(GroupingScheme("AY"))
        brute_force_min_kl(p_train, g, p_uniform)  # one-time allocations
        tracemalloc.start()
        try:
            brute_force_min_kl(p_train, g, p_uniform)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2e6, peak

    def test_agrees_with_optimizer_on_small_schemes(self, p_train, p_uniform):
        for scheme in reweighting_schemes():
            g = atom_grouping(scheme, p_train)
            if g.k > 4:
                continue
            opt = optimal_weights(p_train, g, p_uniform)
            brute = brute_force_min_kl(p_train, g, p_uniform, grid_step=0.01)
            assert opt.achieved_kl == pytest.approx(brute, abs=1e-3), scheme.name


class TestOptimalityProperties:
    def test_probe_optimality_spot(self, p_train, p_uniform):
        for name in ("AY", "S", "Random"):
            g = atom_grouping(GroupingScheme(name), p_train)
            res = optimal_weights(p_train, g, p_uniform)
            probe_is_no_better(p_train, g, p_uniform, res.achieved_kl, n_probes=50, seed=11)

    def test_resampling_never_beats_optimal(self, p_train, p_uniform):
        rows = min_kl_table(reweighting_schemes(), p_train, p_uniform)
        for row in rows:
            assert row.kl_gdro <= row.kl_resampling + 1e-9

    def test_refinement_monotonicity(self, p_train, p_uniform):
        for scheme in reweighting_schemes():
            g = atom_grouping(scheme, p_train)
            base = optimal_weights(p_train, g, p_uniform)
            fine = optimal_weights(p_train, refine(g), p_uniform)
            assert fine.achieved_kl <= base.achieved_kl + 1e-9, scheme.name

    def test_duplicate_group_invariance(self, p_train, p_uniform):
        for parent, child in (("AY", "AY_8"), ("SY", "SY_8")):
            a = optimal_weights(p_train, atom_grouping(GroupingScheme(parent)), p_uniform)
            b = optimal_weights(p_train, atom_grouping(GroupingScheme(child)), p_uniform)
            assert abs(a.achieved_kl - b.achieved_kl) <= 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_gap_brackets_the_optimum_on_random_soft_groupings(self, seed):
        rng = np.random.default_rng(seed)
        p = Distribution(rng.dirichlet(np.ones(8)))
        target = Distribution(rng.dirichlet(np.ones(8)))
        k = int(rng.integers(1, 7))
        g = SoftGrouping(rng.dirichlet(np.ones(k), size=8))
        res = optimal_weights(p, g, target)
        # Near-degenerate boundary optima can need more than max_iters, so
        # convergence is asserted on the program's own groupings below.
        assert res.converged == (res.gap <= 1e-11)
        # Two iterations leave the gap wide enough for probes to beat the iterate.
        with mock.patch.object(reweight_opt, "_MAX_ITERS", 2):  # monkeypatch is function-scoped
            early = optimal_weights(p, g, target)
        for _ in range(50):
            w = rng.dirichlet(np.ones(k))
            probe_kl = kl_divergence(target, reweighted_distribution(p, g, w))
            assert res.achieved_kl <= probe_kl + 1e-12
            # Lower bounds on f*; the slack absorbs rounding when k = 1 makes
            # every probe the optimum.
            assert res.achieved_kl - res.gap <= probe_kl + 1e-15
            assert early.achieved_kl - early.gap <= probe_kl + 1e-15

    @pytest.mark.parametrize(
        "bias",
        [None, (0.55, 0.55), (0.99, 0.99), (0.55, 0.99), (0.99, 0.55)],
        ids=["default", "0.55-0.55", "0.99-0.99", "0.55-0.99", "0.99-0.55"],
    )
    def test_every_grid_scheme_converges(self, p_train, p_uniform, bias):
        p = p_train if bias is None else biased_distribution(*bias)
        schemes = {s.name: s for s in reweighting_schemes() + model_based_schemes()}
        assert len(schemes) == 23
        for scheme in schemes.values():
            g = atom_grouping(scheme, p)
            for grouping in (g, refine(g)):
                res = optimal_weights(p, grouping, p_uniform)
                assert res.converged and res.gap <= 1e-11, (scheme.name, grouping.k, res.iterations)


HARD_SCHEMES = ("A", "Y", "S", "AY", "SY", "YSA", "SC_noSC", "AS")


def _closed_form_cases():
    """(id, p_train, p_target): the two bias levels the CLI uses, then seeded Dirichlet pairs."""
    cases = [
        ("default", biased_distribution(0.95, 0.8), uniform_distribution()),
        ("weak_shift", biased_distribution(0.85, 0.70), uniform_distribution()),
    ]
    rng = np.random.default_rng(20250)
    for i in range(4):
        p_train, p_target = (Distribution(rng.dirichlet(np.ones(8))) for _ in range(2))
        cases.append((f"dirichlet{i}", p_train, p_target))
    return cases


CLOSED_FORM_CASES = _closed_form_cases()


class TestClosedFormOracle:
    """The chain rule of relative entropy (Cover & Thomas, Thm 2.5.3) as an oracle for hard groupings.

    A hard partition G can only rescale whole groups, so the best weights are
    the target's group masses, w* = t_G, and min KL is the within-group
    residual sum_g t_g * KL(t(.|g) || p(.|g)), which no reweighting reaches.
    Cover's iteration from uniform weights lands on t_G in one step. A noisy
    annotation of AY keeps AY's min KL up to a noise threshold.
    """

    @pytest.mark.parametrize("case", CLOSED_FORM_CASES, ids=[c[0] for c in CLOSED_FORM_CASES])
    @pytest.mark.parametrize("name", HARD_SCHEMES)
    def test_hard_partition_meets_the_chain_rule(self, name, case):
        _, p_train, p_target = case
        labels = atom_grouping(GroupingScheme(name)).assign.argmax(axis=1)
        t, p = p_target.probs, p_train.probs
        t_g = np.bincount(labels, weights=t)
        p_g = np.bincount(labels, weights=p)
        residual = float(np.sum(t * np.log((t / t_g[labels]) / (p / p_g[labels]))))
        opt = optimal_weights(p_train, atom_grouping(GroupingScheme(name)), p_target)
        assert opt.iterations <= 1
        assert np.max(np.abs(opt.weights - t_g)) <= 1e-12
        assert abs(opt.achieved_kl - residual) <= 1e-12

    def test_noise_threshold_at_the_default_bias(self, p_train, p_uniform):
        # a corrupted AY label is redrawn from the clean group masses m, so
        # P^w = (1 - eps) * p * (w/m)_g + eps * p reaches AY's optimum while
        # every w_g = m_g * (t_g/m_g - eps) / (1 - eps) stays >= 0
        parent = atom_grouping(GroupingScheme("AY")).assign
        eps_star = float(np.min((p_uniform.probs @ parent) / (p_train.probs @ parent)))
        assert eps_star == pytest.approx(4 / 7, abs=1e-15)

    @pytest.mark.parametrize("noise", [0.01, 0.10, 0.25, 0.50, 0.57, 0.60])
    def test_noisy_ay_equals_ay_up_to_the_threshold(self, p_train, p_uniform, noise):
        ay = optimal_weights(p_train, atom_grouping(GroupingScheme("AY")), p_uniform).achieved_kl
        noisy = optimal_weights(p_train, atom_grouping(GroupingScheme(f"Noisy_AY_{noise:.2f}"), p_train), p_uniform)
        if noise <= 4 / 7:
            assert abs(noisy.achieved_kl - ay) <= 1e-12
        else:  # past the threshold a group's weight would have to go negative
            assert noisy.achieved_kl > ay + 1e-3


class TestMinKlTable:
    def test_row_order_and_names(self, p_train, p_uniform):
        rows = min_kl_table(reweighting_schemes(), p_train, p_uniform)
        assert [r.scheme for r in rows] == [s.name for s in reweighting_schemes()]

    def test_sc_nosc_cell(self, p_train, p_uniform):
        rows = min_kl_table([GroupingScheme("SC_noSC")], p_train, p_uniform)
        assert rows[0].kl_gdro == pytest.approx(0.113, abs=5e-3)
        assert rows[0].kl_resampling == pytest.approx(0.113, abs=5e-3)

    def test_noisy_quarter_cell(self, p_train, p_uniform):
        rows = min_kl_table([GroupingScheme("Noisy_AY_0.25")], p_train, p_uniform)
        assert rows[0].kl_gdro == pytest.approx(0.114, abs=5e-3)
        assert rows[0].kl_resampling == pytest.approx(0.131, abs=5e-3)

    def test_empty_list_gives_empty_table(self, p_train, p_uniform):
        """ExperimentSpec refuses an empty scheme list; the table itself has nothing to refuse."""
        assert min_kl_table([], p_train, p_uniform) == []

    def test_no_bias_reads_exactly_zero(self, p_uniform):
        # Noisy_AY_0.10's two sums round to -1.1e-16 here; neither is kept below 0.0
        rows = min_kl_table(reweighting_schemes(), biased_distribution(0.5, 0.5), p_uniform)
        for row in rows:
            assert str(row.kl_gdro) == str(row.kl_resampling) == "0.0", row

    def test_unconverged_solve_warns(self, p_uniform):
        """At this bias Cover's iteration on Noisy_AY_0.80 runs out of
        iterations; the row keeps the value its gap still certifies."""
        p = biased_distribution(0.53, 0.72)
        with pytest.warns(UserWarning, match=r"^Noisy_AY_0\.80: .* after 100000 iterations with gap \S+ nats"):
            rows = min_kl_table([GroupingScheme("Noisy_AY_0.80")], p, p_uniform)
        assert f"{rows[0].kl_gdro:.6f}" == "0.022426"

    def test_csv_format(self, p_train, p_uniform):
        rows = min_kl_table([GroupingScheme("YSA")], p_train, p_uniform)
        text = table_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "scheme,kl_gdro,kl_resampling"
        assert lines[1] == "YSA,0.000000,0.000000"


P_TRAIN = biased_distribution(0.95, 0.8)
UNIFORM = uniform_distribution()
A_GROUPS = atom_grouping(GroupingScheme("A"))


def two_atoms():
    return Distribution(np.array([0.5, 0.5]))


def three_atoms():
    return SoftGrouping(np.eye(3))


@pytest.mark.parametrize(
    "call,error",
    [
        pytest.param(lambda: kl_divergence(two_atoms(), UNIFORM), NonNormalizable, id="kl_divergence-p"),
        pytest.param(lambda: kl_divergence(UNIFORM, two_atoms()), NonNormalizable, id="kl_divergence-q"),
        pytest.param(lambda: group_conditionals(two_atoms(), A_GROUPS), NonNormalizable, id="group_conditionals-p"),
        pytest.param(lambda: group_conditionals(P_TRAIN, three_atoms()), InvalidScheme, id="group_conditionals-g"),
        pytest.param(lambda: group_conditionals(P_TRAIN, np.ones((8, 2))), InvalidScheme, id="group_conditionals-bare"),
        pytest.param(
            lambda: reweighted_distribution(two_atoms(), A_GROUPS, np.array([0.5, 0.5])),
            NonNormalizable,
            id="reweighted_distribution-p",
        ),
        pytest.param(
            lambda: reweighted_distribution(P_TRAIN, three_atoms(), np.full(3, 1 / 3)),
            InvalidScheme,
            id="reweighted_distribution-g",
        ),
        pytest.param(
            lambda: reweighted_distribution(P_TRAIN, A_GROUPS, np.full(3, 1 / 3)),
            SupportMismatch,
            id="reweighted_distribution-w",
        ),
        pytest.param(lambda: optimal_weights(two_atoms(), A_GROUPS, UNIFORM), NonNormalizable, id="optimal_weights-p"),
        pytest.param(lambda: optimal_weights(P_TRAIN, three_atoms(), UNIFORM), InvalidScheme, id="optimal_weights-g"),
        pytest.param(lambda: optimal_weights(P_TRAIN, A_GROUPS, two_atoms()), NonNormalizable, id="optimal_weights-t"),
        pytest.param(
            lambda: optimal_weights(P_TRAIN, np.ones((8, 2)), UNIFORM), InvalidScheme, id="optimal_weights-bare"
        ),
        pytest.param(
            lambda: brute_force_min_kl(two_atoms(), A_GROUPS, UNIFORM), NonNormalizable, id="brute_force_min_kl-p"
        ),
        pytest.param(
            lambda: brute_force_min_kl(P_TRAIN, three_atoms(), UNIFORM), InvalidScheme, id="brute_force_min_kl-g"
        ),
        pytest.param(
            lambda: brute_force_min_kl(P_TRAIN, np.ones((8, 2)), UNIFORM), InvalidScheme, id="brute_force_min_kl-bare"
        ),
        pytest.param(
            lambda: min_kl_table([GroupingScheme("A")], two_atoms(), UNIFORM), NonNormalizable, id="min_kl_table-p"
        ),
        pytest.param(
            lambda: min_kl_table([GroupingScheme("A")], P_TRAIN, two_atoms()), NonNormalizable, id="min_kl_table-t"
        ),
        pytest.param(
            lambda: annotate_samples(
                sample_dataset(P_TRAIN, 16, FeatureConfig(), seed=0), GroupingScheme("Noisy_AY_0.10"), 0, two_atoms()
            ),
            NonNormalizable,
            id="annotate_samples-p",
        ),
    ],
)
def test_wrong_shape_input_raises_a_subshift_error(call, error):
    """A wrong-shape input fails as a SubshiftError, never as a numpy broadcast error.

    A Distribution or SoftGrouping checks its shape when built, so the error
    comes from building the argument; only a bare matrix, which
    group_conditionals refuses, and the weights reach the function.
    """
    with pytest.raises(error):
        call()
