import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshift.dist_core import (
    biased_distribution,
    kl_divergence,
    make_distribution,
    reweighted_distribution,
    uniform_distribution,
)
from subshift.errors import OutOfRange, SupportMismatch, TooManyGroups
from subshift.grouping import (
    GroupingScheme,
    SoftGrouping,
    atom_grouping,
    model_based_schemes,
    refine,
    reweighting_schemes,
)
from subshift.reweight_opt import (
    WeightVector,
    _ratio_matrix,
    brute_force_min_kl,
    min_kl_table,
    optimal_weights,
    resampling_weights,
    table_to_csv,
)


def reference_brute_force(p_train, grouping, p_target, grid_step):
    """The grid search as first written: one meshgrid block per leading coordinate."""
    k = grouping.k
    n = int(round(1.0 / grid_step))
    r, _ = _ratio_matrix(p_train, grouping)
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
        assert val == ref, grouping.scheme_id
    else:
        assert abs(val - ref) <= 1e-15, grouping.scheme_id


def probe_is_no_better(p_train, grouping, p_target, best_kl, n_probes, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_probes):
        w = rng.dirichlet(np.ones(grouping.k))
        kl = kl_divergence(p_target, reweighted_distribution(p_train, grouping, w))
        assert best_kl <= kl + 1e-9


class TestWeightVector:
    def test_valid(self):
        wv = WeightVector(np.array([0.25, 0.25, 0.25, 0.25]))
        assert len(wv) == 4

    def test_rejects_off_simplex(self):
        with pytest.raises(OutOfRange):
            WeightVector(np.array([0.5, 0.6]))
        with pytest.raises(OutOfRange):
            WeightVector(np.array([-0.1, 1.1]))


class TestResamplingWeights:
    def test_k4(self):
        g = atom_grouping(GroupingScheme("AY"))
        assert np.allclose(resampling_weights(g).w, 0.25)

    def test_k2(self):
        g = atom_grouping(GroupingScheme("Y"))
        assert np.allclose(resampling_weights(g).w, 0.5)

    def test_ysa_uniform_weights_give_zero_kl(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("YSA"))
        w = resampling_weights(g)
        assert np.allclose(w.w, 0.125)
        pw = reweighted_distribution(p_train, g, w)
        assert kl_divergence(p_uniform, pw) == pytest.approx(0.0, abs=1e-12)


class TestOptimalWeights:
    def test_ay_fixture(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("AY"))
        res = optimal_weights(p_train, g, p_uniform)
        assert res.converged
        assert np.allclose(res.weights.w, 0.25, atol=1e-3)
        assert res.achieved_kl == pytest.approx(0.113, abs=5e-4)
        pw = reweighted_distribution(p_train, g, res.weights)
        expected = [0.136, 0.050, 0.114, 0.200, 0.050, 0.136, 0.200, 0.114]
        assert np.allclose(pw.probs, expected, atol=5e-4)

    def test_y_partition_cannot_improve(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("Y"))
        res = optimal_weights(p_train, g, p_uniform)
        assert res.achieved_kl == pytest.approx(0.527, abs=5e-4)

    def test_noisiest_scheme(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("NoisyAY", noise=0.50), p_train)
        res = optimal_weights(p_train, g, p_uniform)
        assert res.achieved_kl == pytest.approx(0.118, abs=5e-3)
        # Certified optimum; equal to AY's because the noise can be reweighted away.
        assert res.gap <= 1e-11
        assert res.achieved_kl == pytest.approx(0.113415290770, abs=1e-9)

    def test_exhausted_iterations_reports_not_converged(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("NoisyAY", noise=0.25), p_train)
        res = optimal_weights(p_train, g, p_uniform, tol=0.0, max_iters=1)
        assert not res.converged
        assert res.iterations == 1
        assert np.isfinite(res.achieved_kl)
        assert np.isfinite(res.gap) and res.gap > 0.0

    def test_zero_mass_group_dropped_with_warning(self):
        p = make_distribution([0.6, 0.4, 0, 0, 0, 0, 0, 0])
        target = make_distribution([0.3, 0.7, 0, 0, 0, 0, 0, 0])
        g = atom_grouping(GroupingScheme("YSA"))
        with pytest.warns(UserWarning):
            res = optimal_weights(p, g, target)
        assert res.achieved_kl == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(res.weights.w[2:], 0.0)
        assert res.weights.w[:2] == pytest.approx([0.3, 0.7], abs=1e-4)

    @pytest.mark.parametrize("name", ["Y", "YSA"])
    def test_target_outside_training_support_rejected(self, p_uniform, name):
        p = make_distribution([0.6, 0.4, 0, 0, 0, 0, 0, 0])
        g = atom_grouping(GroupingScheme(name))
        with pytest.warns(UserWarning), pytest.raises(SupportMismatch):
            optimal_weights(p, g, p_uniform)

    def test_weights_stay_strictly_positive_on_active_groups(self, p_train, p_uniform):
        for name in ("AY", "SY", "Random"):
            g = atom_grouping(GroupingScheme(name), p_train)
            res = optimal_weights(p_train, g, p_uniform)
            assert (res.weights.w > 0).all()


class TestBruteForce:
    def test_ay_matches_reference(self, p_train, p_uniform):
        g = atom_grouping(GroupingScheme("AY"))
        val = brute_force_min_kl(p_train, g, p_uniform, grid_step=0.005)
        assert val == pytest.approx(0.113, abs=1e-3)

    def test_single_group(self, p_train, p_uniform):
        g = SoftGrouping(np.ones((8, 1)), ("all",), "single")
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
            p = make_distribution(rng.dirichlet(np.ones(8)))
            target = make_distribution(rng.dirichlet(np.ones(8)))
            g = SoftGrouping(rng.dirichlet(np.ones(k), size=8), tuple(f"g{i}" for i in range(k)), "dirichlet")
            for grid_step in (0.02, 0.3):
                assert_matches_reference(p, g, target, grid_step)

    def test_target_mass_outside_every_group_gives_inf(self, p_uniform):
        p = make_distribution([0.5, 0.5, 0, 0, 0, 0, 0, 0])
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
        for parent, child in (("AY", "AY8"), ("SY", "SY8")):
            a = optimal_weights(p_train, atom_grouping(GroupingScheme(parent)), p_uniform)
            b = optimal_weights(p_train, atom_grouping(GroupingScheme(child)), p_uniform)
            assert abs(a.achieved_kl - b.achieved_kl) <= 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_gap_brackets_the_optimum_on_random_soft_groupings(self, seed):
        rng = np.random.default_rng(seed)
        p = make_distribution(rng.dirichlet(np.ones(8)))
        target = make_distribution(rng.dirichlet(np.ones(8)))
        k = int(rng.integers(1, 7))
        g = SoftGrouping(rng.dirichlet(np.ones(k), size=8), tuple(f"g{i}" for i in range(k)), "dirichlet")
        res = optimal_weights(p, g, target)
        # Near-degenerate boundary optima can need more than max_iters, so
        # convergence is asserted on the program's own groupings below.
        assert res.converged == (res.gap <= 1e-11)
        # Two iterations leave the gap wide enough for probes to beat the iterate.
        early = optimal_weights(p, g, target, max_iters=2)
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
                assert res.converged and res.gap <= 1e-11, (grouping.scheme_id, res.iterations)


class TestMinKlTable:
    def test_row_order_and_names(self, p_train, p_uniform):
        rows = min_kl_table(reweighting_schemes(), p_train, p_uniform)
        assert [r.scheme for r in rows] == [s.name for s in reweighting_schemes()]

    def test_sc_nosc_cell(self, p_train, p_uniform):
        rows = min_kl_table([GroupingScheme("SCnoSC")], p_train, p_uniform)
        assert rows[0].kl_gdro == pytest.approx(0.113, abs=5e-3)
        assert rows[0].kl_resampling == pytest.approx(0.113, abs=5e-3)

    def test_noisy_quarter_cell(self, p_train, p_uniform):
        rows = min_kl_table([GroupingScheme("NoisyAY", noise=0.25)], p_train, p_uniform)
        assert rows[0].kl_gdro == pytest.approx(0.114, abs=5e-3)
        assert rows[0].kl_resampling == pytest.approx(0.131, abs=5e-3)

    def test_empty_rejected(self, p_train, p_uniform):
        with pytest.raises(OutOfRange):
            min_kl_table([], p_train, p_uniform)

    def test_csv_format(self, p_train, p_uniform):
        rows = min_kl_table([GroupingScheme("YSA")], p_train, p_uniform)
        text = table_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "scheme,kl_gdro,kl_resampling"
        assert lines[1] == "YSA,0.000000,0.000000"
