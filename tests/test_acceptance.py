"""Acceptance gate: one test per shipping criterion, tolerances pinned below.

Each test states its full claim and budget inline so a red line here is a
release blocker with an unambiguous reading. Criteria 7-9 share one default
sweep (a session fixture in conftest.py) so the whole gate stays within a
few minutes.
"""

import time

import numpy as np
import pytest

from subshift import nnet
from subshift.dist_core import (
    Distribution,
    SoftGrouping,
    biased_distribution,
    kl_divergence,
    reweighted_distribution,
    uniform_distribution,
)
from subshift.grouping import (
    GroupingScheme,
    atom_grouping,
    refine,
    reweighting_schemes,
)
from subshift.harness import (
    CHECK_TOLERANCE,
    REFERENCE_TABLE,
    ExperimentSpec,
    compute_kl_rows,
    correlate_results,
    main,
    results_csv,
    run_sweep,
    write_run_outputs,
)
from subshift.mitigation import TrainConfig
from subshift.reweight_opt import (
    brute_force_min_kl,
    optimal_weights,
    resampling_weights,
)

P_TRAIN = biased_distribution(0.95, 0.8)
UNIFORM = uniform_distribution()

# Quantitative tolerances.
KL_CELL_TOL = 5e-3        # per reference-table cell
WEIGHT_TOL = 1e-3         # optimal AY weights vs [0.25, 0.25, 0.25, 0.25]
PW_TOL = 5e-4             # reweighted distribution vs published fixture
ORACLE_TOL = 1e-3         # optimizer vs brute-force grid
PROBE_SLACK = 1e-9        # optimum must not exceed any random probe by more
GRAD_REL_TOL = 1e-4       # analytic vs central finite differences
EQUALITY_TOL = 1e-9       # AY_8 == AY and refinement monotonicity

# Trend thresholds (deterministic at the pinned seeds).
ERM_DROP_MIN = 0.05       # biased-val AUC minus unbiased-test AUC, 3-seed mean
GAIN_AY_MIN = 0.03        # mitigation with AY grouping vs ERM
GAIN_S_MAX = 0.01         # mitigation with S grouping vs ERM
R_MAX = -0.6              # Pearson r between min-KL and mean test AUC
P_MAX = 0.05
ABLATION_DROP_MIN = 0.01  # same directions, looser floors, off-default configs
ABLATION_GAIN_AY_MIN = 0.01
ABLATION_GAIN_S_MAX = 0.01

# Runtime budgets, seconds.
CHECK_BUDGET = 1.0
ERM_BUDGET = 60.0
SWEEP_BUDGET = 600.0

# Published reweighted-distribution fixture for the AY optimum, atom order
# (y, s, a) = 000, 001, 010, 011, 100, 101, 110, 111.
PW_REFERENCE = np.array([0.136, 0.050, 0.114, 0.200, 0.050, 0.136, 0.200, 0.114])


def _mean(rows, method, grouping, field="test_auc"):
    vals = [r[field] for r in rows if r["method"] == method and r["grouping"] == grouping]
    assert vals, f"no rows for {method}/{grouping}"
    return float(np.mean(vals))


def _erm_mean(rows, field):
    # ERM rows are replicated across schemes with identical metrics; dedupe by seed.
    by_seed = {r["seed"]: r[field] for r in rows if r["method"] == "erm"}
    assert by_seed
    return float(np.mean(list(by_seed.values())))


def _trend_report(rows):
    report = {"drop": _erm_mean(rows, "val_auc") - _erm_mean(rows, "test_auc")}
    erm_test = _erm_mean(rows, "test_auc")
    for method in ("gdro", "resampling"):
        report[method, "AY"] = _mean(rows, method, "AY") - erm_test
        report[method, "S"] = _mean(rows, method, "S") - erm_test
    return report


def test_criterion_01_divergence_table_matches_reference():
    rows = compute_kl_rows([name for name, _, _ in REFERENCE_TABLE], 0.95, 0.8)
    reference = {name: (g, r) for name, g, r in REFERENCE_TABLE}
    for row in rows:
        ref_g, ref_r = reference[row.scheme]
        assert row.kl_gdro == pytest.approx(ref_g, abs=KL_CELL_TOL), row.scheme
        assert row.kl_resampling == pytest.approx(ref_r, abs=KL_CELL_TOL), row.scheme
    by_name = {r.scheme: r for r in rows}
    # Headline values, quoted to three decimals in the reference table.
    assert by_name["A"].kl_resampling == pytest.approx(0.527, abs=KL_CELL_TOL)
    assert by_name["AY"].kl_gdro == pytest.approx(0.113, abs=KL_CELL_TOL)
    assert by_name["YSA"].kl_gdro == pytest.approx(0.000, abs=KL_CELL_TOL)
    assert by_name["Noisy_AY_0.50"].kl_resampling == pytest.approx(0.189, abs=KL_CELL_TOL)
    assert by_name["Noisy_AY_0.50"].kl_gdro == pytest.approx(0.118, abs=KL_CELL_TOL)
    assert CHECK_TOLERANCE == KL_CELL_TOL
    start = time.perf_counter()
    assert main(["analyze-kl", "--check"]) == 0
    assert time.perf_counter() - start < CHECK_BUDGET


def test_criterion_02_ay_weight_fixture():
    ay = atom_grouping(GroupingScheme("AY"))
    result = optimal_weights(P_TRAIN, ay, UNIFORM)
    np.testing.assert_allclose(result.weights, np.full(4, 0.25), atol=WEIGHT_TOL)
    pw = reweighted_distribution(P_TRAIN, ay, result.weights)
    np.testing.assert_allclose(pw.probs, PW_REFERENCE, atol=PW_TOL)


def test_criterion_03_noise_model_has_power():
    # Correct corruption semantics: a misread annotation is redrawn from the
    # clean groups' mass profile. The deliberately wrong alternative redraws
    # uniformly over groups. The check must accept the first and reject the
    # second on the most corrupted resampling cell.
    ref = {name: kl_res for name, _, kl_res in REFERENCE_TABLE}["Noisy_AY_0.50"]
    correct = atom_grouping(GroupingScheme("Noisy_AY_0.50"), P_TRAIN)
    kl_correct = kl_divergence(
        UNIFORM, reweighted_distribution(P_TRAIN, correct, resampling_weights(correct))
    )
    assert kl_correct == pytest.approx(ref, abs=KL_CELL_TOL)

    parent = atom_grouping(GroupingScheme("AY"))
    wrong_assign = 0.5 * parent.assign + 0.5 * np.full_like(parent.assign, 0.25)
    wrong = SoftGrouping(wrong_assign)
    kl_wrong = kl_divergence(
        UNIFORM, reweighted_distribution(P_TRAIN, wrong, resampling_weights(wrong))
    )
    assert abs(kl_wrong - ref) > KL_CELL_TOL
    assert kl_wrong == pytest.approx(0.393099, abs=1e-5)  # frozen probe value


def test_criterion_04_optimizer_matches_brute_force_and_probes():
    rng = np.random.default_rng(20240816)
    for scheme in reweighting_schemes():
        grouping = atom_grouping(scheme, P_TRAIN)
        result = optimal_weights(P_TRAIN, grouping, UNIFORM)
        assert result.converged, scheme.name
        if grouping.k <= 4:
            grid = brute_force_min_kl(P_TRAIN, grouping, UNIFORM)
            assert result.achieved_kl == pytest.approx(grid, abs=ORACLE_TOL), scheme.name
        for _ in range(200):
            probe = rng.dirichlet(np.ones(grouping.k))
            probe_kl = kl_divergence(
                UNIFORM, reweighted_distribution(P_TRAIN, grouping, probe)
            )
            assert result.achieved_kl <= probe_kl + PROBE_SLACK, scheme.name


PARAM_FIELDS = ("w1", "b1", "w_heads", "b_heads", "w_adv", "b_adv")


def _writable(params):
    return nnet.ModelParams(
        *(None if getattr(params, f) is None else getattr(params, f).copy() for f in PARAM_FIELDS)
    )


def _fd_grads(params, field, loss_fn, step=1e-5):
    live = getattr(params, field)
    out = np.zeros_like(live)
    flat_live, flat_out = live.ravel(), out.ravel()
    base = live.copy().ravel()
    for i in range(base.size):
        flat_live[i] = base[i] + step
        hi = loss_fn()
        flat_live[i] = base[i] - step
        lo = loss_fn()
        flat_live[i] = base[i]
        flat_out[i] = (hi - lo) / (2 * step)
    return out


def test_criterion_05_gradients_match_finite_differences():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for i in range(50):
        mode = ("plain", "weighted", "multihead", "adversarial")[i % 4]
        dim = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 5))
        batch = int(rng.integers(6, 13))
        n_heads = int(rng.integers(2, 4)) if mode == "multihead" else 1
        adv_groups = int(rng.integers(2, 5)) if mode == "adversarial" else 0
        params = _writable(
            nnet.init_params(
                dim, hidden=hidden, n_heads=n_heads, adv_groups=adv_groups,
                seed=int(rng.integers(0, 10**6)),
            )
        )
        x = rng.normal(size=(batch, dim))
        y = np.zeros(batch, dtype=np.int64)
        y[: batch // 2] = 1
        rng.shuffle(y)
        head_ids = rng.integers(0, n_heads, size=batch) if n_heads > 1 else None
        weights = rng.uniform(0.2, 3.0, size=batch) if mode == "weighted" else None
        if mode == "adversarial":
            g_ids = np.arange(batch) % adv_groups
            mu = float(rng.uniform(0.2, 2.0))
            _, _, grads = nnet.cfair_loss_and_grad(params, x, y, g_ids, mu)
            bce = lambda: nnet.bce_loss_and_grad(params, x, y)[0]
            adv = lambda: nnet.cfair_loss_and_grad(params, x, y, g_ids, 0.0)[1]
            combined = lambda: bce() - mu * adv()
            checks = [
                ("w1", combined), ("b1", combined),
                ("w_heads", bce), ("b_heads", bce),
                ("w_adv", adv), ("b_adv", adv),
            ]
        else:
            loss_fn = lambda: nnet.bce_loss_and_grad(
                params, x, y, sample_weights=weights, head_ids=head_ids
            )[0]
            _, grads = nnet.bce_loss_and_grad(params, x, y, sample_weights=weights, head_ids=head_ids)
            checks = [(f, loss_fn) for f in ("w1", "b1", "w_heads", "b_heads")]
        for field, fn in checks:
            numeric = _fd_grads(params, field, fn)
            err = np.linalg.norm(getattr(grads, field) - numeric) / max(
                np.linalg.norm(numeric), 1e-12
            )
            worst = max(worst, err)
            assert err <= GRAD_REL_TOL, (i, mode, field, err)
    assert worst <= GRAD_REL_TOL


def test_criterion_06_erm_val_test_drop():
    start = time.perf_counter()
    record = run_sweep(ExperimentSpec(methods=("erm",), schemes=("AY",)))
    elapsed = time.perf_counter() - start
    assert record.errors == ()
    drop = _erm_mean(record.rows, "val_auc") - _erm_mean(record.rows, "test_auc")
    assert drop >= ERM_DROP_MIN, drop
    assert elapsed < ERM_BUDGET


def test_criterion_07_ay_grouping_helps_s_grouping_does_not(default_sweep):
    record, _ = default_sweep
    report = _trend_report(record.rows)
    for method in ("gdro", "resampling"):
        assert report[method, "AY"] >= GAIN_AY_MIN, (method, report[method, "AY"])
        assert report[method, "S"] <= GAIN_S_MAX, (method, report[method, "S"])


def test_criterion_08_disparity_reversal(default_sweep):
    record, _ = default_sweep
    for method in ("gdro", "resampling"):
        gap_ay = _mean(record.rows, method, "AY", field="gap_S")
        gap_s = _mean(record.rows, method, "S", field="gap_S")
        assert gap_ay < gap_s, (method, gap_ay, gap_s)


def test_criterion_09_kl_auc_correlation(default_sweep):
    record, sweep_elapsed = default_sweep
    start = time.perf_counter()
    report = correlate_results(list(record.rows))
    corr_elapsed = time.perf_counter() - start
    for method in ("gdro", "resampling"):
        assert report[method]["r"] <= R_MAX, (method, report[method]["r"])
        assert report[method]["p"] < P_MAX, (method, report[method]["p"])
    assert sweep_elapsed + corr_elapsed < SWEEP_BUDGET


def test_criterion_10_ablation_directions_hold():
    variants = {
        "weak_shift": ExperimentSpec(p_s0=0.85, p_s1=0.70),
        "small_n": ExperimentSpec(n_train=1000),
    }
    for name, spec in variants.items():
        record = run_sweep(spec)
        assert record.errors == (), name
        report = _trend_report(record.rows)
        assert report["drop"] > ABLATION_DROP_MIN, (name, report["drop"])
        corr = correlate_results(list(record.rows))
        for method in ("gdro", "resampling"):
            assert report[method, "AY"] >= ABLATION_GAIN_AY_MIN, (name, method, report[method, "AY"])
            assert report[method, "S"] <= ABLATION_GAIN_S_MAX, (name, method, report[method, "S"])
            assert corr[method]["r"] < 0.0, (name, method, corr[method]["r"])


def test_criterion_11_byte_identical_reruns(tmp_path):
    spec = ExperimentSpec(
        methods=("erm", "gdro", "resampling", "domain_ind", "cfair"),
        schemes=("A", "S"),
        seeds=(0, 1),
        n_train=800,
        n_val=400,
        n_test=800,
        train=TrainConfig(epochs=5),
    )
    first = run_sweep(spec)
    second = run_sweep(spec)
    assert first.errors == second.errors == ()
    assert results_csv(first.rows) == results_csv(second.rows)
    write_run_outputs(first, spec, tmp_path / "a")
    write_run_outputs(second, spec, tmp_path / "b")
    # manifest.json carries wall-clock timestamps and is exempt by design
    for name in ("results.csv", "relative_auc.csv", "disparity.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_criterion_12_refinement_and_pinsker():
    kl_ay = optimal_weights(P_TRAIN, atom_grouping(GroupingScheme("AY")), UNIFORM)
    kl_ay8 = optimal_weights(P_TRAIN, atom_grouping(GroupingScheme("AY_8")), UNIFORM)
    assert abs(kl_ay8.achieved_kl - kl_ay.achieved_kl) < EQUALITY_TOL

    for scheme in reweighting_schemes():
        grouping = atom_grouping(scheme, P_TRAIN)
        base = optimal_weights(P_TRAIN, grouping, UNIFORM).achieved_kl
        split = optimal_weights(P_TRAIN, refine(grouping), UNIFORM).achieved_kl
        assert split <= base + EQUALITY_TOL, scheme.name

    rng = np.random.default_rng(12345)
    for _ in range(1000):
        p = Distribution(rng.dirichlet(np.ones(8)))
        q = Distribution(rng.dirichlet(np.ones(8)))
        assert 0.5 * np.abs(p.probs - q.probs).sum() <= np.sqrt(kl_divergence(p, q) / 2.0) + 1e-12
