import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from subshift import harness, mitigation
from subshift.errors import (
    EmptyGroup,
    InsufficientSchemes,
    InvalidConfig,
    InvalidScheme,
    OutOfRange,
    YBasedGrouping,
)
from subshift.harness import (
    CHECK_TOLERANCE,
    DEFAULT_SCHEMES,
    REFERENCE_TABLE,
    ExperimentSpec,
    _derive_seed,
    compute_kl_rows,
    correlate_results,
    disparity_csv,
    main,
    read_results_csv,
    relative_auc_csv,
    results_csv,
    run_sweep,
    spec_hash,
    write_correlation_outputs,
    write_run_outputs,
)
from subshift.mitigation import TrainConfig
from subshift.synth_data import FeatureConfig


def tiny_spec(**kw):
    base = dict(
        methods=("erm", "gdro"),
        schemes=("Y", "AY", "S"),
        seeds=(0,),
        n_train=400,
        n_val=200,
        n_test=400,
        feature=FeatureConfig(d_y=2, d_a=2, d_s=2),
        train=TrainConfig(epochs=2),
    )
    base.update(kw)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def tiny_record():
    return run_sweep(tiny_spec())


class TestSpecHash:
    def test_equal_specs_equal_hash(self):
        assert spec_hash(tiny_spec()) == spec_hash(tiny_spec())

    def test_any_field_changes_hash(self):
        assert spec_hash(tiny_spec()) != spec_hash(tiny_spec(master_seed=1))
        assert spec_hash(tiny_spec()) != spec_hash(tiny_spec(n_train=401))

    def test_rejects_empty_seed_list(self):
        with pytest.raises(OutOfRange):
            tiny_spec(seeds=())


class TestSpecValidation:
    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidConfig, match="unknown method 'nope'"):
            tiny_spec(methods=("erm", "nope"))

    def test_accepts_every_method(self):
        assert tiny_spec(methods=mitigation.METHODS, schemes=("A", "S")).methods == (
            "erm", "gdro", "resampling", "domain_ind", "cfair", "jtt"
        )

    def test_rejects_unknown_scheme(self):
        with pytest.raises(InvalidScheme, match="unknown scheme name 'NOPE'"):
            tiny_spec(schemes=("AY", "NOPE"))

    @pytest.mark.parametrize("field", ["n_train", "n_val", "n_test"])
    def test_rejects_empty_split(self, field):
        with pytest.raises(OutOfRange, match=field):
            tiny_spec(**{field: 0})

    @pytest.mark.parametrize(
        "field,values,repeated",
        [
            ("methods", ("erm", "gdro", "erm"), "'erm'"),
            ("schemes", ("AY", "S", "AY"), "'AY'"),
            ("seeds", (0, 1, 0), "0"),
        ],
    )
    def test_rejects_repeats(self, field, values, repeated):
        # a repeat would retrain a copy of a cell and count it as another run
        with pytest.raises(InvalidConfig, match=f"{field} lists {repeated} more than once"):
            tiny_spec(**{field: values})

    def test_rejects_noncanonical_scheme_name(self):
        # the same scheme under two spellings would slip past the repeat check
        with pytest.raises(InvalidScheme, match="'Noisy_AY_0.1' must be written 'Noisy_AY_0.10'"):
            tiny_spec(schemes=("Noisy_AY_0.1", "Noisy_AY_0.10"))

    def test_y_free_methods_accept_y_free_schemes(self):
        spec = tiny_spec(methods=("gdro", *mitigation.NEEDS_Y_FREE), schemes=("A", "S", "SC_noSC", "Random"))
        assert spec.methods == ("gdro", "domain_ind", "cfair")
        assert tiny_spec(methods=("gdro", "jtt"), schemes=("AY", "Y")).schemes == ("AY", "Y")


class TestDeriveSeed:
    def test_stable(self):
        assert _derive_seed(0, "gdro", "AY", 1) == _derive_seed(0, "gdro", "AY", 1)

    def test_parts_matter(self):
        seen = {
            _derive_seed(0, "gdro", "AY", 1),
            _derive_seed(0, "gdro", "AY", 2),
            _derive_seed(0, "gdro", "SY", 1),
            _derive_seed(1, "gdro", "AY", 1),
            _derive_seed(0, "resampling", "AY", 1),
        }
        assert len(seen) == 5


class TestRunSweep:
    def test_every_cell_exactly_once(self, tiny_record):
        keys = [(r["method"], r["grouping"], r["seed"]) for r in tiny_record.rows]
        assert len(keys) == len(set(keys)) == 6  # 3 erm replicas + 3 gdro cells
        assert tiny_record.errors == ()
        assert sorted(keys) == keys

    def test_erm_rows_share_metrics_but_not_kl(self, tiny_record):
        erm = [r for r in tiny_record.rows if r["method"] == "erm"]
        assert len({r["val_auc"] for r in erm}) == 1
        assert len({r["test_auc"] for r in erm}) == 1
        by_scheme = {r["grouping"]: r["min_kl_gdro"] for r in erm}
        assert by_scheme["AY"] == pytest.approx(0.1134, abs=5e-4)
        assert by_scheme["S"] == pytest.approx(0.5268, abs=5e-4)

    def test_kl_rows_cover_schemes(self, tiny_record):
        assert [r.scheme for r in tiny_record.kl_rows] == ["Y", "AY", "S"]

    def test_repeat_is_byte_identical(self, tiny_record):
        again = run_sweep(tiny_spec())
        assert results_csv(again.rows) == results_csv(tiny_record.rows)
        assert again.spec_hash == tiny_record.spec_hash

    def test_y_based_scheme_for_y_free_method_fails_before_any_data(self, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("make_splits ran for a spec that should have been rejected")

        monkeypatch.setattr(harness, "make_splits", no_data)
        for method in mitigation.NEEDS_Y_FREE:
            with pytest.raises(YBasedGrouping, match=f"{method} needs y-free groups, but AY groups"):
                run_sweep(tiny_spec(methods=("erm", method), schemes=("A", "AY")))

    def test_small_train_warns_and_empty_group_is_isolated(self):
        spec = tiny_spec(schemes=("Y", "YSA"), n_train=24, n_val=100, train=TrainConfig(epochs=1))
        with pytest.warns(UserWarning, match="risks empty groups for YSA"):
            record = run_sweep(spec)
        assert any(e["grouping"] == "YSA" and "EmptyGroup" in e["error"] for e in record.errors)
        assert ("gdro", "Y") in [(r["method"], r["grouping"]) for r in record.rows]

    def test_errors_come_out_in_spec_order(self, monkeypatch):
        # The sweep runs seed-major, so (gdro, S, 0) and (erm, -, 0) fail before
        # (gdro, A, 1); the record lists them by method, then scheme, then seed.
        spec = tiny_spec(methods=("gdro", "erm"), schemes=("A", "S"), seeds=(0, 1))
        failing = {
            _derive_seed(spec.master_seed, "gdro", "S", 0),
            _derive_seed(spec.master_seed, "gdro", "A", 1),
            _derive_seed(spec.master_seed, "erm", "-", 0),
        }
        real_train = mitigation.train

        def flaky_train(method, dataset, cfg, val=None):
            if cfg.seed in failing:
                raise EmptyGroup("injected")
            return real_train(method, dataset, cfg, val=val)

        monkeypatch.setattr(mitigation, "train", flaky_train)
        record = run_sweep(spec)
        assert [(e["method"], e["grouping"], e["seed"]) for e in record.errors] == [
            ("gdro", "A", 1),
            ("gdro", "S", 0),
            ("erm", "-", 0),
        ]
        cells = {(r["method"], r["grouping"], r["seed"]) for r in record.rows}
        assert cells == {("gdro", "A", 0), ("gdro", "S", 1), ("erm", "A", 1), ("erm", "S", 1)}

    def test_peak_memory_does_not_grow_with_seeds(self):
        """A sweep holds one seed's splits and one scheme's annotation at a
        time, so four seeds peak no higher than one (within 10%)."""

        def traced_peak(seeds):
            spec = ExperimentSpec(
                methods=("erm", "gdro"),
                schemes=("A", "S", "AY"),
                seeds=seeds,
                n_train=4000,
                train=TrainConfig(epochs=1),
            )
            tracemalloc.start()
            try:
                run_sweep(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak((0,))  # the first sweep in a process also pays one-time allocations
        one = traced_peak((0,))
        four = traced_peak((0, 1, 2, 3))
        assert four <= 1.1 * one, (one, four)

    def test_programming_error_is_raised_not_recorded(self, monkeypatch):
        def broken_train(*args, **kwargs):
            raise ZeroDivisionError("bug in a trainer")

        monkeypatch.setattr(mitigation, "train", broken_train)
        with pytest.raises(ZeroDivisionError, match="bug in a trainer"):
            run_sweep(tiny_spec())


class TestCsvOutputs:
    def test_results_csv_format(self, tiny_record):
        lines = results_csv(tiny_record.rows).splitlines()
        assert lines[0] == (
            "method,grouping,seed,val_auc,test_auc,min_acc_A,gap_A,"
            "min_acc_S,gap_S,min_kl_gdro,min_kl_resampling"
        )
        first = lines[1].split(",")
        assert first[0] == "erm"
        assert len(first[3].split(".")[1]) == 6  # fixed six decimals

    def test_read_results_round_trip(self, tiny_record, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(results_csv(tiny_record.rows))
        rows = read_results_csv(path)
        assert len(rows) == len(tiny_record.rows)
        assert isinstance(rows[0]["seed"], int)
        assert rows[0]["val_auc"] == pytest.approx(tiny_record.rows[0]["val_auc"], abs=1e-6)

    def test_relative_auc_table(self, tiny_record):
        lines = relative_auc_csv(tiny_record.rows).splitlines()
        assert lines[0] == "method,grouping,mean_test_auc,sd_test_auc,delta_auc_vs_erm"
        erm_delta = [l.split(",")[4] for l in lines[1:] if l.startswith("erm,")]
        assert all(v == "0.000000" for v in erm_delta)
        erm_mean = float(lines[1].split(",")[2])
        gdro_ay = next(l for l in lines[1:] if l.startswith("gdro,AY"))
        assert float(gdro_ay.split(",")[4]) == pytest.approx(
            float(gdro_ay.split(",")[2]) - erm_mean, abs=1e-6
        )

    def test_disparity_table(self, tiny_record):
        lines = disparity_csv(tiny_record.rows).splitlines()
        assert lines[0] == "method,grouping,mean_min_acc_S,sd_min_acc_S,mean_gap_S,sd_gap_S"
        assert len(lines) == 7

    def test_write_run_outputs(self, tiny_record, tmp_path):
        write_run_outputs(tiny_record, tiny_spec(), tmp_path / "out")
        out = tmp_path / "out"
        for name in ("results.csv", "relative_auc.csv", "disparity.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec_hash"] == spec_hash(tiny_spec())
        assert manifest["spec"]["n_train"] == 400
        assert manifest["spec"]["feature"]["d_y"] == 2
        assert manifest["n_rows"] == 6
        assert manifest["errors"] == []


def synthetic_rows(method, kl_field, kl_values, auc_of_kl):
    rows = []
    for i, kl in enumerate(kl_values):
        for seed, jitter in ((0, 0.01), (1, -0.01)):
            row = {
                "method": method,
                "grouping": f"scheme_{i}",
                "seed": seed,
                "test_auc": auc_of_kl(kl) + jitter,
                "min_kl_gdro": 0.5,
                "min_kl_resampling": 0.5,
            }
            row[kl_field] = kl
            rows.append(row)
    return rows


class TestCorrelate:
    def test_perfect_negative_line(self):
        rows = synthetic_rows("gdro", "min_kl_gdro", [0.0, 0.1, 0.2, 0.3], lambda kl: 0.9 - kl)
        report = correlate_results(rows)
        assert report["gdro"]["r"] == pytest.approx(-1.0, abs=1e-12)
        assert report["gdro"]["p"] < 1e-6
        assert report["gdro"]["schemes"] == [f"scheme_{i}" for i in range(4)]

    def test_resampling_reads_its_own_column(self):
        # the gdro column is constant here, so using it would blow up
        rows = synthetic_rows(
            "resampling", "min_kl_resampling", [0.0, 0.2, 0.4], lambda kl: 0.8 - 0.5 * kl
        )
        report = correlate_results(rows)
        assert report["resampling"]["r"] == pytest.approx(-1.0, abs=1e-12)

    def test_needs_three_schemes(self):
        rows = synthetic_rows("gdro", "min_kl_gdro", [0.0, 0.1], lambda kl: 0.9 - kl)
        with pytest.raises(InsufficientSchemes):
            correlate_results(rows)

    def test_erm_rows_are_ignored(self, tiny_record):
        report = correlate_results(list(tiny_record.rows))
        assert set(report) == {"gdro"}

    def test_write_outputs(self, tmp_path):
        rows = synthetic_rows("gdro", "min_kl_gdro", [0.0, 0.1, 0.2], lambda kl: 0.9 - kl)
        write_correlation_outputs(correlate_results(rows), tmp_path)
        corr = (tmp_path / "correlation.csv").read_text().splitlines()
        assert corr[0] == "method,n_schemes,pearson_r,p_value"
        assert corr[1].startswith("gdro,3,-1.000000,")
        scatter = (tmp_path / "scatter_gdro.csv").read_text().splitlines()
        assert scatter[0] == "scheme,min_kl,mean_test_auc,sd_test_auc"
        assert len(scatter) == 4


class TestCli:
    def test_analyze_kl_check_passes(self, capsys):
        assert main(["analyze-kl", "--check"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == len(REFERENCE_TABLE)
        assert "DEVIATION" not in out

    def test_check_refuses_nondefault_bias(self, capsys):
        assert main(["analyze-kl", "--check", "--p-s0", "0.9"]) == 2

    def test_scheme_restriction_and_table_output(self, tmp_path, capsys):
        assert main(["analyze-kl", "--scheme", "AY", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "kl_table.csv").read_text().splitlines()
        assert lines[0] == "scheme,kl_gdro,kl_resampling"
        assert lines[1] == "AY,0.113415,0.113415"
        assert len(lines) == 2

    def test_correlate_without_results_errors(self, tmp_path, capsys):
        assert main(["correlate", "--out", str(tmp_path / "nowhere")]) == 2

    def test_unknown_scheme_is_a_clean_error(self, capsys):
        assert main(["analyze-kl", "--scheme", "NOPE"]) == 2
        assert "unknown scheme name" in capsys.readouterr().err

    def test_analyze_kl_rejects_noncanonical_scheme(self, capsys):
        assert main(["analyze-kl", "--scheme", "Noisy_AY_0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'Noisy_AY_0.1' must be written 'Noisy_AY_0.10'" in captured.err

    def test_run_then_correlate(self, tmp_path, capsys):
        config = {
            "methods": ["erm", "gdro"],
            "schemes": ["Y", "AY", "S"],
            "seeds": [0],
            "n_train": 400,
            "n_val": 200,
            "n_test": 400,
            "feature": {"d_y": 2, "d_a": 2, "d_s": 2},
            "train": {"epochs": 2},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec"]["n_train"] == 400
        assert manifest["spec"]["train"]["epochs"] == 2
        assert main(["correlate", "--out", str(out)]) == 0
        assert (out / "correlation.csv").exists()
        assert (out / "scatter_gdro.csv").exists()

    def test_cli_overrides_beat_config(self, tmp_path, capsys):
        config = {
            "methods": ["erm", "gdro"],
            "schemes": ["Y", "AY", "S"],
            "seeds": [0, 1],
            "n_train": 400,
            "n_val": 200,
            "n_test": 400,
            "feature": {"d_y": 2, "d_a": 2, "d_s": 2},
            "train": {"epochs": 2},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "0", "--n-train", "300"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec"]["seeds"] == [0]
        assert manifest["spec"]["n_train"] == 300

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--methods", "nope"], "unknown method 'nope'"),
            (["--n-train", "0"], "n_train must be >= 1"),
            (["--schemes", "AY,NOPE"], "unknown scheme name 'NOPE'"),
            (["--seeds", "0,a"], "--seeds takes comma-separated integers, got '0,a'"),
            (["--seeds", "0,1,0"], "seeds lists 0 more than once"),
            (["--methods", "erm,cfair", "--schemes", "A,SY"], "cfair needs y-free groups, but SY groups"),
        ],
    )
    def test_bad_spec_exits_2_before_any_work(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"epochs": 3}, "unknown top-level key 'epochs'"),
            ({"feature": {"mu": 1.0}}, "unknown feature key 'mu'"),
            ({"train": {"epochz": 3}}, "unknown train key 'epochz'"),
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert message in err

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "cannot read --config"),
            ("{bad json", "cannot read --config"),
            ('{"seeds": 5}', "top-level key 'seeds' in --config has the wrong type: 5"),
            ('{"n_train": "abc"}', "top-level key 'n_train' in --config has the wrong type: 'abc'"),
            ('{"train": {"batch_size": 0}}', "batch_size must be >= 1, got 0"),
            ('{"train": {"epochs": 0}}', "epochs must be >= 1, got 0"),
            ('{"train": {"hidden": 0}}', "hidden must be >= 1, got 0"),
            ('{"train": {"jtt_stage1_epochs": 0}}', "jtt_stage1_epochs must be >= 1, got 0"),
            ('{"train": {"jtt_upweight": 0}}', "jtt_upweight must be > 0, got 0"),
            ('{"train": {"lr": -1.0}}', "lr must be > 0, got -1.0"),
        ],
        ids=[
            "missing_file",
            "invalid_json",
            "seeds_not_a_list",
            "n_train_not_an_int",
            "batch_size_0",
            "epochs_0",
            "hidden_0",
            "jtt_stage1_epochs_0",
            "jtt_upweight_0",
            "lr_negative",
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "config.json"
        if text is not None:
            cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert message in err
        assert not out.exists()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subshift", "analyze-kl", "--scheme", "YSA"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "YSA,0.000000,0.000000" in proc.stdout

    def test_import_loads_no_scipy(self):
        code = "import subshift, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestDefaults:
    def test_default_scheme_list(self):
        assert len(DEFAULT_SCHEMES) == 15
        assert DEFAULT_SCHEMES[0] == "A"
        assert "Noisy_AY_0.25" in DEFAULT_SCHEMES

    def test_reference_table_shape(self):
        assert len(REFERENCE_TABLE) == 15
        assert CHECK_TOLERANCE == 5e-3

    def test_compute_kl_rows_matches_reference(self):
        rows = compute_kl_rows([n for n, _, _ in REFERENCE_TABLE], 0.95, 0.8)
        for row, (name, ref_g, ref_r) in zip(rows, REFERENCE_TABLE):
            assert row.scheme == name
            assert row.kl_gdro == pytest.approx(ref_g, abs=CHECK_TOLERANCE)
            assert row.kl_resampling == pytest.approx(ref_r, abs=CHECK_TOLERANCE)
