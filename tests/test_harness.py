import json
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subshift
from subshift import harness, mitigation
from subshift.errors import (
    EmptyGroup,
    InsufficientSchemes,
    InvalidConfig,
    InvalidScheme,
    OutOfRange,
    SubshiftError,
    YBasedGrouping,
)
from subshift.grouping import model_based_schemes, reweighting_schemes
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

from refused_inputs import REFUSED_INPUTS, SPEC_FIELD


RESULTS_HEADER = ",".join(harness.RESULT_COLUMNS)

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

    def test_rejects_train_seed(self):
        # run_sweep derives every cell's seed from master_seed and passes it beside
        # spec.train, so a train section has no seed, not even at the old default 0
        with pytest.raises(TypeError, match="seed"):
            TrainConfig(epochs=2, seed=7)
        with pytest.raises(InvalidConfig, match="unknown train key 'seed' in --config"):
            harness._from_config(TrainConfig, {"seed": 0}, "train")

    def test_y_free_methods_accept_y_free_schemes(self):
        spec = tiny_spec(methods=("gdro", *mitigation.NEEDS_Y_FREE), schemes=("A", "S", "SC_noSC", "Random"))
        assert spec.methods == ("gdro", "domain_ind", "cfair")
        assert tiny_spec(methods=("gdro", "jtt"), schemes=("AY", "Y")).schemes == ("AY", "Y")

    @pytest.mark.parametrize("cls,kwargs", REFUSED_INPUTS.values(), ids=REFUSED_INPUTS.keys())
    def test_library_input_refused_at_construction(self, cls, kwargs):
        with pytest.raises(SubshiftError, match=f"{cls.__name__} field '{next(iter(kwargs))}' has the wrong type"):
            cls(**kwargs)

    @pytest.mark.parametrize("cls,kwargs", REFUSED_INPUTS.values(), ids=REFUSED_INPUTS.keys())
    def test_refused_input_never_reaches_make_splits(self, cls, kwargs):
        def build():
            return cls(**kwargs) if cls is ExperimentSpec else ExperimentSpec(**{SPEC_FIELD[cls]: cls(**kwargs)})

        with mock.patch.object(harness, "make_splits", side_effect=AssertionError("make_splits ran")) as drawn:
            with pytest.raises(SubshiftError):
                run_sweep(build())
        drawn.assert_not_called()


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

    @pytest.mark.parametrize(
        "n_train,schemes,warned",
        [
            (125, ("Y", "YSA"), "YSA (k=8): 0.42 expected"),  # gdro/YSA at seed 0 meets an empty group
            (1000, DEFAULT_SCHEMES, None),  # criterion 10's small_n: YSA 6.9e-6
            (100, ("Y", "AY", "S"), None),  # ablate's small_n on an 800-row spec: AY 3.1e-3
        ],
        ids=["ysa_125_warns", "default_1000_silent", "ablate_small_n_silent"],
    )
    def test_empty_group_warning_follows_group_probabilities(self, monkeypatch, n_train, schemes, warned):
        def no_data(*args, **kwargs):
            raise RuntimeError("data drawn")

        monkeypatch.setattr(harness, "make_splits", no_data)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(RuntimeError, match="data drawn"):
            warnings.simplefilter("always")
            run_sweep(tiny_spec(schemes=schemes, n_train=n_train))
        messages = [str(w.message) for w in caught]
        if warned is None:
            assert messages == []
        else:
            assert len(messages) == 1 and messages[0].startswith(f"n_train={n_train} risks empty groups for {warned}")

    def test_no_warning_for_methods_that_count_no_train_groups(self, monkeypatch):
        """erm ignores groups and jtt reads only val's, so an empty train group fails neither."""
        def no_data(*args, **kwargs):
            raise RuntimeError("data drawn")

        monkeypatch.setattr(harness, "make_splits", no_data)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(RuntimeError, match="data drawn"):
            warnings.simplefilter("always")
            run_sweep(tiny_spec(methods=("erm", "jtt"), schemes=("A", "SC_noSC", "Random"), n_train=20))
        assert [str(w.message) for w in caught] == []

    def test_errors_come_out_in_spec_order(self, monkeypatch):
        # The sweep runs seed-major, so (erm, -, 0) and (gdro, S, 0) fail to train
        # before (gdro, A, 1) does, and ERM's seed-1 model fails last, when scored;
        # the record lists them by method, then scheme, then seed.
        spec = tiny_spec(methods=("gdro", "erm"), schemes=("A", "S"), seeds=(0, 1))
        failing = {
            _derive_seed(spec.master_seed, "gdro", "S", 0),
            _derive_seed(spec.master_seed, "gdro", "A", 1),
            _derive_seed(spec.master_seed, "erm", "-", 0),
        }
        unscorable = _derive_seed(spec.master_seed, "erm", "-", 1)
        seed_of_model = {}
        real_train, real_evaluate = mitigation.train, harness.evaluate

        def flaky_train(method, dataset, cfg, seed, val=None):
            if seed in failing:
                raise EmptyGroup("injected")
            model = real_train(method, dataset, cfg, seed, val=val)
            seed_of_model[id(model)] = seed
            return model

        def flaky_evaluate(model, test):
            if seed_of_model[id(model)] == unscorable:
                raise SubshiftError("injected when scored")
            return real_evaluate(model, test)

        monkeypatch.setattr(mitigation, "train", flaky_train)
        monkeypatch.setattr(harness, "evaluate", flaky_evaluate)
        record = run_sweep(spec)
        assert [(e["method"], e["grouping"], e["seed"], e["error"]) for e in record.errors] == [
            ("gdro", "A", 1, "EmptyGroup: injected"),
            ("gdro", "S", 0, "EmptyGroup: injected"),
            ("erm", "-", 0, "EmptyGroup: injected"),
            ("erm", "-", 1, "SubshiftError: injected when scored"),
        ]
        # ERM's unscorable model is copied to no scheme
        cells = {(r["method"], r["grouping"], r["seed"]) for r in record.rows}
        assert cells == {("gdro", "A", 0), ("gdro", "S", 1)}

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

    def test_each_seed_draws_its_test_split_after_fitting(self, monkeypatch):
        """Fit then score: a seed's test split is drawn only once every cell
        of that seed has trained."""
        spec = tiny_spec(seeds=(0, 1))
        seed_of = {_derive_seed(spec.master_seed, "data", seed): seed for seed in spec.seeds}
        for seed in spec.seeds:
            seed_of[_derive_seed(spec.master_seed, "erm", "-", seed)] = seed
            for name in spec.schemes:
                seed_of[_derive_seed(spec.master_seed, "gdro", name, seed)] = seed
        calls = []
        real_train, real_test_split = mitigation.train, harness.make_test_split

        def recording_train(method, dataset, cfg, seed, val=None):
            calls.append(("train", seed_of[seed]))
            return real_train(method, dataset, cfg, seed, val=val)

        def recording_test_split(cfg, n_test, seed):
            calls.append(("test", seed_of[seed]))
            return real_test_split(cfg, n_test, seed)

        monkeypatch.setattr(mitigation, "train", recording_train)
        monkeypatch.setattr(harness, "make_test_split", recording_test_split)
        record = run_sweep(spec)
        assert record.errors == ()
        cells = 1 + len(spec.schemes)  # ERM once, gdro per scheme
        assert calls == [("train", 0)] * cells + [("test", 0)] + [("train", 1)] * cells + [("test", 1)]

    def test_every_cell_gets_the_spec_train_and_its_derived_seed(self, monkeypatch):
        spec = tiny_spec(schemes=("A", "S"), seeds=(0, 1), master_seed=5)
        calls = []
        real_train = mitigation.train

        def recording_train(method, dataset, cfg, seed, val=None):
            calls.append((method, dataset.group_scheme, cfg, seed))
            return real_train(method, dataset, cfg, seed, val=val)

        monkeypatch.setattr(mitigation, "train", recording_train)
        assert run_sweep(spec).errors == ()
        assert len(calls) == 2 * (1 + len(spec.schemes))  # per seed: ERM once, gdro per scheme
        assert all(cfg is spec.train for _, _, cfg, _ in calls)
        cells = [(method, "-" if scheme is None else scheme.name, seed) for method, scheme, _, seed in calls]
        assert cells == [
            (method, name, _derive_seed(5, method, name, seed))
            for seed in spec.seeds
            for method, name in (("erm", "-"), ("gdro", "A"), ("gdro", "S"))
        ]
        # The plan lists the same cells and seeds, method-major; the sweep trains them seed-major.
        _, planned = harness._plan_sweep(spec)
        run_order = sorted(planned, key=lambda c: (spec.seeds.index(c[2]), ("-", *spec.schemes).index(c[1])))
        assert cells == [(method, name, cell_seed) for method, name, _, cell_seed in run_order]
        assert [c[:3] for c in planned] == [
            (method, name, seed) for method, name in (("erm", "-"), ("gdro", "A"), ("gdro", "S")) for seed in spec.seeds
        ]

    def test_sweep_never_imports_numpy_ma(self):
        """gDRO's step and _group_sizes count groups with np.bincount;
        np.unique would import numpy.ma on its first call."""
        code = (
            "import sys\n"
            "from subshift.dist_core import biased_distribution\n"
            "from subshift.grouping import GroupingScheme, annotate_samples\n"
            "from subshift.harness import ExperimentSpec, run_sweep\n"
            "from subshift.mitigation import TrainConfig, train\n"
            "from subshift.synth_data import FeatureConfig, sample_dataset\n"
            "spec = ExperimentSpec(methods=('erm', 'gdro'), schemes=('A', 'AY'), seeds=(0,),\n"
            "                      n_train=200, n_val=100, n_test=200, train=TrainConfig(epochs=1))\n"
            "assert run_sweep(spec).errors == ()\n"
            "tr = sample_dataset(biased_distribution(0.95, 0.8), 200, FeatureConfig(), seed=0)\n"
            "train('domain_ind', annotate_samples(tr, GroupingScheme('A'), seed=0), TrainConfig(epochs=1), 0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cell_seed_hashes_seed_value_not_position(self):
        # (gdro, AY, 1) is first in one sweep and in the middle of the other
        alone = run_sweep(tiny_spec(seeds=(1,), schemes=("AY",)))
        among = run_sweep(tiny_spec(seeds=(0, 1), schemes=("Y", "AY", "S")))
        cell = ("gdro", "AY", 1)
        [row] = [r for r in alone.rows if (r["method"], r["grouping"], r["seed"]) == cell]
        assert row in among.rows

    def test_doomed_seed_trains_nothing(self, monkeypatch):
        """At n_test=8 and master seed 0, seed 1's test split has no (a=0, s=0)
        row and seed 0's has all four (a, s) cells: checked below by drawing
        both test splits, so the doomed seed was found, not assumed."""
        spec = tiny_spec(seeds=(0, 1), n_test=8)
        tests = {seed: harness.make_test_split(spec.feature, 8, _derive_seed(0, "data", seed)) for seed in spec.seeds}
        assert np.bincount(2 * tests[0].a + tests[0].s, minlength=4).all()
        assert not np.any((tests[1].a == 0) & (tests[1].s == 0))
        trained = []
        real_train = mitigation.train

        def recording_train(method, dataset, cfg, seed, val=None):
            trained.append(seed)
            return real_train(method, dataset, cfg, seed, val=val)

        monkeypatch.setattr(mitigation, "train", recording_train)
        record = run_sweep(spec)
        cells = [("erm", "-")] + [("gdro", name) for name in spec.schemes]
        assert trained == [_derive_seed(0, method, name, 0) for method, name in cells]
        assert record.errors == tuple(
            {"method": m, "grouping": g, "seed": 1, "error": "MissingCell: no samples with a=0, s=0"} for m, g in cells
        )
        assert record.rows == run_sweep(tiny_spec(seeds=(0,), n_test=8)).rows

    def test_calls_every_name_the_benchmark_tracer_patches(self, monkeypatch):
        """perfbench/tracer.py times a sweep by replacing these names where the sweep looks them up."""
        calls = {}

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("make_splits", "annotate_samples", "evaluate", "auc", "min_kl_table"):
            count(harness, name)
        count(mitigation, "train")
        assert run_sweep(tiny_spec(schemes=("A", "S"), train=TrainConfig(epochs=1))).errors == ()
        assert calls == {
            "min_kl_table": 1,
            "make_splits": 1,
            "annotate_samples": 4,  # train and val, per scheme
            "train": 3,  # ERM once, gdro per scheme
            "auc": 3,  # each model's val AUC
            "evaluate": 3,
        }

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

    def test_delta_is_nan_without_erm(self, tiny_record):
        rows = [r for r in tiny_record.rows if r["method"] == "gdro"]
        lines = relative_auc_csv(rows).splitlines()
        assert len(lines) == 4
        assert all(l.split(",")[4] == "nan" for l in lines[1:])

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

    def test_manifest_records_the_numeric_environment(self, tiny_record, tmp_path):
        write_run_outputs(tiny_record, tiny_spec(), tmp_path)
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env == harness._environment()  # survives the JSON round trip
        assert set(env) == {"python", "numpy", "blas", "simd"}
        assert set(env["blas"]) == {"name", "version", "openblas configuration"}
        assert set(env["simd"]) == {"baseline", "found"}
        assert env["numpy"] == np.__version__
        assert env["python"] == platform.python_version()

    def test_environment_is_null_where_numpy_cannot_report_it(self, monkeypatch):
        def show_config():  # numpy before 1.26: no mode= argument, prints only
            raise AssertionError("printed")

        monkeypatch.setattr(np, "show_config", show_config)
        env = harness._environment()
        assert env["numpy"] == np.__version__
        assert env["blas"] == {"name": None, "version": None, "openblas configuration": None}
        assert env["simd"] == {"baseline": None, "found": None}

    def test_one_version_in_package_manifest_and_pyproject(self, tiny_record, tmp_path):
        write_run_outputs(tiny_record, tiny_spec(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        project = re.search(r'^\[project\]$.*?^version = "([^"]+)"$', pyproject, re.S | re.M)
        assert subshift.__version__ == manifest["version"] == project.group(1)


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


# An ablation small enough for a test: small_n trains on 100 samples.
ABLATE_CONFIG = {
    "methods": ["erm", "gdro"],
    "schemes": ["Y", "AY", "S"],
    "seeds": [0],
    "n_train": 800,
    "n_val": 200,
    "n_test": 400,
    "feature": {"d_y": 2, "d_a": 2, "d_s": 2},
    "train": {"epochs": 2},
}
ABLATE_VARIANTS = ("baseline", "weak_shift", "small_n")
# One ERM cell; each too-large case overrides one size (a resampling batch, the method too).
TOO_LARGE_BASE = {"methods": ["erm"], "schemes": ["A"], "seeds": [0], "n_train": 256, "n_val": 32, "n_test": 64, "train": {"epochs": 1}}
# Starts a child script: caps its address space at 4 GiB before numpy loads,
# so that an allocation too large for the cap fails instead of taking memory.
MEMORY_CAP = (
    "import resource, sys\n"
    "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
    "cap = 4 * 2**30 if hard == resource.RLIM_INFINITY else min(4 * 2**30, hard)\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
)


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

    def test_divergence_that_rounds_below_zero_prints_zero(self, capsys):
        # -3.7e-23 before rounding; a KL divergence is never written negative
        assert main(["analyze-kl", "--p-s0", "0.6", "--p-s1", "0.6", "--scheme", "Noisy_AY_0.10"]) == 0
        assert "Noisy_AY_0.10,0.000000,0.000200" in capsys.readouterr().out.splitlines()

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

    def test_analyze_kl_config_skips_only_the_method_scheme_pairing(self, tmp_path, capsys):
        """The table reads the schemes and the bias levels, never the methods."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"methods": ["cfair"], "schemes": ["A", "Y"]}))
        assert main(["analyze-kl", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "scheme,kl_gdro,kl_resampling",
            "A,0.526755,0.526755",
            "Y,0.526755,0.526755",
        ]
        cfg_path.write_text(json.dumps({"methods": ["cfair"]}))  # no model-based default either
        assert main(["analyze-kl", "--config", str(cfg_path)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [line.split(",")[0] for line in rows] == list(DEFAULT_SCHEMES)

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"methods": ["cfair"], "schemes": ["A", "Y"], "epochs": 3}, "unknown top-level key 'epochs'"),
            ({"methods": ["cfair"], "schemes": "A"}, "ExperimentSpec field 'schemes' has the wrong type: 'A'"),
            ({"methods": ["cfair"], "schemes": ["A", "NOPE"]}, "unknown scheme name 'NOPE'"),
            ({"methods": ["cfair"], "schemes": ["A", "Y", "A"]}, "schemes lists 'A' more than once"),
            ({"methods": ["cfair"], "schemes": ["A", "Y"], "p_s0": 1.0}, "p_s0 must lie strictly inside (0, 1)"),
            ({"methods": ["cfair"], "schemes": ["A", "Y"], "p_s1": 0}, "p_s1 must lie strictly inside (0, 1)"),
        ],
        ids=["unknown_key", "wrong_type", "unknown_scheme", "repeated_scheme", "p_s0_1", "p_s1_0"],
    )
    def test_analyze_kl_config_keeps_its_other_checks(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["analyze-kl", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and message in captured.err

    def test_analyze_kl_rejects_repeated_scheme(self, capsys):
        """--scheme fills the spec's scheme list, so it is checked as --schemes is."""
        assert main(["analyze-kl", "--scheme", "A", "--scheme", "A"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schemes lists 'A' more than once" in captured.err

    def test_correlate_names_the_method_with_constant_kl(self, tmp_path, capsys):
        rows = synthetic_rows("gdro", "min_kl_gdro", [0.5, 0.5, 0.5], lambda kl: 0.9 - kl)
        filler = dict.fromkeys(harness.RESULT_COLUMNS[3:], 0.0)
        (tmp_path / "results.csv").write_text(results_csv([{**filler, **r} for r in rows]))
        assert main(["correlate", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: gdro: every scheme has the same min_kl_gdro (0.500000), so its correlation is undefined\n"
        )

    @pytest.mark.parametrize(
        "header,row,message",
        [
            (RESULTS_HEADER.replace("seed,", ""), "gdro,A," + "0.5," * 7 + "0.5", "results.csv line 1: no column seed"),
            (RESULTS_HEADER, "gdro,A,0,x," + "0.5," * 6 + "0.5", "results.csv line 2: cannot read val_auc from 'x'"),
            (RESULTS_HEADER, "gdro,A,0.5," + "0.5," * 7 + "0.5", "results.csv line 2: cannot read seed from '0.5'"),
        ],
        ids=["missing_column", "non_numeric_metric", "non_integer_seed"],
    )
    def test_correlate_refuses_a_malformed_results_csv(self, tmp_path, capsys, header, row, message):
        (tmp_path / "results.csv").write_text(f"{header}\n{row}\n")
        assert main(["correlate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize(
        "make",
        [lambda path: path.mkdir(), lambda path: path.write_bytes(b"\xff\xfe" + RESULTS_HEADER.encode("utf-16-le"))],
        ids=["directory", "utf16_bytes"],
    )
    def test_correlate_refuses_an_unreadable_results_csv(self, tmp_path, capsys, make):
        make(tmp_path / "results.csv")
        assert main(["correlate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read {tmp_path / 'results.csv'}: ")

    @pytest.mark.parametrize("command", ["run", "ablate", "analyze-kl", "correlate"])
    @pytest.mark.parametrize("below", [(), ("x",), ("x", "y")], ids=["file", "under_file", "two_under_file"])
    def test_out_blocked_by_a_file_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command, below):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(harness, "make_splits", no_work)  # no data is drawn
        monkeypatch.setattr(harness, "compute_kl_rows", no_work)  # and no table is built
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker.joinpath(*below)
        assert main([command, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out}: {blocker} is not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"] and blocker.read_text() == "kept"

    @staticmethod
    def no_work(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the outputs were checked")

        monkeypatch.setattr(harness, "make_splits", fail)  # no data is drawn
        monkeypatch.setattr(harness, "compute_kl_rows", fail)  # and no table is built

    @pytest.mark.parametrize(
        "command,blocked,kind",
        [
            ("run", "results.csv", "dir"),
            ("run", "manifest.json", "dir"),
            ("analyze-kl", "kl_table.csv", "dir"),
            ("correlate", "correlation.csv", "dir"),
            ("correlate", "scatter_gdro.csv", "dir"),
            ("ablate", "weak_shift", "file"),
            ("ablate", "baseline/scatter_gdro.csv", "dir"),
            ("ablate", "ablation_summary.csv", "dir"),
        ],
        ids=["run_results", "run_manifest", "kl_table", "correlation", "scatter", "ablate_variant", "ablate_scatter", "ablate_summary"],
    )
    def test_blocked_output_inside_out_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command, blocked, kind):
        """A directory where a file goes, or a file where a directory goes, exits 2 and creates nothing."""
        self.no_work(monkeypatch)
        out = tmp_path / "out"
        out.mkdir()
        if command == "correlate":  # correlate reads results.csv to learn its scatter files' names
            rows = synthetic_rows("gdro", "min_kl_gdro", [0.1, 0.2, 0.3], lambda kl: 0.9 - kl)
            filler = dict.fromkeys(harness.RESULT_COLUMNS[3:], 0.0)
            (out / "results.csv").write_text(results_csv([{**filler, **r} for r in rows]))
        path = out / blocked
        path.parent.mkdir(parents=True, exist_ok=True)
        path.mkdir() if kind == "dir" else path.write_text("kept")
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = "is a directory" if kind == "dir" else "is not a directory"
        assert captured.err == f"error: --out {out}: {path} {reason}\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--methods", "unknown method ''"),
            ("--schemes", "unknown scheme name ''"),
            ("--seeds", "--seeds takes comma-separated integers, got ''"),
        ],
        ids=["methods", "schemes", "seeds"],
    )
    def test_blank_list_flag_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command, flag, message):
        """A blank flag is the list [""], refused as {"methods": []} is, not read as an absent flag."""
        self.no_work(monkeypatch)
        out = tmp_path / "out"
        assert main([command, flag, "", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert message in captured.err
        assert not out.exists()

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

    def test_diverged_model_is_an_error_row_not_a_nan_result(self, tmp_path, capsys, monkeypatch):
        # every gDRO model comes back with NaN parameters, so its scores are NaN
        config = {
            "methods": ["erm", "gdro"],
            "schemes": ["A", "AY", "S"],
            "seeds": [0],
            "n_train": 64,
            "n_val": 32,
            "n_test": 64,
            "train": {"epochs": 1},
        }
        real_train = mitigation.train

        def diverging_train(method, dataset, cfg, seed, val=None):
            model = real_train(method, dataset, cfg, seed, val=val)
            if method == "gdro":
                model.params.flat[:] = np.nan
            return model

        monkeypatch.setattr(mitigation, "train", diverging_train)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="risks empty groups for AY"):
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        errors = json.loads((out / "manifest.json").read_text())["errors"]
        assert [(e["method"], e["grouping"]) for e in errors] == [("gdro", "A"), ("gdro", "AY"), ("gdro", "S")]
        assert all(e["error"] == "DegenerateInput: AUC needs finite scores" for e in errors)
        results = (out / "results.csv").read_text()
        assert "nan" not in results
        assert [line.split(",")[0] for line in results.splitlines()[1:]] == ["erm"] * 3

    @pytest.mark.parametrize(
        "methods,train_cfg",
        [
            (["erm", "gdro", "resampling", "domain_ind", "cfair", "jtt"], {"epochs": 2, "lr": 1e300}),
            (["cfair"], {"epochs": 2, "cfair_mu": 1e308}),
        ],
        ids=("lr", "cfair_mu"),
    )
    def test_diverging_training_is_one_warning_free_error_row_per_cell(self, tmp_path, capsys, methods, train_cfg):
        """An accepted config whose training overflows ends each cell in the
        epoch where it diverged; numpy warns of nothing. At cfair_mu 1e308
        only Adam's second moment overflows, which would freeze the model."""
        config = {
            "methods": methods,
            "schemes": ["A", "AS", "SC_noSC"],
            "seeds": [0],
            "n_train": 400,
            "n_val": 200,
            "n_test": 400,
            "train": train_cfg,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        errors = json.loads((out / "manifest.json").read_text())["errors"]
        cells = [("erm", "-")] * ("erm" in methods) + [(m, s) for m in methods if m != "erm" for s in config["schemes"]]
        assert [(e["method"], e["grouping"]) for e in errors] == cells
        # JTT's first run is its one-epoch stage one, and its rows say so
        assert all(re.match(r"DegenerateInput: training diverged in epoch 1 of [12]: ", e["error"]) for e in errors)
        assert [e["error"].endswith(" (jtt stage 1, 1 epoch)") for e in errors] == [m == "jtt" for m, _ in cells]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(errors)
        assert all(line.startswith("cell failed: ") and "training diverged in epoch 1" in line for line in err)
        assert (out / "results.csv").read_text().count("\n") == 1  # the header alone

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
        "config,message,flag,value",
        [
            # the config's Y, which the flag replaces, is a function of y
            (
                {"methods": ["erm", "cfair"], "schemes": ["A", "Y"]},
                "cfair needs y-free groups, but Y groups",
                "schemes",
                ["A", "S", "SC_noSC"],
            ),
            ({"schemes": ["A"], "seeds": [0, 0]}, "seeds lists 0 more than once", "seeds", [1]),
        ],
        ids=["schemes_flag", "seeds_flag"],
    )
    def test_flags_repair_a_config_refused_on_its_own(self, tmp_path, capsys, config, message, flag, value):
        """Flags are laid over --config before the spec is built and checked, once."""
        small = {"seeds": [0], "n_train": 64, "n_val": 32, "n_test": 64, "train": {"epochs": 1}}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**small, **config}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "alone")]) == 2
        assert message in capsys.readouterr().err
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--out", str(out), f"--{flag}", ",".join(map(str, value))]
        assert main(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["spec"][flag] == value

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("methods", ["cfair", "erm,domain_ind"])
    def test_y_free_method_without_schemes_takes_the_model_based_list(self, command, methods):
        def schemes(*flags):
            return harness._spec_from_args(harness._build_parser().parse_args([command, *flags])).schemes

        assert schemes("--methods", methods) == tuple(s.name for s in model_based_schemes())
        assert schemes("--methods", methods, "--schemes", "A,S,SC_noSC") == ("A", "S", "SC_noSC")
        assert schemes("--methods", "erm,gdro") == DEFAULT_SCHEMES

    def test_y_free_config_without_schemes_runs_on_the_model_based_list(self, tmp_path, capsys):
        config = {"methods": ["cfair", "domain_ind"], "seeds": [0], "n_train": 64, "n_val": 32, "n_test": 64}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**config, "train": {"epochs": 1}}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        names = [s.name for s in model_based_schemes()]
        assert json.loads((out / "manifest.json").read_text())["spec"]["schemes"] == names
        rows = read_results_csv(out / "results.csv")
        assert sorted((r["method"], r["grouping"]) for r in rows) == sorted(
            (m, n) for m in config["methods"] for n in names
        )

    def test_flag_only_spec_keeps_its_hash(self):
        argv = ["run", "--seeds", "0,1,2", "--methods", "erm,gdro,resampling", "--p-s0", "0.95"]
        spec = harness._spec_from_args(harness._build_parser().parse_args(argv))
        assert spec == ExperimentSpec()
        assert spec_hash(spec) == "30596d927656c744758a6514d0bca501efb25f9c1d872553072e5f41a3aa39d1"

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"epochs": 3}, "unknown top-level key 'epochs'"),
            ({"feature": {"mu": 1.0}}, "unknown feature key 'mu'"),
            ({"train": {"epochz": 3}}, "unknown train key 'epochz'"),
            ({"train": {"jtt_upweight": 5.0}}, "unknown train key 'jtt_upweight'"),
            # neither is a TrainConfig field, so even the old default value is refused
            ({"train": {"seed": 0}}, "unknown train key 'seed'"),
            ({"train": {"domain_ind_rule": "max_abs"}}, "unknown train key 'domain_ind_rule'"),
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        reached = AssertionError("make_splits ran for a malformed spec")
        with mock.patch.object(harness, "make_splits", side_effect=reached):
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert message in err

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "cannot read --config"),
            ("{bad json", "cannot read --config"),
            ('{"seeds": 5}', "ExperimentSpec field 'seeds' has the wrong type: 5"),
            ('{"n_train": "abc"}', "ExperimentSpec field 'n_train' has the wrong type: 'abc'"),
            ('{"train": {"batch_size": 0}}', "batch_size must be >= 1, got 0"),
            ('{"train": {"epochs": 0}}', "epochs must be >= 1, got 0"),
            ('{"train": {"hidden": 0}}', "hidden must be >= 1, got 0"),
            ('{"train": {"lr": -1.0}}', "lr must be > 0, got -1.0"),
            ('{"train": {"domain_ind_rule": "vote"}}', "unknown train key 'domain_ind_rule' in --config"),
            ('{"train": {"epochs": 1.5}}', "TrainConfig field 'epochs' has the wrong type: 1.5"),
            ('{"train": {"weight_decay": -0.1}}', "weight_decay must be >= 0, got -0.1"),
            ('{"train": {"lr_decay_epoch": -1}}', "lr_decay_epoch must be >= 0, got -1"),
            ('{"train": {"lr_decay_factor": 0}}', "lr_decay_factor must be > 0, got 0"),
            ('{"train": {"seed": 12345}}', "unknown train key 'seed' in --config"),
            ('{"methods": []}', "at least one method is required"),
            ('{"schemes": "AY"}', "ExperimentSpec field 'schemes' has the wrong type: 'AY'"),
        ],
        ids=[
            "missing_file",
            "invalid_json",
            "seeds_not_a_list",
            "n_train_not_an_int",
            "batch_size_0",
            "epochs_0",
            "hidden_0",
            "lr_negative",
            "domain_ind_rule_unknown",
            "epochs_float",
            "weight_decay_negative",
            "lr_decay_epoch_negative",
            "lr_decay_factor_0",
            "train_seed_nonzero",
            "methods_empty",
            "schemes_str",
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

    def test_ablate_writes_every_variant(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(ABLATE_CONFIG))
        tables = []
        real_table = harness.min_kl_table

        def counted_table(*args):
            tables.append(args)
            return real_table(*args)

        monkeypatch.setattr(harness, "min_kl_table", counted_table)
        csvs = {}
        for run in ("first", "second"):
            out = tmp_path / run
            tables.clear()
            assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert len(tables) == 2  # one per distinct bias, shared by its variants' checks and sweeps
            csvs[run] = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
        names = ("results", "relative_auc", "disparity", "correlation", "scatter_gdro")
        for variant in ABLATE_VARIANTS:
            for name in names:
                assert f"{variant}/{name}.csv" in csvs["first"]
        assert csvs["first"] == csvs["second"]
        for variant in ABLATE_VARIANTS:  # correlate rereads results.csv and rewrites the same bytes
            assert main(["correlate", "--out", str(tmp_path / "first" / variant)]) == 0
            rewritten = (tmp_path / "first" / variant / "correlation.csv").read_bytes()
            assert rewritten == csvs["first"][f"{variant}/correlation.csv"], variant
        summary = csvs["first"]["ablation_summary.csv"].decode().splitlines()
        assert summary[0] == "variant,method,pearson_r,p_value,baseline_r,sign_preserved,erm_val_test_auc_drop"
        assert [line.split(",")[:2] for line in summary[1:]] == [[v, "gdro"] for v in ABLATE_VARIANTS]
        assert summary[1].split(",")[5] == "1"

    def test_ablate_builds_one_table_per_distinct_bias(self, tmp_path, monkeypatch):
        """small_n keeps the baseline's (schemes, p_s0, p_s1), so its check and its sweep reuse that table."""
        tables, runs = [], []
        real_table = harness.min_kl_table

        def counted_table(*args):
            tables.append(real_table(*args))
            return tables[-1]

        def no_cells(spec, kl_rows, seeds):
            runs.append(kl_rows)
            return harness.RunRecord(rows=(), kl_rows=tuple(kl_rows), errors=(), started="", finished="")

        monkeypatch.setattr(harness, "min_kl_table", counted_table)
        monkeypatch.setattr(harness, "_run_plan", no_cells)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(ABLATE_CONFIG))
        assert main(["ablate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert len(tables) == 2
        baseline, weak_shift, small_n = runs
        assert baseline is tables[0] and weak_shift is tables[1] and small_n is tables[0]

    def test_ablate_reports_failed_cells_and_exits_1(self, tmp_path, capsys, monkeypatch):
        config = dict(ABLATE_CONFIG, schemes=["A", "Y", "AY", "S"])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        failing = _derive_seed(0, "gdro", "A", 0)  # the same cell seed in every variant
        real_train = mitigation.train

        def flaky_train(method, dataset, cfg, seed, val=None):
            if seed == failing:
                raise EmptyGroup("injected")
            return real_train(method, dataset, cfg, seed, val=val)

        monkeypatch.setattr(mitigation, "train", flaky_train)
        out = tmp_path / "out"
        assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 1
        failures = [l for l in capsys.readouterr().err.splitlines() if l.startswith("cell failed: ")]
        assert len(failures) == len(ABLATE_VARIANTS)
        assert all("'gdro'" in l and "'A'" in l and "EmptyGroup: injected" in l for l in failures)
        assert len((out / "ablation_summary.csv").read_text().splitlines()) == 1 + len(ABLATE_VARIANTS)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"schemes": ["A", "S"]}, "error: gdro: need at least 3 schemes, have 2"),
            # all three have min KL 0.526755 at the default bias
            (
                {"schemes": ["A", "S", "Random"]},
                "error: gdro: every scheme has the same min_kl_gdro (0.526755) in the baseline",
            ),
            # at this bias A's min KL differs from S's and Random's in the last bit only,
            # and results.csv stores all three as 0.211924
            (
                {"schemes": ["A", "S", "Random"], "p_s0": 0.85, "p_s1": 0.70},
                "error: gdro: every scheme has the same min_kl_gdro (0.211924) in the baseline",
            ),
        ],
        ids=["two_schemes", "equal_min_kl", "equal_at_six_decimals"],
    )
    def test_ablate_undefined_correlation_fails_before_any_data(self, tmp_path, capsys, overrides, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**ABLATE_CONFIG, **overrides}))
        out = tmp_path / "out"
        reached = AssertionError("make_splits ran for an ablation whose correlation is undefined")
        with mock.patch.object(harness, "make_splits", side_effect=reached):
            assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize(
        "size,message",
        [
            ({"n_test": 1}, "no seed can be scored: seed 0's test split (n_test=1): no samples with a=0, s="),
            ({"n_val": 1}, "no seed can be scored: seed 0's val split (n_val=1): AUC needs both classes\n"),
        ],
        ids=["n_test_1", "n_val_1"],
    )
    def test_unscorable_splits_exit_2_before_training(self, tmp_path, capsys, monkeypatch, command, size, message):
        """A split too small to score fails every cell of every seed, so the sweep trains nothing."""
        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(harness.mitigation, "train", no_training)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**ABLATE_CONFIG, "seeds": [0, 1], **size}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux only")
    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"n_train": 10**12}, "error: n_train=1000000000000 rows of feature.dim=15 features: "),
            ({"feature": {"d_y": 10**12}}, "error: n_train=256 rows of feature.dim=1000000000010 features: "),
            (
                {"train": {"epochs": 1, "hidden": 10**9}},
                "error: feature.dim=15 rows of train.hidden=1000000000 encoder weights: Unable to allocate ",
            ),
            (
                {"methods": ["resampling"], "train": {"epochs": 1, "batch_size": 10**9}},
                "error: train.batch_size=1000000000 rows of feature.dim=15 batch features: Unable to allocate ",
            ),
        ],
        ids=["n_train", "d_y", "hidden", "batch_size"],
    )
    def test_split_too_large_to_allocate_exits_2_before_any_draw(self, tmp_path, overrides, message):
        """run and ablate exit 2 and run_sweep raises InvalidConfig, in a child whose address space is capped,
        so that an array the plan let through fails instead of taking memory."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TOO_LARGE_BASE, **overrides}))
        code = MEMORY_CAP + (
            "from subshift import harness\n"
            "from subshift.errors import InvalidConfig\n"
            "def drawn(*args, **kwargs):\n"
            "    raise AssertionError('data was drawn')\n"
            "for name in ('make_splits', 'make_test_split', '_scored_labels'):\n"
            "    setattr(harness, name, drawn)\n"
            "config, out = sys.argv[1:]\n"
            "for command in ('run', 'ablate'):\n"
            "    print(harness.main([command, '--config', config, '--out', f'{out}/{command}']))\n"
            "try:\n"
            "    harness.run_sweep(harness._spec_from_args(harness._build_parser().parse_args(['run', '--config', config])))\n"
            "except InvalidConfig:\n"
            "    print('InvalidConfig')\n"
        )
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-c", code, str(cfg_path), str(out)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "2", "InvalidConfig"]
        err = proc.stderr.splitlines()
        assert len(err) == 2 and all(line.startswith(message) for line in err), proc.stderr
        assert not out.exists()

    def test_ablate_without_a_baseline_correlation_reports_nan(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(ABLATE_CONFIG))
        real_train = mitigation.train
        gdro_calls = []

        def failing_baseline(method, dataset, cfg, seed, val=None):
            if method == "gdro":
                gdro_calls.append(1)
                if len(gdro_calls) <= len(ABLATE_CONFIG["schemes"]):  # the baseline runs first
                    raise EmptyGroup("injected")
            return real_train(method, dataset, cfg, seed, val=val)

        monkeypatch.setattr(mitigation, "train", failing_baseline)
        out = tmp_path / "out"
        assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 1
        summary = [l.split(",") for l in (out / "ablation_summary.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in summary] == [["weak_shift", "gdro"], ["small_n", "gdro"]]
        assert all(row[4] == "nan" and row[5] == "0" for row in summary)

    def test_ablate_goes_on_past_a_variant_it_cannot_correlate(self, tmp_path, capsys):
        """small_n trains on 50 samples, so its (gdro, YSA) cell meets an empty
        group and leaves gdro two schemes to correlate."""
        config = {
            "methods": ["erm", "gdro"],
            "schemes": ["YSA", "AY", "S"],
            "seeds": [0],
            "n_train": 400,
            "n_val": 200,
            "n_test": 400,
            "train": {"epochs": 1},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="risks empty groups"):
            assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert "small_n: correlation failed: gdro: need at least 3 schemes, have 2" in err
        summary = [l.split(",") for l in (out / "ablation_summary.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in summary] == [["baseline", "gdro"], ["weak_shift", "gdro"]]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subshift", "analyze-kl", "--scheme", "YSA"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "YSA,0.000000,0.000000" in proc.stdout

    def test_import_loads_no_scipy(self):
        code = "import subshift.harness, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


SCHEME_NAMES = {s.name for s in reweighting_schemes() + model_based_schemes()}
# A runnable --config: one ERM cell on small splits, one epoch.
VALID_CONFIG = {
    "methods": ["erm"],
    "schemes": ["A"],
    "seeds": [0],
    "n_train": 64,
    "n_val": 32,
    "n_test": 64,
    "train": {"epochs": 1},
}


def _unknown_scheme(name: str) -> bool:
    return name not in SCHEME_NAMES and not re.fullmatch(r"Noisy_AY?_0\.\d\d", name)


def _malformed_configs():
    """One malformation of VALID_CONFIG, as a dict merged over it."""
    names = st.text(max_size=10)
    unknown = st.one_of(
        names.filter(lambda n: n not in mitigation.METHODS).map(lambda n: {"methods": ["erm", n]}),
        st.one_of(names, names.map("Noisy_AY_".__add__))
        .filter(_unknown_scheme)
        .map(lambda n: {"schemes": ["A", n]}),
    )
    repeated = st.one_of(
        st.sampled_from(mitigation.METHODS).map(lambda m: {"methods": [m, m]}),
        st.sampled_from(DEFAULT_SCHEMES).map(lambda s: {"schemes": [s, "A", s]}),
        st.integers(0, 2**31).map(lambda i: {"seeds": [i, 0, i]}),
    )
    small = st.tuples(st.sampled_from(["n_train", "n_val", "n_test"]), st.integers(max_value=0))
    bias = st.tuples(
        st.sampled_from(["p_s0", "p_s1"]),
        st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0)),
    )
    below_one = st.tuples(st.sampled_from(["epochs", "batch_size", "hidden"]), st.integers(max_value=0))
    not_positive = st.tuples(st.sampled_from(["lr", "lr_decay_factor"]), st.floats(max_value=0.0))
    negative = st.one_of(
        st.tuples(
            st.sampled_from(["weight_decay", "gdro_eta", "gdro_size_adjust", "cfair_mu"]),
            st.floats(max_value=0.0, exclude_max=True),
        ),
        st.tuples(st.just("lr_decay_epoch"), st.integers(max_value=-1)),
    )
    non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
    train_floats = ["lr", "weight_decay", "lr_decay_factor", "gdro_eta", "gdro_size_adjust", "cfair_mu"]
    feature = st.one_of(
        st.tuples(st.sampled_from(["mu_y", "mu_a", "mu_s", "noise_sd"]), non_finite),
        st.tuples(st.just("noise_sd"), st.floats(max_value=0.0)),
    ).map(lambda kv: {"feature": dict([kv])})
    train = st.one_of(
        below_one,
        not_positive,
        negative,
        st.tuples(st.sampled_from(train_floats), non_finite),
        st.tuples(st.just("epochs"), st.floats()),  # JSON floats never fit an int field
        st.tuples(st.just("domain_ind_rule"), names.filter(lambda n: n not in ("max_abs", "sum"))),
        st.tuples(st.just("seed"), st.integers().filter(bool)),  # cells derive seeds from master_seed
    ).map(lambda kv: {"train": {"epochs": 1, kv[0]: kv[1]}})
    return st.one_of(unknown, repeated, st.one_of(small, bias).map(lambda kv: dict([kv])), feature, train)


class TestMalformedSpecs:
    @given(malformed=_malformed_configs())
    @settings(max_examples=150, deadline=None)
    def test_rejected_before_data_is_drawn(self, malformed):
        reached = AssertionError("make_splits ran for a malformed spec")
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(harness, "make_splits", side_effect=reached):
            cfg_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
            cfg_path.write_text(json.dumps({**VALID_CONFIG, **malformed}))
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2, malformed
            assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("train", "gdro_eta", float("nan"), "gdro_eta must be finite, got nan"),
            ("feature", "noise_sd", float("nan"), "noise_sd must be finite, got nan"),
            ("feature", "mu_a", float("inf"), "mu_a must be finite, got inf"),
            ("train", "cfair_mu", -5, "cfair_mu must be >= 0, got -5"),
        ],
        ids=["gdro_eta_nan", "noise_sd_nan", "mu_a_inf", "cfair_mu_negative"],
    )
    def test_non_finite_or_negative_strength_exits_2(self, tmp_path, capsys, section, key, value, message):
        """JSON carries NaN and Infinity; each such value fails with one error line."""
        cfg_path, out = tmp_path / "config.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({**VALID_CONFIG, section: {key: value}}))
        reached = AssertionError("make_splits ran for a malformed spec")
        with mock.patch.object(harness, "make_splits", side_effect=reached):
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert message in err
        assert not out.exists()

    def test_valid_config_reaches_make_splits(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(VALID_CONFIG))
        reached = AssertionError("make_splits reached")
        with mock.patch.object(harness, "make_splits", side_effect=reached), pytest.raises(AssertionError, match="reached"):
            main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])


CONTRACT_BASE = {
    "methods": ["erm", "gdro", "resampling", "domain_ind", "cfair", "jtt"],
    "schemes": ["A", "AS", "SC_noSC"],
    "seeds": [0],
    "n_train": 64,
    "n_val": 64,
    "n_test": 128,
    "train": {"epochs": 1},
}
# The warnings a run may raise; the README documents each
DOCUMENTED_WARNINGS = (
    "risks empty groups",
    "the min-KL solve stopped",
    "stage-1 model makes no training errors; upweighting is a no-op",
)


def _edge_values(cls):
    """(field, value) pairs at the edges of cls's numeric fields: each int at its declared
    min; each float at 1e308 and at its lower edge (5e-324 above a bound, the bound itself
    as a min, or -1e308 when unbounded)."""
    for f in fields(cls):
        if isinstance(f.default, int):
            yield f.name, f.metadata["min"]
            continue
        yield f.name, 1e308
        if "above" in f.metadata:
            yield f.name, 5e-324
        elif "min" in f.metadata:
            yield f.name, float(f.metadata["min"])
        else:
            yield f.name, -1e308


EDGE_CASES = [
    pytest.param(section, name, value, id=f"{section}.{name}={value!r}")
    for section, cls in (("feature", FeatureConfig), ("train", TrainConfig))
    for name, value in _edge_values(cls)
]


class TestAcceptedSpecs:
    """An accepted config exits 0, 1 or 2 by the CLI contract, with no numpy warning."""

    @pytest.mark.parametrize("section,key,value", EDGE_CASES)
    def test_edge_value_meets_the_contract(self, tmp_path, capsys, section, key, value):
        cfg_path, out = tmp_path / "config.json", tmp_path / "out"
        cfg_path.write_text(json.dumps({**CONTRACT_BASE, section: {**CONTRACT_BASE.get(section, {}), key: value}}))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == []
        elif code == 1:
            assert err and all(line.startswith("cell failed: ") for line in err), err
        else:
            assert code == 2
            assert len(err) == 1 and err[0].startswith("error: "), err
            assert not out.exists()
        for w in seen:
            assert w.category is UserWarning and any(d in str(w.message) for d in DOCUMENTED_WARNINGS), w


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
