import json
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subshift
from subshift import harness, mitigation
from subshift.errors import (
    DegenerateInput,
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
    DEFAULT_SCHEMES,
    REFERENCE_TABLE,
    ExperimentSpec,
    _derive_seed,
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

from refused_inputs import CONFIG_BOUNDS, REFUSED_INPUTS, SPEC_FIELD, check_refusal, config_argv, refuses, run_main


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


# The REFUSED_INPUTS a --config can write: JSON has no numpy integer, and a JSON list is how it writes a tuple.
JSON_REFUSED_INPUTS = {
    key: value for key, value in REFUSED_INPUTS.items() if key not in ("methods_list", "epochs_numpy_int")
}


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

    @pytest.mark.parametrize("cls,kwargs", JSON_REFUSED_INPUTS.values(), ids=JSON_REFUSED_INPUTS.keys())
    def test_refused_input_never_reaches_make_splits(self, tmp_path, cls, kwargs):
        """Each refused input a --config can hold is refused by the command line, with the constructor's message."""
        ((name, value),) = kwargs.items()
        config = config_argv(tmp_path, {**VALID_CONFIG, **_with_field(cls, name, value)})
        assert refuses(config, tmp_path) == f"error: {cls.__name__} field {name!r} has the wrong type: {value!r}"


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

    @pytest.mark.parametrize(
        "feature", [FeatureConfig(), FeatureConfig(d_y=2, d_a=2, d_s=2)], ids=["default_features", "two_per_block"]
    )
    def test_a_cell_does_not_depend_on_the_rest_of_the_sweep(self, feature):
        """Adding schemes and seeds around a cell, in any order, leaves its row unchanged:
        a cell's seed hashes its seed value, not its position in the plan."""
        spec = partial(tiny_spec, methods=mitigation.METHODS, feature=feature)
        small = run_sweep(spec(schemes=("A", "SC_noSC"), seeds=(0,)))
        large = run_sweep(spec(schemes=("S", "SC_noSC", "AS", "A"), seeds=(3, 0)))
        assert small.errors == large.errors == ()
        by_cell = {(r["method"], r["grouping"], r["seed"]): r for r in large.rows}
        assert len(small.rows) == 12
        assert [by_cell[r["method"], r["grouping"], r["seed"]] for r in small.rows] == list(small.rows)

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

    def test_no_warning_for_methods_that_count_no_train_groups(self):
        """erm ignores groups and jtt reads only val's, so at n_train 20, where a train group
        may be empty, the sweep neither warns nor fails a cell."""
        spec = ExperimentSpec(
            methods=("erm", "jtt"),
            schemes=("A", "SC_noSC", "Random"),
            seeds=(0,),
            n_train=20,
            n_val=60,
            n_test=80,
            train=TrainConfig(epochs=1),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record = run_sweep(spec)
        assert [str(w.message) for w in caught] == []
        assert record.errors == ()
        cells = [(m, g) for m in ("erm", "jtt") for g in sorted(spec.schemes)]
        assert [(r["method"], r["grouping"]) for r in record.rows] == cells

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
        _, planned, _ = harness._plan_sweep(spec)
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


def write_results_csv(out_dir, rows):
    """Write rows as out_dir/results.csv, with 0.0 in each metric column they leave out."""
    filler = dict.fromkeys(harness.RESULT_COLUMNS[3:], 0.0)
    (out_dir / "results.csv").write_text(results_csv([{**filler, **r} for r in rows]))


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

    def test_check_refuses_nondefault_bias(self, tmp_path):
        line = refuses(["analyze-kl", "--check", "--p-s0", "0.9"], tmp_path)
        assert line == "error: --check only applies at the default bias levels"

    def test_check_reports_a_scheme_without_reference_on_stdout(self, capsys):
        assert main(["analyze-kl", "--check", "--scheme", "Noisy_A_0.10", "--scheme", "AY"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-2:] == [
            "check Noisy_A_0.10: no reference value",
            "check AY: max deviation 4.15e-04 ok",
        ]

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

    def test_correlate_without_results_errors(self, tmp_path):
        results = tmp_path / "nowhere" / "results.csv"
        refuses(["correlate", "--out", str(results.parent)], tmp_path, f"cannot read {results}: ")

    def test_unknown_scheme_is_a_clean_error(self, tmp_path):
        refuses(["analyze-kl", "--scheme", "NOPE"], tmp_path, "unknown scheme name")

    def test_analyze_kl_rejects_noncanonical_scheme(self, tmp_path):
        refuses(["analyze-kl", "--scheme", "Noisy_AY_0.1"], tmp_path, "'Noisy_AY_0.1' must be written 'Noisy_AY_0.10'")

    def test_analyze_kl_config_skips_only_the_method_scheme_pairing(self, tmp_path, capsys):
        """The table reads the schemes and the bias levels, never the methods."""
        assert main(config_argv(tmp_path, {"methods": ["cfair"], "schemes": ["A", "Y"]}, "analyze-kl", out=None)) == 0
        assert capsys.readouterr().out.splitlines() == [
            "scheme,kl_gdro,kl_resampling",
            "A,0.526755,0.526755",
            "Y,0.526755,0.526755",
        ]
        # no model-based default either
        assert main(config_argv(tmp_path, {"methods": ["cfair"]}, "analyze-kl", out=None)) == 0
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
    def test_analyze_kl_config_keeps_its_other_checks(self, tmp_path, config, message):
        refuses(config_argv(tmp_path, config, "analyze-kl", out=None), tmp_path, message)

    def test_analyze_kl_rejects_repeated_scheme(self, tmp_path):
        """--scheme fills the spec's scheme list, so it is checked as --schemes is."""
        refuses(["analyze-kl", "--scheme", "A", "--scheme", "A"], tmp_path, "schemes lists 'A' more than once")

    def test_correlate_names_the_method_with_constant_kl(self, tmp_path):
        rows = synthetic_rows("gdro", "min_kl_gdro", [0.5, 0.5, 0.5], lambda kl: 0.9 - kl)
        write_results_csv(tmp_path, rows)
        assert refuses(["correlate", "--out", str(tmp_path)], tmp_path) == (
            "error: gdro: every scheme has the same min_kl_gdro (0.500000), so its correlation is undefined"
        )

    def test_correlate_names_the_method_with_constant_auc(self, tmp_path):
        rows = synthetic_rows("gdro", "min_kl_gdro", [0.0, 0.1, 0.2], lambda kl: 0.8)
        with pytest.raises(DegenerateInput, match=r"^gdro: zero variance$"):
            correlate_results(rows)
        write_results_csv(tmp_path, rows)
        assert refuses(["correlate", "--out", str(tmp_path)], tmp_path) == "error: gdro: zero variance"

    @pytest.mark.parametrize(
        "header,row,message",
        [
            (RESULTS_HEADER.replace("seed,", ""), "gdro,A," + "0.5," * 7 + "0.5", "results.csv line 1: no column seed"),
            (RESULTS_HEADER, "gdro,A,0,x," + "0.5," * 6 + "0.5", "results.csv line 2: cannot read val_auc from 'x'"),
            (RESULTS_HEADER, "gdro,A,0.5," + "0.5," * 7 + "0.5", "results.csv line 2: cannot read seed from '0.5'"),
            # a repeated cell would count twice in its scheme's mean AUC
            (RESULTS_HEADER, "\n".join(["gdro,A,0," + "0.5," * 7 + "0.5"] * 2), "results.csv line 3: lists ('gdro', 'A', 0) more than once"),
        ],
        ids=["missing_column", "non_numeric_metric", "non_integer_seed", "repeated_cell"],
    )
    def test_correlate_refuses_a_malformed_results_csv(self, tmp_path, header, row, message):
        (tmp_path / "results.csv").write_text(f"{header}\n{row}\n")
        refuses(["correlate", "--out", str(tmp_path)], tmp_path, message)

    @pytest.mark.parametrize(
        "make",
        [lambda path: path.mkdir(), lambda path: path.write_bytes(b"\xff\xfe" + RESULTS_HEADER.encode("utf-16-le"))],
        ids=["directory", "utf16_bytes"],
    )
    def test_correlate_refuses_an_unreadable_results_csv(self, tmp_path, make):
        make(tmp_path / "results.csv")
        line = refuses(["correlate", "--out", str(tmp_path)], tmp_path)
        assert line.startswith(f"error: cannot read {tmp_path / 'results.csv'}: ")

    @pytest.mark.parametrize("command", ["run", "ablate", "analyze-kl", "correlate"])
    @pytest.mark.parametrize("below", [(), ("x",), ("x", "y")], ids=["file", "under_file", "two_under_file"])
    def test_out_blocked_by_a_file_is_refused_before_any_work(self, tmp_path, monkeypatch, command, below):
        monkeypatch.setattr(harness, "compute_kl_rows", mock.Mock(side_effect=AssertionError("table built")))
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker.joinpath(*below)
        assert refuses([command, "--out", str(out)], tmp_path) == f"error: --out {out}: {blocker} is not a directory"

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
    def test_blocked_output_inside_out_is_refused_before_any_work(self, tmp_path, monkeypatch, command, blocked, kind):
        """A directory where a file goes, or a file where a directory goes, exits 2 and creates nothing."""
        monkeypatch.setattr(harness, "compute_kl_rows", mock.Mock(side_effect=AssertionError("table built")))
        out = tmp_path / "out"
        out.mkdir()
        if command == "correlate":  # correlate reads results.csv to learn its scatter files' names
            rows = synthetic_rows("gdro", "min_kl_gdro", [0.1, 0.2, 0.3], lambda kl: 0.9 - kl)
            write_results_csv(out, rows)
        path = out / blocked
        path.parent.mkdir(parents=True, exist_ok=True)
        path.mkdir() if kind == "dir" else path.write_text("kept")
        reason = "is a directory" if kind == "dir" else "is not a directory"
        assert refuses([command, "--out", str(out)], tmp_path) == f"error: --out {out}: {path} {reason}"

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
    def test_blank_list_flag_is_refused_before_any_work(self, tmp_path, monkeypatch, command, flag, message):
        """A blank flag is the list [""], refused as {"methods": []} is, not read as an absent flag."""
        monkeypatch.setattr(harness, "compute_kl_rows", mock.Mock(side_effect=AssertionError("table built")))
        refuses([command, flag, "", "--out", str(tmp_path / "out")], tmp_path, message)

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
        out = tmp_path / "out"
        assert main(config_argv(tmp_path, config)) == 0
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
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="risks empty groups for AY"):
            assert main(config_argv(tmp_path, config)) == 1
        errors = json.loads((out / "manifest.json").read_text())["errors"]
        assert [(e["method"], e["grouping"]) for e in errors] == [("gdro", "A"), ("gdro", "AY"), ("gdro", "S")]
        assert all(e["error"] == "DegenerateInput: AUC needs finite scores" for e in errors)
        results = (out / "results.csv").read_text()
        assert "nan" not in results
        assert [line.split(",")[0] for line in results.splitlines()[1:]] == ["erm"] * 3

    @pytest.mark.parametrize(
        "overrides,found",
        [
            ({"train": {"epochs": 2, "lr": 1e300}}, "parameters' squared norm, Adam moments, train_loss"),
            ({"methods": ["cfair"], "train": {"epochs": 2, "cfair_mu": 1e308}}, "Adam moments not finite"),
            (
                {"schemes": ["A", "AS"], "n_train": 100, "train": {"epochs": 1, "lr": 1e300}},
                "parameters' squared norm not finite",
            ),
        ],
        ids=("lr", "cfair_mu", "lr_one_step"),
    )
    def test_diverging_training_is_one_warning_free_error_row_per_cell(self, tmp_path, capsys, overrides, found):
        """An accepted config whose training overflows ends each cell in the
        epoch where it diverged, naming what the check found; numpy warns of
        nothing. At cfair_mu 1e308 only Adam's second moment overflows, which
        would freeze the model. At n_train 100 an epoch is one batch, whose
        single step leaves the weights finite but near 1e300: only their
        squared norm overflows."""
        config = {
            "methods": ["erm", "gdro", "resampling", "domain_ind", "cfair", "jtt"],
            "schemes": ["A", "AS", "SC_noSC"],
            "seeds": [0],
            "n_train": 400,
            "n_val": 200,
            "n_test": 400,
            **overrides,
        }
        methods = config["methods"]
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(config_argv(tmp_path, config)) == 1
        errors = json.loads((out / "manifest.json").read_text())["errors"]
        cells = [("erm", "-")] * ("erm" in methods) + [(m, s) for m in methods if m != "erm" for s in config["schemes"]]
        assert [(e["method"], e["grouping"]) for e in errors] == cells
        # JTT's first run is its one-epoch stage one, and its rows say so
        prefix = r"DegenerateInput: training diverged in epoch 1 of [12]: " + re.escape(found)
        assert all(re.match(prefix, e["error"]) for e in errors), errors
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
        out = tmp_path / "out"
        assert main(config_argv(tmp_path, config, "run", "--seeds", "0", "--n-train", "300")) == 0
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
    def test_bad_spec_exits_2_before_any_work(self, tmp_path, argv, message):
        refuses(["run", "--out", str(tmp_path / "out"), *argv], tmp_path, message)

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
        refuses(config_argv(tmp_path, {**small, **config}, out="alone"), tmp_path, message)
        out = tmp_path / "out"
        assert main(config_argv(tmp_path, {**small, **config}, "run", f"--{flag}", ",".join(map(str, value)))) == 0
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
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(config_argv(tmp_path, {**config, "train": {"epochs": 1}})) == 0
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
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, config, message):
        refuses(config_argv(tmp_path, config), tmp_path, message)

    @pytest.mark.parametrize(
        "text,message",
        [
            (None, "cannot read --config"),
            ("{bad json", "cannot read --config"),
            ('{"seeds": 5}', "ExperimentSpec field 'seeds' has the wrong type: 5"),
            ('{"n_train": "abc"}', "ExperimentSpec field 'n_train' has the wrong type: 'abc'"),
            ('{"train": {"epochs": 1.5}}', "TrainConfig field 'epochs' has the wrong type: 1.5"),
            ('{"methods": []}', "at least one method is required"),
            ("[1, 2]", "must hold a JSON object"),
            ("null", "must hold a JSON object"),
            ('{"train": [1]}', "train section of --config must be a JSON object"),
            ('{"train": null}', "train section of --config must be a JSON object"),
            ('{"feature": 5}', "feature section of --config must be a JSON object"),
        ],
        ids=[
            "missing_file", "invalid_json", "seeds_not_a_list", "n_train_not_an_int", "epochs_float", "methods_empty",
            "top_level_array", "top_level_null", "train_array", "train_null", "feature_number",
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, text, message):
        refuses(config_argv(tmp_path, text), tmp_path, message)

    def test_ablate_writes_every_variant(self, tmp_path, capsys):
        config = {**ABLATE_CONFIG, "methods": ["erm", "gdro", "resampling"]}
        csvs = {}
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(config_argv(tmp_path, config, "ablate", out=run)) == 0
            csvs[run] = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
        names = ("results", "relative_auc", "disparity", "correlation", "scatter_gdro", "scatter_resampling")
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
        rows = [[v, m] for v in ABLATE_VARIANTS for m in ("gdro", "resampling")]
        assert [line.split(",")[:2] for line in summary[1:]] == rows
        assert summary[1].split(",")[5] == "1"

    def test_ablate_reports_failed_cells_and_exits_1(self, tmp_path, capsys, monkeypatch):
        failing = _derive_seed(0, "gdro", "A", 0)  # the same cell seed in every variant
        real_train = mitigation.train

        def flaky_train(method, dataset, cfg, seed, val=None):
            if seed == failing:
                raise EmptyGroup("injected")
            return real_train(method, dataset, cfg, seed, val=val)

        monkeypatch.setattr(mitigation, "train", flaky_train)
        out = tmp_path / "out"
        assert main(config_argv(tmp_path, dict(ABLATE_CONFIG, schemes=["A", "Y", "AY", "S"]), "ablate")) == 1
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
    def test_ablate_undefined_correlation_fails_before_any_data(self, tmp_path, overrides, message):
        assert refuses(config_argv(tmp_path, {**ABLATE_CONFIG, **overrides}, "ablate"), tmp_path).startswith(message)

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize(
        "size,message",
        [
            ({"n_test": 1}, "no seed can be scored: seed 0's test split (n_test=1): no samples with a=0, s="),
            ({"n_val": 1}, "no seed can be scored: seed 0's val split (n_val=1): AUC needs both classes\n"),
        ],
        ids=["n_test_1", "n_val_1"],
    )
    def test_unscorable_splits_exit_2_before_training(self, tmp_path, command, size, message):
        """A split too small to score fails every cell of every seed, so the sweep trains nothing."""
        line = refuses(config_argv(tmp_path, {**ABLATE_CONFIG, "seeds": [0, 1], **size}, command), tmp_path)
        assert f"{line}\n".startswith(f"error: {message}")

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
        _, _, config, _, out = config_argv(tmp_path, {**TOO_LARGE_BASE, **overrides})
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
        proc = subprocess.run([sys.executable, "-c", code, config, out], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "2", "InvalidConfig"]
        err = proc.stderr.splitlines()
        assert len(err) == 2 and all(line.startswith(message) for line in err), proc.stderr
        assert not Path(out).exists()

    def test_ablate_without_a_baseline_correlation_reports_nan(self, tmp_path, capsys, monkeypatch):
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
        assert main(config_argv(tmp_path, ABLATE_CONFIG, "ablate")) == 1
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
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="risks empty groups"):
            assert main(config_argv(tmp_path, config, "ablate")) == 1
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


def _with_field(cls, name, value) -> dict:
    """VALID_CONFIG's entry for one field of cls set to value, as a dict to merge over VALID_CONFIG."""
    if cls is ExperimentSpec:
        return {name: value}
    section = SPEC_FIELD[cls]
    return {section: {**VALID_CONFIG.get(section, {}), name: value}}


# every float field of CONFIG_BOUNDS; the others are ints
FLOATS = {(cls, f.name) for cls in CONFIG_BOUNDS for f in fields(cls) if isinstance(f.default, float)}
NON_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "10**400": 10**400}


def _refused_values():
    """(class, field, value, message) for each value past a declared bound, the bound itself when
    the value must lie above it, and each non-finite value of a float field."""
    for cls, bounds in CONFIG_BOUNDS.items():
        for name, bound in bounds.items():
            for kind, edge in bound.items():
                op = ">=" if kind == "min" else ">"
                for value in (edge - 1, edge) if kind == "above" else (edge - 1,):
                    yield pytest.param(cls, name, value, f"{name} must be {op} {edge}, got {value}", id=f"{name}={value}")
            if (cls, name) in FLOATS:
                for label, value in NON_FINITE.items():
                    yield pytest.param(cls, name, value, f"{name} must be finite, got {value}", id=f"{name}={label}")


def _past_bound(cls, name):
    """Values of one field that its declared bound, or the finiteness check of a float, refuses."""
    bound, is_float = CONFIG_BOUNDS[cls][name], (cls, name) in FLOATS
    drawn = [st.sampled_from(list(NON_FINITE.values()))] if is_float else []
    if "min" in bound:
        drawn.append(st.floats(max_value=bound["min"], exclude_max=True) if is_float else st.integers(max_value=bound["min"] - 1))
    if "above" in bound:
        drawn.append(st.floats(max_value=bound["above"]))
    return st.one_of(drawn).map(partial(_with_field, cls, name))


def _malformed_configs():
    """One malformation of VALID_CONFIG, as a dict merged over it."""
    names = st.text(max_size=10)
    train_keys = {f.name for f in fields(TrainConfig)}
    unknown = st.one_of(
        names.filter(lambda n: n not in mitigation.METHODS).map(lambda n: {"methods": ["erm", n]}),
        st.one_of(names, names.map("Noisy_AY_".__add__))
        .filter(_unknown_scheme)
        .map(lambda n: {"schemes": ["A", n]}),
        names.filter(lambda n: n not in train_keys).map(lambda n: _with_field(TrainConfig, n, 0)),
    )
    repeated = st.one_of(
        st.sampled_from(mitigation.METHODS).map(lambda m: {"methods": [m, m]}),
        st.sampled_from(DEFAULT_SCHEMES).map(lambda s: {"schemes": [s, "A", s]}),
        st.integers(0, 2**31).map(lambda i: {"seeds": [i, 0, i]}),
    )
    bias = st.tuples(
        st.sampled_from(["p_s0", "p_s1"]),
        st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0)),
    ).map(lambda kv: dict([kv]))
    past_bound = st.one_of([_past_bound(cls, name) for cls, bounds in CONFIG_BOUNDS.items() for name in bounds])
    epochs_float = st.floats().map(partial(_with_field, TrainConfig, "epochs"))  # JSON floats never fit an int field
    return st.one_of(unknown, repeated, bias, past_bound, epochs_float)


class TestMalformedSpecs:
    @given(malformed=_malformed_configs())
    @settings(max_examples=150, deadline=None)
    def test_rejected_before_data_is_drawn(self, malformed):
        with tempfile.TemporaryDirectory() as tmp:
            refuses(config_argv(tmp, {**VALID_CONFIG, **malformed}), tmp)

    def test_valid_config_reaches_make_splits(self, tmp_path):
        reached = AssertionError("make_splits reached")
        with mock.patch.object(harness, "make_splits", side_effect=reached), pytest.raises(AssertionError, match="reached"):
            main(config_argv(tmp_path, VALID_CONFIG))


class TestConfigBounds:
    def test_table_is_every_numeric_field_and_its_declared_bound(self):
        for cls, bounds in CONFIG_BOUNDS.items():
            assert {f.name: f.metadata for f in fields(cls) if type(f.default) in (int, float)} == bounds, cls

    @pytest.mark.parametrize("cls,name,value,message", _refused_values())
    def test_refused_by_the_constructor_and_by_run_config(self, tmp_path, cls, name, value, message):
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            cls(**{name: value})
        assert refuses(config_argv(tmp_path, {**VALID_CONFIG, **_with_field(cls, name, value)}), tmp_path) == f"error: {message}"

    def test_every_min_bound_itself_is_accepted(self):
        for cls, bounds in CONFIG_BOUNDS.items():
            for name, bound in bounds.items():
                if "min" in bound:
                    assert getattr(cls(**{name: bound["min"]}), name) == bound["min"]


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
    "stage-1 model makes no training errors",
)
# Edges whose outcome is pinned beyond the contract: (exit code, results.csv data rows), warning-free.
PINNED_EDGES = {
    ("feature", "noise_sd", 1e308): (2, None),  # the feature draw overflows float64
    ("feature", "mu_a", 1e308): (0, 18),  # extreme features still score
    ("train", "gdro_eta", 1e308): (0, 18),  # gDRO's group weights stay finite
}


def _edge_values(cls):
    """(field, value) pairs at the edges of cls's numeric fields: each int at its declared
    min; each float at 1e308 and at its lower edge (5e-324 above a bound, the bound itself
    as a min, or -1e308 when unbounded)."""
    for name, bound in CONFIG_BOUNDS[cls].items():
        if (cls, name) not in FLOATS:
            yield name, bound["min"]
            continue
        yield name, 1e308
        if "above" in bound:
            yield name, 5e-324
        elif "min" in bound:
            yield name, float(bound["min"])
        else:
            yield name, -1e308


EDGES = [
    (section, name, value) for section, cls in (("feature", FeatureConfig), ("train", TrainConfig))
    for name, value in _edge_values(cls)
]
EDGE_CASES = [pytest.param(*edge, id=f"{edge[0]}.{edge[1]}={edge[2]!r}") for edge in EDGES]
# every two edge values of distinct fields
EDGE_PAIRS = [(one, two) for i, one in enumerate(EDGES) for two in EDGES[i + 1 :] if one[:2] != two[:2]]


def _meets_the_contract(root, edges):
    """Run CONTRACT_BASE with each (section, key, value) of edges laid over it, check the
    CLI contract, and return the exit code and the warnings raised."""
    config = dict(CONTRACT_BASE)
    for section, key, value in edges:
        config[section] = {**config.get(section, {}), key: value}
    out = Path(root) / "out"
    code, stdout, err, seen = run_main(config_argv(root, config))
    if code == 0:
        assert err == []
    elif code == 1:
        assert err and all(line.startswith("cell failed: ") for line in err), err
    else:  # a refusal met while the data is drawn, as at noise_sd 1e308
        check_refusal(code, stdout, err)
        assert not out.exists()
    for w in seen:
        assert w.category is UserWarning and any(d in str(w.message) for d in DOCUMENTED_WARNINGS), w
    return code, seen


class TestAcceptedSpecs:
    """An accepted config exits 0, 1 or 2 by the CLI contract, with no numpy warning."""

    @pytest.mark.parametrize("section,key,value", EDGE_CASES)
    def test_edge_value_meets_the_contract(self, tmp_path, section, key, value):
        code, seen = _meets_the_contract(tmp_path, [(section, key, value)])
        if (section, key, value) in PINNED_EDGES:
            rows = None if code == 2 else (tmp_path / "out" / "results.csv").read_text().count("\n") - 1
            assert (code, rows, seen) == (*PINNED_EDGES[section, key, value], [])

    @given(pair=st.sampled_from(EDGE_PAIRS))
    @settings(max_examples=40, deadline=None)
    def test_two_edge_values_meet_the_contract(self, pair):
        with tempfile.TemporaryDirectory() as tmp:
            _meets_the_contract(tmp, pair)

    def test_every_pinned_edge_is_drawn(self):
        assert set(PINNED_EDGES) <= set(EDGES)

    def test_jtt_warns_once_per_cell_naming_its_scheme(self, tmp_path):
        """At mu_y -1e308 no stage-one model errs on train: each JTT cell warns once, for both lengths."""
        code, _, _, seen = run_main(config_argv(tmp_path, {**CONTRACT_BASE, "feature": {"mu_y": -1e308}}))
        assert code == 0 and [str(w.message) for w in seen] == [
            f"stage-1 model makes no training errors (jtt on {name}, stage-1 epochs 1, 2); upweighting is a no-op"
            for name in CONTRACT_BASE["schemes"]
        ]

