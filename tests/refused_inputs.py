"""Inputs the package refuses, the bounds the configs declare, and the command line's refusal contract.

REFUSED_INPUTS holds library inputs that a constructor refuses with a
SubshiftError when it is built. Each would otherwise run, or fail only after
data is drawn: a string of schemes runs as its letters, a float seed writes a
seed column `correlate` cannot read, a numpy integer trains the whole sweep
and then fails to go into manifest.json, a float size ends in a numpy
TypeError, and True hashes differently from 1. REFUSED_ATOM_SPACE_VALUES
holds atom-space values that the Distribution or SoftGrouping constructor
refuses; each would otherwise give a negative KL divergence, a numpy error
inside sampling, or a misleading error from the optimizer.

CONFIG_BOUNDS is every numeric config field with the bound its metadata
declares; every bounds test reads it. config_argv() writes a test's --config
and returns the command that reads it; refuses() runs the command line and
checks the whole contract of a refused command.
"""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np

from subshift import harness, mitigation
from subshift.dist_core import Distribution, SoftGrouping
from subshift.harness import ExperimentSpec
from subshift.mitigation import TrainConfig
from subshift.synth_data import FeatureConfig

# id -> (class, keyword arguments)
REFUSED_INPUTS = {
    "schemes_str": (ExperimentSpec, {"schemes": "AY"}),
    "methods_list": (ExperimentSpec, {"methods": ["erm"]}),
    "seed_float": (ExperimentSpec, {"seeds": (0.5,)}),
    "n_train_float": (ExperimentSpec, {"n_train": 2.5}),
    "d_y_float": (FeatureConfig, {"d_y": 2.5}),
    "epochs_float": (TrainConfig, {"epochs": 2.0}),
    "epochs_bool": (TrainConfig, {"epochs": True}),
    "epochs_numpy_int": (TrainConfig, {"epochs": np.int64(2)}),
    "lr_str": (TrainConfig, {"lr": "0.1"}),
}

# the ExperimentSpec field that holds each nested config
SPEC_FIELD = {FeatureConfig: "feature", TrainConfig: "train"}

# class -> {numeric field: its declared bound}: {"min": m} means value >= m, {"above": m} value > m
CONFIG_BOUNDS = {
    ExperimentSpec: {
        "p_s0": {}, "p_s1": {}, "n_train": {"min": 1}, "n_val": {"min": 1}, "n_test": {"min": 1}, "master_seed": {},
    },
    FeatureConfig: {
        "d_y": {"min": 1}, "d_a": {"min": 1}, "d_s": {"min": 1}, "mu_y": {}, "mu_a": {}, "mu_s": {},
        "noise_sd": {"above": 0},
    },
    TrainConfig: {
        "epochs": {"min": 1}, "batch_size": {"min": 1}, "lr": {"above": 0}, "weight_decay": {"min": 0},
        "lr_decay_epoch": {"min": 0}, "lr_decay_factor": {"above": 0}, "hidden": {"min": 1},
        "gdro_eta": {"min": 0}, "gdro_size_adjust": {"min": 0}, "cfair_mu": {"min": 0},
    },
}

# id -> (constructor, value); each raises NonNormalizable or InvalidScheme
REFUSED_ATOM_SPACE_VALUES = {
    "nan": (Distribution, [np.nan] * 8),
    "inf": (Distribution, [np.inf] + [0.0] * 7),
    "negative_entry": (Distribution, [-1e-3, 0.125 + 1e-3] + [0.125] * 6),
    "mass_2": (Distribution, [0.25] * 8),
    "all_zeros": (Distribution, [0.0] * 8),
    "shape_7": (Distribution, [1 / 7] * 7),
    "nan_grouping": (SoftGrouping, np.full((8, 2), np.nan)),
}


def config_argv(root, config, command="run", *flags, out="out"):
    """Write config to root/config.json and return the argv of `command --config <that file> --out root/out *flags`.

    config is a dict, written as JSON, or raw text, written as it is; None writes no file.
    out names the output directory under root, or is None to pass no --out.
    """
    path = Path(root) / "config.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    argv = [command, "--config", str(path)]
    if out is not None:
        argv += ["--out", str(Path(root) / out)]
    return [*argv, *flags]


def run_main(argv):
    """harness.main(argv) with its output and warnings captured: (exit code, stdout, stderr lines, warnings)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as seen, redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = harness.main(argv)
    return code, stdout.getvalue(), stderr.getvalue().splitlines(), seen


def check_refusal(code, stdout, err, message=""):
    """A refusal's output: exit 2, nothing on stdout, and one `error: ` line on stderr that contains message."""
    assert (code, stdout) == (2, ""), (code, stdout, err)
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    return err[0]


def _tree(root) -> dict:
    return {path: path.is_file() and path.read_bytes() for path in Path(root).rglob("*")}


def refuses(argv, root, message=""):
    """Run main(argv), check the whole refusal contract, and return the error line.

    Beyond check_refusal's output: no warning is raised, no path or byte
    under root changes, and no data is drawn or cell trained.
    """
    before = _tree(root)
    work = AssertionError("work started before the refusal")
    with (
        mock.patch.object(harness, "make_splits", side_effect=work) as splits,
        mock.patch.object(harness, "make_test_split", side_effect=work) as test_split,
        mock.patch.object(mitigation, "train", side_effect=work) as train,
    ):
        code, stdout, err, seen = run_main(argv)
    line = check_refusal(code, stdout, err, message)
    assert not seen, [str(w.message) for w in seen]
    assert _tree(root) == before, "the refusal changed files under root"
    assert not (splits.called or test_split.called or train.called), "work started before the refusal"
    return line
