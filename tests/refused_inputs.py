"""Library inputs that a constructor refuses with a SubshiftError when it is built.

Each would otherwise run, or fail only after data is drawn: a string of
schemes runs as its letters, a float seed writes a seed column `correlate`
cannot read, a numpy integer trains the whole sweep and then fails to go
into manifest.json, a float size ends in a numpy TypeError, and True
hashes differently from 1. A second table holds atom-space values that the
Distribution or SoftGrouping constructor refuses; each would otherwise give
a negative KL divergence, a numpy error inside sampling, or a misleading
error from the optimizer.
"""

import numpy as np

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
    "epochs_bool": (TrainConfig, {"epochs": True}),
    "epochs_numpy_int": (TrainConfig, {"epochs": np.int64(2)}),
    "lr_str": (TrainConfig, {"lr": "0.1"}),
}

# the ExperimentSpec field that holds each nested config
SPEC_FIELD = {FeatureConfig: "feature", TrainConfig: "train"}

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
