"""Library inputs that a config class refuses with a SubshiftError when it is built.

Each would otherwise run, or fail only after data is drawn: a string of
schemes runs as its letters, a float seed writes a seed column `correlate`
cannot read, a numpy integer trains the whole sweep and then fails to go
into manifest.json, a float size ends in a numpy TypeError, and True
hashes differently from 1. The table needs numpy and subshift only, so a
job without pytest can build it too.
"""

import numpy as np

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
