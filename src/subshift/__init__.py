"""Subgroup-shift analysis toolkit.

Quantifies how the choice of subgroup partition limits bias mitigation under
spurious-correlation shift: exact minimum-divergence tables over a small
discrete outcome space, plus a synthetic-data harness that trains mitigation
methods against the same partitions and correlates their test performance
with the divergence bound.
"""

from .dist_core import (
    Distribution,
    N_ATOMS,
    SoftGrouping,
    atom_index,
    biased_distribution,
    kl_divergence,
    reweighted_distribution,
    uniform_distribution,
)
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyGroup,
    InsufficientSchemes,
    InvalidConfig,
    InvalidScheme,
    MissingCell,
    NonNormalizable,
    OutOfRange,
    SingleClass,
    SubshiftError,
    SupportMismatch,
    TooManyGroups,
    YBasedGrouping,
)
from .grouping import (
    GroupingScheme,
    NOISE_LEVELS,
    annotate_samples,
    atom_grouping,
    is_y_free,
    model_based_schemes,
    refine,
    reweighting_schemes,
)
from .harness import ExperimentSpec, RunRecord, REFERENCE_TABLE, main, run_sweep, spec_hash
from .harness import TOOL_VERSION as __version__
from .metrics import EvalReport, auc, evaluate, pearson
from .mitigation import TrainConfig, TrainedModel, train
from .reweight_opt import (
    MinKlRow,
    OptimizationResult,
    brute_force_min_kl,
    min_kl_table,
    optimal_weights,
    resampling_weights,
    table_to_csv,
)
from .synth_data import Dataset, FeatureConfig, make_splits, make_test_split, sample_dataset
