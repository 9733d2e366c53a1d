import time

import numpy as np
import pytest

from subshift.dist_core import biased_distribution, uniform_distribution
from subshift.harness import ExperimentSpec, run_sweep


@pytest.fixture(scope="session")
def p_train():
    return biased_distribution(0.95, 0.8)


@pytest.fixture(scope="session")
def p_uniform():
    return uniform_distribution()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def default_sweep():
    """Full default sweep, timed for the budget checks."""
    start = time.perf_counter()
    record = run_sweep(ExperimentSpec())
    elapsed = time.perf_counter() - start
    assert record.errors == ()
    return record, elapsed
