"""Byte-identical outputs: rerun the jobs of golden.json and compare digests.

golden.json maps each job (analyze-kl, or a named run) to the --config it
reads and the sha256 of every file it writes. The default run takes about
30 s, so its test writes the outputs of the default_sweep fixture
(conftest.py), which the acceptance gate runs anyway, rather than running
it again. A change that alters output bits on purpose updates golden.json
in the same diff. The small jobs are also rerun under other CPU kernels:
parameter bits move there, the six-decimal CSVs must not.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subshift.grouping import model_based_schemes, reweighting_schemes
from subshift.harness import DEFAULT_SCHEMES, ExperimentSpec, main, write_run_outputs
from subshift.mitigation import METHODS

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())
SMALL_RUNS = sorted(name for name in GOLDEN["run"] if name != "default")


def digests(out: Path, entry) -> dict:
    """The sha256 of each file the entry lists, as written under out."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in entry["sha256"]}


def rerun(tmp_path, command, entry) -> dict:
    """Run `subshift <command>` on the entry's config; return the digests of the files the entry lists."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entry["config"]))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    return digests(tmp_path / "out", entry)


@pytest.mark.parametrize("name", SMALL_RUNS)
def test_run_matches_golden(tmp_path, name):
    entry = GOLDEN["run"][name]
    assert rerun(tmp_path, "run", entry) == entry["sha256"]


def test_default_run_matches_golden(default_sweep, tmp_path):
    entry = GOLDEN["run"]["default"]
    assert entry["config"] == {}  # the fixture's spec is ExperimentSpec()
    write_run_outputs(default_sweep[0], ExperimentSpec(), tmp_path)
    assert digests(tmp_path, entry) == entry["sha256"]


def test_kl_table_matches_golden(tmp_path):
    entry = GOLDEN["analyze-kl"]
    assert rerun(tmp_path, "analyze-kl", entry) == entry["sha256"]


def baseline_kernel_env() -> dict:
    """The environment with OpenBLAS's Prescott kernel and numpy's baseline SIMD
    level: every dispatch target numpy enabled on this CPU is disabled."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config and returns no dict
        blas = {}
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"BLAS {blas.get('name')} is not a DYNAMIC_ARCH OpenBLAS, so its kernel is fixed at build time")
    umath = pytest.importorskip(
        "numpy._core._multiarray_umath", reason="numpy < 2 keeps its CPU dispatch tables elsewhere"
    )
    enabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    src = str(Path(__file__).parents[1] / "src")
    return {
        **os.environ,
        "OPENBLAS_CORETYPE": "Prescott",
        "NPY_DISABLE_CPU_FEATURES": ",".join(enabled),
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }


def test_small_jobs_match_golden_on_baseline_cpu_kernels(tmp_path):
    env = baseline_kernel_env()
    jobs = [("analyze-kl", "analyze-kl", GOLDEN["analyze-kl"])]
    jobs += [("run", name, GOLDEN["run"][name]) for name in SMALL_RUNS]
    for command, name, entry in jobs:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(entry["config"]))
        out = tmp_path / name
        args = [sys.executable, "-m", "subshift", command, "--config", str(config), "--out", str(out)]
        proc = subprocess.run(args, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert digests(out, entry) == entry["sha256"], name


def test_small_runs_cover_every_scheme_and_method():
    configs = [GOLDEN["run"][name]["config"] for name in SMALL_RUNS]
    assert {s for c in configs for s in c.get("schemes", DEFAULT_SCHEMES)} == {
        s.name for s in reweighting_schemes() + model_based_schemes()
    }
    assert {m for c in configs for m in c["methods"]} == set(METHODS)
