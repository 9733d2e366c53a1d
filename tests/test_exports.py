import collections
import importlib
import json
import pkgutil
import subprocess
import sys
import types

import pytest

import subshift

MODULES = sorted(m.name for m in pkgutil.iter_modules(subshift.__path__) if m.name != "__main__")
# The layers below the trainers and the CLI: importing any of them must not load those two.
LOWER_LAYERS = ("errors", "dist_core", "grouping", "nnet", "metrics", "synth_data", "reweight_opt")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"subshift.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_each_public_name_has_one_home():
    homes = collections.defaultdict(list)
    for name in MODULES:
        for public in getattr(importlib.import_module(f"subshift.{name}"), "__all__", ()):
            homes[public].append(name)
    assert {public: where for public, where in homes.items() if len(where) > 1} == {}


def test_errors_star_import_binds_its_exceptions_and_check_fields():
    from subshift import errors

    exceptions = {n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, errors.SubshiftError)}
    namespace = {}
    exec("from subshift.errors import *", namespace)
    assert len(exceptions) == 14
    assert set(namespace) - {"__builtins__"} == exceptions | {"check_fields"}


def test_package_binds_only_its_version():
    """The package re-exports nothing: its public names live in the modules; only submodules become attributes."""
    bound = [n for n, v in vars(subshift).items() if not n.startswith("__") and not isinstance(v, types.ModuleType)]
    assert bound == []
    assert isinstance(subshift.__version__, str)


def test_lower_layers_load_neither_trainers_nor_cli():
    code = (
        "import importlib, json, sys\n"
        "def loaded():\n"
        "    return json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'subshift'))\n"
        "import subshift.dist_core\n"
        "print(loaded())\n"
        f"for name in {LOWER_LAYERS!r}:\n"
        "    importlib.import_module(f'subshift.{name}')\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    dist_core_only, lower = (json.loads(line) for line in proc.stdout.splitlines())
    assert dist_core_only == ["subshift", "subshift.dist_core", "subshift.errors"]
    assert lower == sorted(["subshift", *(f"subshift.{name}" for name in LOWER_LAYERS)])
