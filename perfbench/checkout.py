"""Locate the checkout this benchmark belongs to and import subshift from its source tree."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"


class NoSource(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path and make sure subshift comes from it.

    An installed copy elsewhere must not stand in for the code under test.
    """
    if not (SRC / "subshift" / "__init__.py").is_file():
        raise NoSource(f"no subshift package under {SRC}")
    sys.path.insert(0, str(SRC))
    import subshift

    origin = Path(subshift.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise NoSource(f"subshift was imported from {origin}, not from {SRC}")
