"""The console script that the README tour and CI call as `finkite`."""
import importlib
from pathlib import Path

import pytest


def test_the_finkite_console_script_points_at_cli_main():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["finkite"] == "finkite.cli:main"
    module, _, attr = scripts["finkite"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
