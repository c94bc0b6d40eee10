"""Every demo script runs to completion against the library in src, and
the package exports exactly what the demos and README import from it."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mss
from mss import errors

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_package_exports_what_readme_and_demos_import():
    imported = set()
    for path in [ROOT / "README.md", *DEMOS]:
        text = path.read_text()
        for match in re.finditer(r"^from mss import (\([^)]*\)|.*)$", text, re.M):
            imported.update(
                part.split()[0] for part in match[1].strip("()").split(",") if part.strip()
            )
    error_classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.MssError)
    }
    exported = {
        name
        for name, value in vars(mss).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(error_classes) == 18
    assert exported == imported | error_classes | {"Bulletin"}
