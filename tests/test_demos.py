"""Every demo script runs to completion against the library in src, the
demos that print no timings print the same bytes every run, every Python
example in the README runs, and the package exports exactly what the demos
and README import from it."""

import hashlib
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

#: SHA-256 of the stdout of each seeded demo; 04 prints timings, so it is
#: only run.
STDOUT_SHA256 = {
    "01_field_toolkit.py": "64ad6824af314b97e4000def099c45d7163e283331991da936e3943ca6ec1511",
    "02_recursion_engine.py": "3b894f0a08b192cbddaece349e9afa423f6286283230b20db3724088b44d2cb6",
    "03_deal_and_recover.py": "1ea5141009c254a98e418cb39f10ecfdd238b8dafb5ab543a732bbb1de5daff6",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


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
