"""Every demo script runs to completion against the library in src, the
demos that print no timings print the same bytes every run, every Python
example in the README runs, and the package exports exactly what the demos
and README import from it and the errors that a call of those names raises."""

import ast
import hashlib
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mss
from mss import errors
from mss.bulletin import encode_secrets

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


def test_readme_mss_commands_run(tmp_path):
    """Each ``mss`` line of README's sh blocks, continuation lines joined,
    exits 0 as ``python -m mss`` next to the secrets.json it assumes."""
    (tmp_path / "secrets.json").write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("mss ")]
    assert commands
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command in commands:
        result = subprocess.run(
            [sys.executable, "-m", *command],
            capture_output=True, cwd=tmp_path, env=env, timeout=120,
        )
        assert result.returncode == 0, (command, result.stderr.decode())


def test_readme_claims_name_tests_that_exist():
    section = (ROOT / "README.md").read_text().split("\n## Claims\n")[1].split("\n## ")[0]
    test_ids = re.findall(r"`(tests/\w+\.py(?:::\w+)+)`", section)
    assert test_ids
    for test_id in test_ids:
        path, *names = test_id.split("::")
        scope = ast.parse((ROOT / path).read_text()).body
        for name in names:
            found = [node for node in scope if getattr(node, "name", None) == name]
            assert found, test_id
            scope = found[0].body


def _root_deal(thresholds=(2, 3), rng=None, **params):
    params = mss.SchemeParams(
        variant=mss.Variant.S1, n=8, k=2, thresholds=thresholds, q=97, **params
    )
    secrets = [tuple(range(1, t + 1)) for t in thresholds]
    return mss.deal(params, secrets, rng or mss.Drbg(1))


class _ZeroDrbg(mss.Drbg):
    """Draws every residue as 0, so every constant vector repeats."""

    def randbelow_many(self, n, count):
        return (0,) * count


def _quorum(i, owners):
    """The recoveries' arguments for secret i, from the given owners' shares."""
    shares, board = _root_deal()
    return board, i, mss.participant_subshadows(board, i, [shares[j - 1] for j in owners])


#: One call of root names per MssError subclass the root exports.
ROOT_RAISES = {
    "bad-index": (mss.BadIndex, lambda: mss.verify_secret(_root_deal()[1], 0, (1, 2))),
    "bad-quorum": (mss.BadQuorum, lambda: mss.recover_way1_lagrange(*_quorum(2, (1, 2)))),
    "bad-shares": (mss.BadShares, lambda: _quorum(1, (1, 1))),
    "dim-mismatch": (
        mss.DimMismatch,
        lambda: mss.recover_way1_vandermonde(_root_deal()[1], 1, {1: (1,), 2: (2,)}),
    ),
    "not-binary": (mss.NotBinary, lambda: mss.Share(owner=1, bits=(2,) + (0,) * 15)),
    "not-consecutive": (mss.NotConsecutive, lambda: mss.recover_way2(*_quorum(2, (1, 2, 4)))),
    "rng-suspect": (mss.RngSuspect, lambda: _root_deal(thresholds=(2, 2), rng=_ZeroDrbg(1))),
    "share-space-exhausted": (mss.ShareSpaceExhausted, lambda: _root_deal(r=2)),
}


@pytest.mark.parametrize("error, call", ROOT_RAISES.values(), ids=ROOT_RAISES.keys())
def test_each_exported_error_is_raised_by_a_root_call(error, call):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error


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
    raised = {"MssError"} | {error.__name__ for error, _ in ROOT_RAISES.values()}
    # 9 of the 18 stay at the root; the codec's and toolkits' are in mss.errors alone
    assert raised < error_classes and (len(raised), len(error_classes)) == (9, 18)
    assert exported == imported | raised | {"Bulletin"}
