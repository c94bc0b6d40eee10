"""Golden hashes of seeded command-line output, in both bulletin formats.

For each variant and modulus, `mss deal --seed 7` runs, then `mss recover`
with each method for each secret on a fixed quorum, then `mss
verify-secret` on each report.  The SHA-256 of every written file and of
every command's stdout is pinned, so any change to a seeded output byte
fails here.  Two deals at the benchmark's scale (n = 64 and n = 40,
thresholds 8,16,24,32) pin the bulletin and every share file.

`mss deal` writes format 2, pinned in tests/data/golden_format2_sha256.json.
The format 1 pins, tests/data/golden_sha256.json and
golden_workload_sha256.json, are what `mss deal --seed 7` wrote when it
published every matrix.  ``format1.format1_deal`` rebuilds those files, and
the recoveries read them, so format 1 stays pinned byte for byte except for
the deal's stdout, which names the format 2 deal now.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest
from format1 import format1_deal

from mss import cli
from mss.bulletin import (
    deal_id,
    decode_bulletin,
    decode_secrets,
    encode_bulletin,
    encode_secrets,
    encode_share,
    read_bulletin,
)
from mss.rng import Drbg
from mss.scheme import SchemeParams, Variant

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_sha256.json"
FORMAT2_GOLDEN = DATA / "golden_format2_sha256.json"
#: The s1, q = 97 deal of the battery as format 1 files, committed as they
#: are pinned in GOLDEN.
FORMAT1_FIXTURE = DATA / "format1-s1-q97"
MODULI = (97, (1 << 61) - 1)
N = 5
THRESHOLDS = (2, 3)
SECRETS = ((7, 9), (1, 2, 3))
METHODS = ("vandermonde", "lagrange", "backward")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def deal_argv(variant: str, q: int, n: int, thresholds) -> list[str]:
    """`mss deal --seed 7` of secrets.json into the directory deal."""
    return [
        "deal", "--variant", variant, "--n", str(n), "--k", str(len(thresholds)),
        "--thresholds", ",".join(map(str, thresholds)), "--q", str(q),
        "--seed", "7", "--secrets", "secrets.json", "--out-dir", "deal",
    ]


def write_format1_deal(variant: str, q: int, n: int, thresholds) -> None:
    """The files `mss deal` wrote for ``deal_argv`` in format 1, from secrets.json."""
    params = SchemeParams(variant=variant, n=n, k=len(thresholds), thresholds=thresholds, q=q)
    secrets = decode_secrets(Path("secrets.json").read_bytes(), q)
    shares, board = format1_deal(params, secrets, Drbg(7))
    data, digest = encode_bulletin(board)
    Path("deal").mkdir()
    Path("deal", "bulletin.json").write_bytes(data)
    for share in shares:
        Path("deal", f"share_{share.owner}.json").write_bytes(encode_share(share, deal=digest))


def without_deal_stdout(golden: dict) -> dict:
    return {name: sha for name, sha in golden.items() if name != "deal.stdout"}


def seeded_hashes(variant: str, q: int, capsys, files="deal") -> dict[str, str]:
    """Run the command battery in the current directory; name -> SHA-256.

    ``files`` says where the deal comes from: ``mss deal`` itself, or,
    with no deal stdout, ``"format1"`` for ``write_format1_deal`` and a
    Path for a copy of that directory.
    """
    out: dict[str, str] = {}

    def run(name: str, argv: list[str]) -> None:
        assert cli.main(argv) == 0, argv
        out[f"{name}.stdout"] = _sha(capsys.readouterr().out.encode())

    Path("secrets.json").write_bytes(encode_secrets(q, SECRETS))
    if files == "deal":
        run("deal", deal_argv(variant, q, N, THRESHOLDS))
    elif files == "format1":
        write_format1_deal(variant, q, N, THRESHOLDS)
    else:
        shutil.copytree(files, "deal")
    for name in ["bulletin.json"] + [f"share_{j}.json" for j in range(1, N + 1)]:
        out[name] = _sha(Path("deal", name).read_bytes())
    for i, t_i in enumerate(THRESHOLDS, start=1):
        quorum = [f"deal/share_{j}.json" for j in range(2, t_i + 2)]
        for method in METHODS:
            report = f"recovered_{i}_{method}.json"
            run(f"recover_{i}_{method}", [
                "recover", "--bulletin", "deal/bulletin.json", "--secret", str(i),
                "--method", method, "--out", report, *quorum,
            ])
            out[report] = _sha(Path(report).read_bytes())
            run(f"verify_secret_{i}_{method}", [
                "verify-secret", "--bulletin", "deal/bulletin.json", "--recovered", report,
            ])
    return out


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_seeded_output_matches_golden_hashes(variant, q, tmp_path, monkeypatch, capsys):
    # format 1: the rebuilt files, and every recovery and verification of them
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())[f"{variant}-q{q}"]
    assert seeded_hashes(variant, q, capsys, files="format1") == without_deal_stdout(golden)


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_seeded_output_matches_format2_golden_hashes(variant, q, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(FORMAT2_GOLDEN.read_text())[f"{variant}-q{q}"]
    assert seeded_hashes(variant, q, capsys) == golden
    assert json.loads(Path("deal", "bulletin.json").read_bytes())["format_version"] == 2


def test_format1_fixture_is_the_pinned_deal(tmp_path, monkeypatch, capsys):
    # the committed files, recovered by each method for each secret
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())["s1-q97"]
    assert sorted(p.name for p in FORMAT1_FIXTURE.iterdir()) == sorted(
        ["bulletin.json"] + [f"share_{j}.json" for j in range(1, N + 1)]
    )
    hashes = seeded_hashes("s1", 97, capsys, files=FORMAT1_FIXTURE)
    assert hashes == without_deal_stdout(golden)


def test_format1_fixture_shares_verify(capsys):
    bulletin = str(FORMAT1_FIXTURE / "bulletin.json")
    for j in range(1, N + 1):
        share = str(FORMAT1_FIXTURE / f"share_{j}.json")
        assert cli.main(["verify-share", "--bulletin", bulletin, "--share", share]) == 0
        assert capsys.readouterr() == (f"share {j}: OK\n", "")


#: Deals at the benchmark's scale: the ``deal`` workload's shape, and s3 at
#: q = 97, where n = 64 is too many owners for the modulus and n = 40 deals.
WORKLOAD_GOLDEN = DATA / "golden_workload_sha256.json"
WORKLOAD_DEALS = {
    "s2-q2305843009213693951-n64": ("s2", (1 << 61) - 1, 64),
    "s3-q97-n40": ("s3", 97, 40),
}
WORKLOAD_THRESHOLDS = (8, 16, 24, 32)


def seeded_deal_hashes(variant: str, q: int, n: int, capsys, format1=False) -> dict[str, str]:
    """`mss deal --seed 7` in the current directory, or its format 1 files
    with no stdout; file name -> SHA-256."""
    secrets = tuple(
        tuple((1000 * i + 7 * j) % q for j in range(t))
        for i, t in enumerate(WORKLOAD_THRESHOLDS, start=1)
    )
    Path("secrets.json").write_bytes(encode_secrets(q, secrets))
    if format1:
        write_format1_deal(variant, q, n, WORKLOAD_THRESHOLDS)
        out = {}
    else:
        assert cli.main(deal_argv(variant, q, n, WORKLOAD_THRESHOLDS)) == 0
        out = {"deal.stdout": _sha(capsys.readouterr().out.encode())}
    for name in ["bulletin.json"] + [f"share_{j}.json" for j in range(1, n + 1)]:
        out[name] = _sha(Path("deal", name).read_bytes())
    return out


@pytest.mark.parametrize("case", sorted(WORKLOAD_DEALS))
def test_workload_scale_deal_matches_golden_hashes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(WORKLOAD_GOLDEN.read_text())[case]
    hashes = seeded_deal_hashes(*WORKLOAD_DEALS[case], capsys, format1=True)
    assert hashes == without_deal_stdout(golden)


@pytest.mark.parametrize("case", sorted(WORKLOAD_DEALS))
def test_workload_scale_deal_matches_format2_golden_hashes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(FORMAT2_GOLDEN.read_text())[case]
    assert seeded_deal_hashes(*WORKLOAD_DEALS[case], capsys) == golden


GOLDEN_DEALS = sorted(WORKLOAD_DEALS) + [
    f"{variant.value}-q{q}" for variant in Variant for q in MODULI
]


def check_read_bulletin(case, format1, capsys):
    """The digest read_bulletin hashes from the checked strings is deal_id,
    and a decoded bulletin encodes to the bytes it was read from."""
    if case in WORKLOAD_DEALS:
        pins = json.loads((WORKLOAD_GOLDEN if format1 else FORMAT2_GOLDEN).read_text())
        seeded_deal_hashes(*WORKLOAD_DEALS[case], capsys, format1=format1)
    else:
        pins = json.loads((GOLDEN if format1 else FORMAT2_GOLDEN).read_text())
        variant, q = case.split("-q")
        Path("secrets.json").write_bytes(encode_secrets(int(q), SECRETS))
        if format1:
            write_format1_deal(variant, int(q), N, THRESHOLDS)
        else:
            assert cli.main(deal_argv(variant, int(q), N, THRESHOLDS)) == 0
    blob = Path("deal", "bulletin.json").read_bytes()
    assert _sha(blob) == pins[case]["bulletin.json"]
    board = decode_bulletin(blob)
    assert read_bulletin(blob) == (board, deal_id(board))
    assert encode_bulletin(board) == (blob, deal_id(board))
    share = json.loads(Path("deal", "share_1.json").read_bytes())
    assert share["deal"] == deal_id(board)


@pytest.mark.parametrize("case", GOLDEN_DEALS)
def test_read_bulletin_on_every_golden_deal(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    check_read_bulletin(case, True, capsys)


@pytest.mark.parametrize("case", GOLDEN_DEALS)
def test_read_bulletin_on_every_format2_golden_deal(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    check_read_bulletin(case, False, capsys)
