"""Golden hashes of seeded command-line output.

For each variant and modulus, `mss deal --seed 7` runs, then `mss recover`
with each method for each secret on a fixed quorum, then `mss
verify-secret` on each report.  The SHA-256 of every written file and of
every command's stdout is pinned in tests/data/golden_sha256.json, so any
change to a seeded output byte fails here.  Two deals at the benchmark's
scale (n = 64 and n = 40, thresholds 8,16,24,32) pin the bulletin and every
share file in tests/data/golden_workload_sha256.json.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mss import cli
from mss.bulletin import deal_id, decode_bulletin, encode_secrets, read_bulletin
from mss.scheme import Variant

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_sha256.json"
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


def seeded_hashes(variant: str, q: int, capsys) -> dict[str, str]:
    """Run the command battery in the current directory; name -> SHA-256."""
    out: dict[str, str] = {}

    def run(name: str, argv: list[str]) -> None:
        assert cli.main(argv) == 0, argv
        out[f"{name}.stdout"] = _sha(capsys.readouterr().out.encode())

    Path("secrets.json").write_bytes(encode_secrets(q, SECRETS))
    run("deal", deal_argv(variant, q, N, THRESHOLDS))
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
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())[f"{variant}-q{q}"]
    assert seeded_hashes(variant, q, capsys) == golden


#: Deals at the benchmark's scale: the ``deal`` workload's shape, and s3 at
#: q = 97, where n = 64 is too many owners for the modulus and n = 40 deals.
WORKLOAD_GOLDEN = Path(__file__).resolve().parent / "data" / "golden_workload_sha256.json"
WORKLOAD_DEALS = {
    "s2-q2305843009213693951-n64": ("s2", (1 << 61) - 1, 64),
    "s3-q97-n40": ("s3", 97, 40),
}
WORKLOAD_THRESHOLDS = (8, 16, 24, 32)


def seeded_deal_hashes(variant: str, q: int, n: int, capsys) -> dict[str, str]:
    """`mss deal --seed 7` in the current directory; file name -> SHA-256."""
    secrets = tuple(
        tuple((1000 * i + 7 * j) % q for j in range(t))
        for i, t in enumerate(WORKLOAD_THRESHOLDS, start=1)
    )
    Path("secrets.json").write_bytes(encode_secrets(q, secrets))
    assert cli.main(deal_argv(variant, q, n, WORKLOAD_THRESHOLDS)) == 0
    out = {"deal.stdout": _sha(capsys.readouterr().out.encode())}
    for name in ["bulletin.json"] + [f"share_{j}.json" for j in range(1, n + 1)]:
        out[name] = _sha(Path("deal", name).read_bytes())
    return out


@pytest.mark.parametrize("case", sorted(WORKLOAD_DEALS))
def test_workload_scale_deal_matches_golden_hashes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(WORKLOAD_GOLDEN.read_text())[case]
    assert seeded_deal_hashes(*WORKLOAD_DEALS[case], capsys) == golden


@pytest.mark.parametrize("case", sorted(WORKLOAD_DEALS) + [
    f"{variant.value}-q{q}" for variant in Variant for q in MODULI
])
def test_read_bulletin_on_every_golden_deal(case, tmp_path, monkeypatch, capsys):
    # the digest read_bulletin hashes from the checked strings is deal_id
    monkeypatch.chdir(tmp_path)
    if case in WORKLOAD_DEALS:
        golden = json.loads(WORKLOAD_GOLDEN.read_text())[case]
        seeded_deal_hashes(*WORKLOAD_DEALS[case], capsys)
    else:
        golden = json.loads(GOLDEN.read_text())[case]
        variant, q = case.split("-q")
        Path("secrets.json").write_bytes(encode_secrets(int(q), SECRETS))
        assert cli.main(deal_argv(variant, int(q), N, THRESHOLDS)) == 0
    blob = Path("deal", "bulletin.json").read_bytes()
    assert _sha(blob) == golden["bulletin.json"]
    board = decode_bulletin(blob)
    assert read_bulletin(blob) == (board, deal_id(board))
    share = json.loads(Path("deal", "share_1.json").read_bytes())
    assert share["deal"] == deal_id(board)
