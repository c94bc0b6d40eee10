"""End-to-end command-line behavior, exit codes, and file outputs."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mss import bulletin as bio
from mss import cli
from mss.bulletin import encode_secrets
from mss.counts import public_value_counts

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mss", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


DEAL_ARGS = [
    "deal",
    "--variant",
    "s1",
    "--n",
    "5",
    "--k",
    "2",
    "--thresholds",
    "2,3",
    "--q",
    "97",
    "--seed",
    "42",
]


def deal_into(directory, **flags):
    """Deal the standard secrets into directory, with some DEAL_ARGS flags replaced."""
    args = list(DEAL_ARGS)
    for flag, value in flags.items():
        args[args.index(f"--{flag}") + 1] = value
    secrets_path = directory / "secrets.json"
    secrets_path.write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
    result = run_cli(*args, "--secrets", str(secrets_path), "--out-dir", str(directory))
    assert result.returncode == 0, result.stderr
    return directory


@pytest.fixture
def dealt(tmp_path):
    return deal_into(tmp_path)


@pytest.fixture
def other_deal(tmp_path):
    """A second deal of the same secrets under another seed."""
    other = tmp_path / "other"
    other.mkdir()
    return deal_into(other, seed="43")


class TestDeal:
    def test_writes_bulletin_and_shares(self, dealt):
        assert (dealt / "bulletin.json").exists()
        for j in range(1, 6):
            assert (dealt / f"share_{j}.json").exists()

    def test_prints_count_summary(self, tmp_path):
        secrets_path = tmp_path / "secrets.json"
        secrets_path.write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
        result = run_cli(
            *DEAL_ARGS, "--secrets", str(secrets_path), "--out-dir", str(tmp_path)
        )
        assert "public values:" in result.stdout
        # k matrices + commit matrix, n commitments, k hashes, k constants,
        # offsets (5-2+1) + (5-3+1), extras 2k
        assert "offsets=7" in result.stdout
        assert "extras=4" in result.stdout

    def test_seeded_deal_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            (d / "secrets.json").write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
            result = run_cli(
                *DEAL_ARGS, "--secrets", str(d / "secrets.json"), "--out-dir", str(d)
            )
            assert result.returncode == 0
        for name in ["bulletin.json"] + [f"share_{j}.json" for j in range(1, 6)]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_env_seed_fallback(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            (d / "secrets.json").write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
            args = [a for a in DEAL_ARGS if a not in ("--seed", "42")]
            result = run_cli(
                *args,
                "--secrets",
                str(d / "secrets.json"),
                "--out-dir",
                str(d),
                env_extra={"MSS_SEED": "42"},
            )
            assert result.returncode == 0
        assert (tmp_path / "a" / "bulletin.json").read_bytes() == (
            tmp_path / "b" / "bulletin.json"
        ).read_bytes()

    def test_malformed_secrets_file(self, tmp_path):
        bad = tmp_path / "secrets.json"
        bad.write_text("{broken")
        result = run_cli(
            *DEAL_ARGS, "--secrets", str(bad), "--out-dir", str(tmp_path)
        )
        assert result.returncode == 2
        assert not (tmp_path / "bulletin.json").exists()

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts decimal strings of any length",
    )
    def test_secret_past_digit_limit_exits_two(self, tmp_path):
        digits = sys.get_int_max_str_digits() + 1
        bad = tmp_path / "secrets.json"
        obj = json.loads(encode_secrets(97, ((7, 9), (1, 2, 3))))
        obj["secrets"][0][1] = "1" * digits
        bad.write_text(json.dumps(obj))
        result = run_cli(
            *DEAL_ARGS, "--secrets", str(bad), "--out-dir", str(tmp_path)
        )
        assert result.returncode == 2
        assert result.stderr == f"error: ParseError: secrets[0] has too many digits ({digits})\n"
        assert not (tmp_path / "bulletin.json").exists()

    def test_wrong_secret_shape(self, tmp_path):
        bad = tmp_path / "secrets.json"
        bad.write_bytes(encode_secrets(97, ((7, 9),)))
        result = run_cli(
            *DEAL_ARGS, "--secrets", str(bad), "--out-dir", str(tmp_path)
        )
        assert result.returncode == 2

    @pytest.mark.parametrize("variant", ["s1", "s2", "s3", "s4"])
    def test_public_value_total_matches_count_formulas(self, tmp_path, capsys, variant):
        t, k, n = 3, 2, 6
        secrets_path = tmp_path / "secrets.json"
        secrets_path.write_bytes(encode_secrets(97, ((7, 9, 1), (1, 2, 3))))
        args = ["deal", "--variant", variant, "--n", str(n), "--k", str(k)]
        args += ["--thresholds", f"{t},{t}", "--q", "97", "--seed", "7"]
        args += ["--secrets", str(secrets_path), "--out-dir", str(tmp_path)]
        assert cli.main(args) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("public values:")
        label = "os34" if variant in ("s3", "s4") else "os12"
        assert line.endswith(f" total={public_value_counts(t, k, n)[label]}")

    def test_huge_n_exits_two_quickly(self, tmp_path, capsys):
        secrets_path = tmp_path / "secrets.json"
        secrets_path.write_bytes(encode_secrets(97, ((7, 9),)))
        start = time.perf_counter()
        code = cli.main([
            "deal", "--variant", "s1", "--n", "1000000", "--k", "1",
            "--thresholds", "1000000", "--secrets", str(secrets_path),
            "--out-dir", str(tmp_path),
        ])
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ValueError: at most 4096 participants, got 1000000\n"
        )
        assert not (tmp_path / "bulletin.json").exists()

    def test_undecidable_modulus_exits_two(self, tmp_path, capsys):
        # a strong pseudoprime to every base the primality test uses
        secrets_path = tmp_path / "secrets.json"
        secrets_path.write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
        args = list(DEAL_ARGS)
        args[args.index("97")] = "318665857834031151167461"
        code = cli.main([*args, "--secrets", str(secrets_path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error: ValueError: cannot decide whether" in capsys.readouterr().err
        assert not (tmp_path / "bulletin.json").exists()

    def test_threshold_one_rejected(self, tmp_path):
        secrets_path = tmp_path / "secrets.json"
        secrets_path.write_bytes(encode_secrets(97, ((7,), (1, 2, 3))))
        args = list(DEAL_ARGS)
        args[args.index("2,3")] = "1,3"
        result = run_cli(
            *args, "--secrets", str(secrets_path), "--out-dir", str(tmp_path)
        )
        assert result.returncode == 2


class TestVerifyShare:
    def test_honest_share_exits_zero(self, dealt):
        result = run_cli(
            "verify-share",
            "--bulletin",
            str(dealt / "bulletin.json"),
            "--share",
            str(dealt / "share_1.json"),
        )
        assert result.returncode == 0
        assert "OK" in result.stdout

    def test_flipped_bit_exits_one(self, dealt):
        path = dealt / "share_2.json"
        obj = json.loads(path.read_text())
        bits = list(obj["bits"])
        bits[0] = format(int(bits[0], 16) ^ 8, "x")  # flip the top bit
        obj["bits"] = "".join(bits)
        path.write_text(json.dumps(obj))
        result = run_cli(
            "verify-share",
            "--bulletin",
            str(dealt / "bulletin.json"),
            "--share",
            str(path),
        )
        assert result.returncode == 1

    def test_wrong_deal_exits_one_with_message(self, dealt, other_deal):
        result = run_cli(
            "verify-share",
            "--bulletin",
            str(other_deal / "bulletin.json"),
            "--share",
            str(dealt / "share_1.json"),
        )
        assert result.returncode == 1
        assert "WrongDeal" in result.stderr


class TestRecover:
    def recover(self, dealt, method, secret, shares, out_name):
        return run_cli(
            "recover",
            "--bulletin",
            str(dealt / "bulletin.json"),
            "--secret",
            str(secret),
            "--method",
            method,
            "--out",
            str(dealt / out_name),
            *[str(dealt / f"share_{j}.json") for j in shares],
        )

    def test_all_methods_agree_byte_for_byte(self, dealt):
        payloads = []
        for method in ("vandermonde", "lagrange", "backward"):
            result = self.recover(dealt, method, 2, [1, 2, 3], f"r_{method}.json")
            assert result.returncode == 0, result.stderr
            payloads.append((dealt / f"r_{method}.json").read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]
        report = json.loads(payloads[0])
        assert report["verified"] is True
        assert report["candidate"] == ["1", "2", "3"]

    def test_recovers_dealer_secret(self, dealt):
        result = self.recover(dealt, "lagrange", 1, [4, 5], "r1.json")
        assert result.returncode == 0
        report = json.loads((dealt / "r1.json").read_text())
        assert report["candidate"] == ["7", "9"]
        assert report["verified"] is True

    def test_quorum_too_small(self, dealt):
        result = self.recover(dealt, "vandermonde", 2, [1, 2], "r2.json")
        assert result.returncode == 2
        assert not (dealt / "r2.json").exists()

    def test_backward_requires_consecutive(self, dealt):
        result = self.recover(dealt, "backward", 2, [1, 2, 4], "r3.json")
        assert result.returncode == 2
        assert "NotConsecutive" in result.stderr

    def test_backward_picks_a_consecutive_window(self, tmp_path):
        six = deal_into(tmp_path, n="6")
        result = self.recover(six, "backward", 2, [1, 2, 4, 5, 6], "r_win.json")
        assert result.returncode == 0, result.stderr
        report = json.loads((six / "r_win.json").read_text())
        assert report["candidate"] == ["1", "2", "3"]

    def test_duplicate_share_file_refused(self, dealt):
        result = self.recover(dealt, "lagrange", 1, [2, 3, 2], "r_dup.json")
        assert result.returncode == 2
        assert result.stderr == "error: MssError: duplicate share for owner 2\n"
        assert not (dealt / "r_dup.json").exists()

    def test_extra_shares_tolerated(self, dealt):
        result = self.recover(dealt, "vandermonde", 2, [1, 2, 3, 4, 5], "r4.json")
        assert result.returncode == 0

    def test_read_paths_never_stringify_the_setup(self, dealt, monkeypatch, capsys):
        # recover, verify-share and verify-secret take the digest from
        # read_bulletin, hashed from the strings decode checked
        bulletin = str(dealt / "bulletin.json")
        expected = bio.deal_id(bio.decode_bulletin((dealt / "bulletin.json").read_bytes()))

        def forbidden(*args):
            raise AssertionError("the setup section was stringified")

        monkeypatch.setattr(bio, "_setup_section", forbidden)
        monkeypatch.setattr(bio, "deal_id", forbidden)
        report = str(dealt / "r_once.json")
        assert cli.main([
            "recover", "--bulletin", bulletin, "--secret", "2", "--method", "lagrange",
            "--out", report, *[str(dealt / f"share_{j}.json") for j in range(1, 6)],
        ]) == 0, capsys.readouterr().err
        assert cli.main([
            "verify-share", "--bulletin", bulletin, "--share", str(dealt / "share_3.json"),
        ]) == 0, capsys.readouterr().err
        assert cli.main(["verify-secret", "--bulletin", bulletin, "--recovered", report]) == 0
        assert json.loads((dealt / "r_once.json").read_text())["deal"] == expected

    @pytest.mark.parametrize("order", [(5, 2), (2, 5)])
    def test_first_failing_share_given_is_reported(self, dealt, order, capsys):
        for j in (2, 5):
            path = dealt / f"share_{j}.json"
            obj = json.loads(path.read_text())
            obj["bits"] = obj["bits"][:-1] + format(int(obj["bits"][-1], 16) ^ 1, "x")
            path.write_text(json.dumps(obj))
        code = cli.main([
            "recover", "--bulletin", str(dealt / "bulletin.json"), "--secret", "1",
            "--method", "lagrange", "--out", str(dealt / "r_bad.json"),
            *[str(dealt / f"share_{j}.json") for j in (1, *order, 3)],
        ])
        assert code == 1
        assert capsys.readouterr().err == f"share {order[0]}: FAIL\n"
        assert not (dealt / "r_bad.json").exists()

    def test_default_output_path(self, dealt):
        result = run_cli(
            "recover",
            "--bulletin",
            str(dealt / "bulletin.json"),
            "--secret",
            "1",
            "--method",
            "backward",
            str(dealt / "share_1.json"),
            str(dealt / "share_2.json"),
            cwd=str(dealt),
        )
        assert result.returncode == 0
        assert (dealt / "recovered_1.json").exists()


class TestVerifySecret:
    def test_good_report_verifies(self, dealt):
        result = TestRecover().recover(dealt, "backward", 1, [1, 2], "r5.json")
        assert result.returncode == 0
        result = run_cli(
            "verify-secret",
            "--bulletin",
            str(dealt / "bulletin.json"),
            "--recovered",
            str(dealt / "r5.json"),
        )
        assert result.returncode == 0

    def test_tampered_candidate_fails(self, dealt):
        result = TestRecover().recover(dealt, "backward", 1, [1, 2], "r6.json")
        assert result.returncode == 0
        path = dealt / "r6.json"
        obj = json.loads(path.read_text())
        obj["candidate"][0] = "8"
        path.write_text(json.dumps(obj))
        result = run_cli(
            "verify-secret",
            "--bulletin",
            str(dealt / "bulletin.json"),
            "--recovered",
            str(path),
        )
        assert result.returncode == 1

    def test_unreduced_candidate_fails(self, dealt):
        # 7 + 97 is congruent to the dealt 7 but is not the dealt secret
        result = TestRecover().recover(dealt, "backward", 1, [1, 2], "r8.json")
        assert result.returncode == 0
        path = dealt / "r8.json"
        obj = json.loads(path.read_text())
        assert obj["candidate"] == ["7", "9"]
        obj["candidate"][0] = "104"
        path.write_text(json.dumps(obj))
        result = run_cli(
            "verify-secret",
            "--bulletin",
            str(dealt / "bulletin.json"),
            "--recovered",
            str(path),
        )
        assert result.returncode == 2
        assert result.stderr == "error: ValidationError: candidate is not reduced mod q\n"

    def test_report_from_another_deal_exits_one(self, dealt, other_deal):
        result = TestRecover().recover(dealt, "backward", 1, [1, 2], "r7.json")
        assert result.returncode == 0
        result = run_cli(
            "verify-secret",
            "--bulletin",
            str(other_deal / "bulletin.json"),
            "--recovered",
            str(dealt / "r7.json"),
        )
        assert result.returncode == 1
        assert result.stderr == "FAIL: WrongDeal: report belongs to another deal\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 400_000, id="deep nesting"),
        pytest.param(
            '{"kind": "share", "owner": ' + "9" * 5000 + "}",
            id="long integer",
            marks=pytest.mark.skipif(
                not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                reason="this interpreter converts decimal strings of any length",
            ),
        ),
    ],
)
def test_hostile_json_exits_two_with_parse_error(dealt, text, capsys):
    bad = str(dealt / "bad.json")
    Path(bad).write_text(text)
    bulletin, share = str(dealt / "bulletin.json"), str(dealt / "share_1.json")
    for argv in (
        ["verify-share", "--bulletin", bad, "--share", share],
        ["verify-share", "--bulletin", bulletin, "--share", bad],
        ["recover", "--bulletin", bulletin, "--secret", "1", "--method", "lagrange",
         "--out", str(dealt / "r.json"), bad, str(dealt / "share_2.json")],
        ["verify-secret", "--bulletin", bulletin, "--recovered", bad],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: not valid JSON: ") and err.count("\n") == 1
    # the same through the entry point: one line on stderr, no traceback
    result = run_cli("verify-secret", "--bulletin", bulletin, "--recovered", bad)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ParseError: not valid JSON: ")
    assert "Traceback" not in result.stderr


class TestCounts:
    def test_table_output(self):
        result = run_cli("counts", "--t", "3", "--k", "4", "--n", "7")
        assert result.returncode == 0
        assert "os12  48" in result.stdout
        assert "os34  53" in result.stdout

    def test_figure1_csv(self):
        result = run_cli("counts", "--figure1")
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "t,k,n,hd,lh,sm,pe,os12,os34"
        assert lines[1] == "3,4,7,28,16,25,23,48,53"
        assert len(lines) == 6


class TestBench:
    def test_csv_structure_and_determinism(self):
        args = [
            "bench",
            "--variant",
            "s1",
            "--n",
            "6",
            "--k",
            "1",
            "--t-range",
            "2,3",
            "--trials",
            "2",
            "--seed",
            "1",
        ]
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        lines = a.stdout.strip().split("\n")
        assert lines[0] == "phase,t,trials,median_seconds"
        assert len(lines) == 1 + 5 * 2  # five phases per t value
        strip_time = lambda text: [
            line.rsplit(",", 1)[0] for line in text.strip().split("\n")
        ]
        assert strip_time(a.stdout) == strip_time(b.stdout)

    def test_trials_below_one_refused_before_any_deal(self, capsys):
        # t = 99 > n would fail the deal, so the trials message shows the
        # count is checked first
        for trials in ("0", "-1"):
            args = ["bench", "--n", "6", "--t-range", "99", "--trials", trials, "--seed", "1"]
            assert cli.main(args) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: ValueError: trials must be at least 1, got {trials}\n"
