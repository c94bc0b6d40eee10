"""End-to-end command-line behavior, exit codes, and file outputs."""

import argparse
import errno
import io
import json
import os
import stat
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path

import pytest

from mss import ajtai, scheme
from mss import bulletin as bio
from mss import cli
from mss.bulletin import encode_secrets
from mss.counts import public_value_counts
from mss.field import DEFAULT_PRIME, PrimeField
from mss.rng import Drbg

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
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

    def test_mss_seed_is_not_read(self, tmp_path, monkeypatch):
        """--seed alone seeds a run: with MSS_SEED set and no --seed, each
        deal draws from OS entropy."""
        monkeypatch.setenv("MSS_SEED", "42")
        unseeded = [a for a in DEAL_ARGS if a not in ("--seed", "42")]
        bulletins = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            (d / "secrets.json").write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
            result = run_cli(
                *unseeded, "--secrets", str(d / "secrets.json"), "--out-dir", str(d)
            )
            assert result.returncode == 0, result.stderr
            bulletins.append((d / "bulletin.json").read_bytes())
        (tmp_path / "seeded").mkdir()
        seeded = (deal_into(tmp_path / "seeded") / "bulletin.json").read_bytes()
        assert len({*bulletins, seeded}) == 3

    def test_negative_seed_refused_by_the_parser(self, tmp_path):
        (tmp_path / "secrets.json").write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
        args = [a if a != "42" else "-1" for a in DEAL_ARGS]
        result = run_cli(
            *args, "--secrets", str(tmp_path / "secrets.json"), "--out-dir", str(tmp_path)
        )
        assert result.returncode == 2
        assert result.stderr.endswith(
            "error: argument --seed: must be a nonnegative integer, got '-1'\n"
        )
        assert not (tmp_path / "bulletin.json").exists()

    def test_non_integer_q_refused_by_the_parser(self, tmp_path):
        (tmp_path / "secrets.json").write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
        args = [a if a != "97" else "abc" for a in DEAL_ARGS]
        result = run_cli(
            *args, "--secrets", str(tmp_path / "secrets.json"), "--out-dir", str(tmp_path)
        )
        assert result.returncode == 2
        assert result.stderr.endswith("error: argument --q: invalid int value: 'abc'\n")
        assert not (tmp_path / "bulletin.json").exists()

    @pytest.mark.parametrize(
        "value, refusal",
        [
            ("7", None),
            ("+7", None),
            (" 7 ", None),
            ("-0", None),
            ("-1", "must be a nonnegative integer, got '-1'"),
            ("abc", "invalid int value: 'abc'"),
            ("1.5", "invalid int value: '1.5'"),
            ("7 7", "invalid int value: '7 7'"),
        ],
    )
    def test_seed_flag_follows_one_rule(self, tmp_path, capsys, value, refusal):
        """--seed X deals the bulletin of the integer X, or is refused by the
        parser with its message."""
        (tmp_path / "secrets.json").write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
        unseeded = [a for a in DEAL_ARGS if a not in ("--seed", "42")]

        def deal(sub, seed):
            out = tmp_path / sub
            args = [*unseeded, "--seed", seed, "--secrets", str(tmp_path / "secrets.json"),
                    "--out-dir", str(out)]
            try:
                code = cli.main(args)
            except SystemExit as exc:  # refused by the parser
                code = exc.code
            bulletin = out / "bulletin.json"
            written = bulletin.read_bytes() if bulletin.exists() else None
            return code, capsys.readouterr().err, written

        from_flag = deal("flag", value)
        if refusal is None:
            assert from_flag == (0, "", deal("int", str(int(value)))[2])
        else:
            assert from_flag[0] == 2
            assert from_flag[1].endswith(f"error: argument --seed: {refusal}\n")
            assert from_flag[2] is None

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
        assert result.stderr == "share 2: FAIL\n"

    def test_wrong_deal_exits_one_with_message(self, dealt, other_deal):
        result = run_cli(
            "verify-share",
            "--bulletin",
            str(other_deal / "bulletin.json"),
            "--share",
            str(dealt / "share_1.json"),
        )
        assert result.returncode == 1
        assert result.stderr == "FAIL: WrongDeal: share of owner 1 belongs to another deal\n"

    def test_bulletin_with_zero_share_length_exits_two(self, dealt):
        path = dealt / "bulletin.json"
        obj = json.loads(path.read_text())
        obj["params"]["r"] = 0
        path.write_text(json.dumps(obj))
        result = run_cli(
            "verify-share", "--bulletin", str(path), "--share", str(dealt / "share_3.json")
        )
        assert result.returncode == 2
        assert result.stderr == "error: ValidationError: share length must be positive\n"


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

    def test_share_files_for_one_secret_open_the_others(self, dealt):
        """The gap README's security note names, pinned as it stands.

        Recovery reads whole share files, so the files a quorum pools for
        secret 2 also open secret 1, whose threshold they meet, with no
        holder taking part again.  Per-stage shadow files (ROADMAP direction
        9) must turn this assertion around.
        """
        for method, secret, candidate in (("lagrange", 2, ["1", "2", "3"]),
                                          ("backward", 1, ["7", "9"])):
            out_name = f"r_{secret}.json"
            result = self.recover(dealt, method, secret, [1, 2, 3], out_name)
            assert result.returncode == 0, result.stderr
            assert result.stdout.startswith(f"secret {secret}: verified -> ")
            report = json.loads((dealt / out_name).read_text())
            assert report["candidate"] == candidate
            assert report["verified"] is True

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

    def test_each_command_checks_its_shares_once(self, dealt, monkeypatch, capsys):
        # verify-share and recover bind shares to the deal by one library call
        calls = []
        real = cli.first_unbound

        def spy(deal_setup, shares):
            calls.append([share.owner for share in shares])
            return real(deal_setup, shares)

        monkeypatch.setattr(cli, "first_unbound", spy)
        bulletin = str(dealt / "bulletin.json")
        assert cli.main(["verify-share", "--bulletin", bulletin,
                         "--share", str(dealt / "share_4.json")]) == 0
        assert calls == [[4]]
        assert cli.main([
            "recover", "--bulletin", bulletin, "--secret", "2", "--method", "lagrange",
            "--out", str(dealt / "r_spy.json"), *[str(dealt / f"share_{j}.json") for j in (5, 1, 3)],
        ]) == 0, capsys.readouterr().err
        assert calls == [[4], [5, 1, 3]]

    @pytest.mark.parametrize("variant", ["s1", "s2", "s3", "s4"])
    def test_recover_reduces_each_subshadow_once(self, tmp_path, variant, monkeypatch, capsys):
        """One recovery checks and reduces the quorum's subshadows once: at
        most t_i vector reductions, for every method."""
        deal_into(tmp_path, variant=variant)
        reduced = []
        real = PrimeField.vec

        def spy(field, xs):
            reduced.append(len(xs))
            return real(field, xs)

        monkeypatch.setattr(PrimeField, "vec", spy)
        for method in ("vandermonde", "lagrange", "backward"):
            for secret, t_i in ((1, 2), (2, 3)):
                reduced.clear()
                assert cli.main([
                    "recover", "--bulletin", str(tmp_path / "bulletin.json"),
                    "--secret", str(secret), "--method", method,
                    "--out", str(tmp_path / f"r_{method}_{secret}.json"),
                    *[str(tmp_path / f"share_{j}.json") for j in (5, 3, 1, 2, 4)],
                ]) == 0, capsys.readouterr().err
                assert len(reduced) <= t_i, (method, secret, reduced)

    @pytest.mark.parametrize(
        "out, error, code",
        [
            ("missing/recovered.json", FileNotFoundError, errno.ENOENT),
            ("adir", IsADirectoryError, errno.EISDIR),
            ("", FileNotFoundError, errno.ENOENT),
        ],
    )
    def test_failed_write_names_the_path_given(self, dealt, monkeypatch, capsys, out, error, code):
        """A failed write names --out as given, not a random temp name, so
        two runs print the same message, and no temp file is left behind."""
        monkeypatch.chdir(dealt)
        (dealt / "adir").mkdir()
        args = ["recover", "--bulletin", "bulletin.json", "--secret", "1", "--method",
                "lagrange", "--out", out, "share_1.json", "share_2.json"]
        errs = []
        for _ in range(2):
            assert cli.main(args) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == (
            f"error: {error.__name__}: [Errno {code}] {os.strerror(code)}: {out!r}\n"
        )
        # no temp file anywhere, the working directory's parent included
        assert list(dealt.rglob(".mss-tmp-*")) + list(dealt.parent.glob(".mss-tmp-*")) == []
        assert list((dealt / "adir").iterdir()) == []
        assert not (dealt / "recovered_1.json").exists()

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


class TestExpansion:
    """A format 2 bulletin publishes seeds: each command expands only the
    matrices it uses, and none before the shares it was given are bound."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        """The row count of every matrix expanded, in order: each seed the
        dealer draws or a reader uses is packed (``_seeded_columns``, counted
        once when it falls back to ``expand_matrix`` on a rejected candidate),
        and any other ``expand_matrix`` counts as one more."""
        rows, packing = [], []
        real_expand, real_columns = ajtai.expand_matrix, ajtai._seeded_columns

        def expand(field, n_rows, cols, seed):
            if not packing:
                rows.append(n_rows)
            return real_expand(field, n_rows, cols, seed)

        def columns(field, n_rows, cols, seed):
            rows.append(n_rows)
            packing.append(n_rows)
            try:
                return real_columns(field, n_rows, cols, seed)
            finally:
                packing.pop()

        monkeypatch.setattr(ajtai, "expand_matrix", expand)
        monkeypatch.setattr(ajtai, "_seeded_columns", columns)
        monkeypatch.setattr(scheme, "_seeded_columns", columns)
        return rows

    def test_deal_expands_each_matrix_it_draws_once(
        self, tmp_path, monkeypatch, capsys, expansions
    ):
        draws = []  # per seed drawn, its row count and whether it was kept
        real_rank = ajtai.matrix_rank

        def rank(field, m):
            result = real_rank(field, m)
            if m.rows == m.cols:  # a seed's leading block
                draws.append([m.rows, result == m.rows])
            else:  # the whole matrix, after a singular block
                draws[-1][1] = result == m.rows
            return result

        monkeypatch.setattr(ajtai, "matrix_rank", rank)
        secrets = tmp_path / "secrets.json"
        secrets.write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
        argv = [*DEAL_ARGS, "--secrets", str(secrets), "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        redraws = [kept for _, kept in draws].count(False)
        assert expansions == [rows for rows, _ in draws] and len(draws) == 2 + 1 + redraws
        assert [rows for rows, kept in draws if kept] == [2, 3, 3]  # G_1, G_2, F

    def test_each_reading_command_expands_only_what_it_uses(self, dealt, expansions, capsys):
        bulletin = str(dealt / "bulletin.json")
        assert cli.main(["verify-share", "--bulletin", bulletin,
                         "--share", str(dealt / "share_4.json")]) == 0
        assert expansions == [3]  # F
        report = str(dealt / "r_expand.json")
        assert cli.main([
            "recover", "--bulletin", bulletin, "--secret", "1", "--method", "lagrange",
            "--out", report, str(dealt / "share_2.json"), str(dealt / "share_5.json"),
        ]) == 0, capsys.readouterr().err
        assert expansions == [3, 3, 2]  # F, then G_1
        assert cli.main(["verify-secret", "--bulletin", bulletin, "--recovered", report]) == 0
        assert expansions == [3, 3, 2]  # none

    def test_huge_r_reads_at_once_and_refuses_shares_before_expanding(
        self, dealt, expansions, capsys
    ):
        obj = json.loads((dealt / "bulletin.json").read_bytes())
        obj["params"]["r"] = 10**9
        bulletin = dealt / "huge_r.json"
        bulletin.write_text(json.dumps(obj))
        start = time.perf_counter()
        board, _ = bio.read_bulletin(bulletin.read_bytes())
        assert time.perf_counter() - start < 0.1
        assert board.setup.params.r == 10**9
        share = dealt / "unbound_2.json"  # without the deal binding, which r changed
        unbound = bio.decode_share((dealt / "share_2.json").read_bytes()).share
        share.write_bytes(bio.encode_share(unbound))
        message = (
            "error: DimMismatch: share length 16 does not match the deal's r=1000000000\n"
        )
        assert cli.main(["verify-share", "--bulletin", str(bulletin), "--share", str(share)]) == 2
        assert capsys.readouterr().err == message
        assert cli.main([
            "recover", "--bulletin", str(bulletin), "--secret", "1", "--method", "lagrange",
            "--out", str(dealt / "r_huge.json"), str(share),
        ]) == 2
        assert capsys.readouterr().err == message
        assert expansions == []

    def test_an_owner_past_n_is_refused_before_expanding(self, dealt, expansions, capsys):
        """The library's one owner check refuses it: BadIndex, exit 2."""
        bound = bio.decode_share((dealt / "share_2.json").read_bytes())
        stray = dealt / "share_6.json"
        stray.write_bytes(bio.encode_share(ajtai.Share(6, bound.share.bits), bound.deal))
        bulletin = str(dealt / "bulletin.json")
        message = "error: BadIndex: owner 6 outside [1, 5]\n"
        assert cli.main(["verify-share", "--bulletin", bulletin, "--share", str(stray)]) == 2
        assert capsys.readouterr().err == message
        assert cli.main([
            "recover", "--bulletin", bulletin, "--secret", "1", "--method", "lagrange",
            "--out", str(dealt / "r_stray.json"), str(dealt / "share_1.json"), str(stray),
        ]) == 2
        assert capsys.readouterr().err == message
        assert not (dealt / "r_stray.json").exists()
        assert expansions == []

    def test_a_share_of_the_declared_r_expands_t_max_times_r_residues(
        self, tmp_path, monkeypatch, capsys
    ):
        """A bulletin stays small whatever r it declares, but a share of that
        length makes ``verify-share`` expand F: t_max * r residues."""
        params = scheme.SchemeParams(variant=scheme.Variant.S1, n=8, k=1, thresholds=(4,))
        _shares, board = scheme.deal(params, [(1, 2, 3, 4)], Drbg(1))
        obj = json.loads(bio.encode_bulletin(board)[0])
        r = obj["params"]["r"] = 20_000
        bulletin = tmp_path / "bulletin.json"
        bulletin.write_text(json.dumps(obj, separators=(",", ":")))
        assert bulletin.stat().st_size < 2_000
        share = tmp_path / "share.json"
        share.write_bytes(bio.encode_share(ajtai.Share(owner=1, bits=Drbg(2).bit_vector(r))))
        sizes = []
        real = scheme._seeded_columns

        def spy(field, rows, cols, seed):
            sizes.append((rows, cols))
            return real(field, rows, cols, seed)

        monkeypatch.setattr(scheme, "_seeded_columns", spy)
        assert cli.main(["verify-share", "--bulletin", str(bulletin), "--share", str(share)]) == 1
        assert "share 1: FAIL" in capsys.readouterr().err
        assert sizes == [(params.max_threshold, r)]  # F, t_max * r residues


class TestPartialRead:
    """recover parses the offsets and extras of the secret it recovers,
    verify-secret and verify-share those of none: a residue fault in
    another secret's passes them, a shape fault anywhere does not."""

    @pytest.fixture(
        params=[("s1", 97), ("s3", 97), ("s1", DEFAULT_PRIME), ("s3", DEFAULT_PRIME)],
        ids=lambda p: f"{p[0]}-q{p[1]}",
    )
    def deal_dir(self, request, tmp_path, capsys):
        variant, q = request.param
        secrets = tmp_path / "secrets.json"
        secrets.write_bytes(encode_secrets(q, ((7, 9), (1, 2, 3))))
        argv = ["deal", "--variant", variant, "--n", "5", "--k", "2", "--thresholds", "2,3",
                "--q", str(q), "--seed", "42", "--secrets", str(secrets),
                "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        capsys.readouterr()
        return tmp_path

    @staticmethod
    def faulty(directory, fault):
        """A copy of the bulletin with secret 2's offsets changed by fault."""
        obj = json.loads((directory / "bulletin.json").read_bytes())
        fault(obj["offsets"][1], obj["params"]["q"])
        path = directory / "faulty.json"
        path.write_text(json.dumps(obj))
        return str(path)

    @staticmethod
    def unreduced(offsets, q):
        offsets[0][0] = q

    @staticmethod
    def one_short(offsets, q):
        offsets.pop()

    @staticmethod
    def run(capsys, *argv):
        code = cli.main([str(a) for a in argv])
        out, err = capsys.readouterr()
        return code, out, err

    def recover(self, capsys, directory, bulletin, secret, method, out, owners):
        return self.run(
            capsys, "recover", "--bulletin", bulletin, "--secret", secret, "--method", method,
            "--out", directory / out, *(directory / f"share_{j}.json" for j in owners),
        )

    def test_secret_one_recovers_and_verifies_as_from_the_clean_bulletin(self, deal_dir, capsys):
        clean = str(deal_dir / "bulletin.json")
        faulty = self.faulty(deal_dir, self.unreduced)
        for method in ("vandermonde", "lagrange", "backward"):
            reports = []
            for bulletin in (clean, faulty):
                code, out, err = self.recover(
                    capsys, deal_dir, bulletin, 1, method, "r.json", [2, 3]
                )
                assert (code, err) == (0, ""), err
                report = deal_dir / "r.json"
                assert out == f"secret 1: verified -> {report}\n"
                reports.append(report.read_bytes())
                assert self.run(capsys, "verify-secret", "--bulletin", bulletin,
                                "--recovered", report) == (0, "secret 1: verified\n", "")
            assert reports[0] == reports[1]

    def test_secret_two_is_refused_and_every_share_verifies(self, deal_dir, capsys):
        faulty = self.faulty(deal_dir, self.unreduced)
        assert self.recover(capsys, deal_dir, faulty, 2, "lagrange", "r2.json", [1, 2, 3]) == (
            2, "", "error: ValidationError: offsets[1][0] is not reduced mod q\n"
        )
        assert not (deal_dir / "r2.json").exists()
        for j in range(1, 6):
            share = deal_dir / f"share_{j}.json"
            assert self.run(capsys, "verify-share", "--bulletin", faulty, "--share", share) == (
                0, f"share {j}: OK\n", ""
            )

    def test_a_shape_fault_in_secret_two_fails_every_command(self, deal_dir, capsys):
        clean = str(deal_dir / "bulletin.json")
        assert self.recover(capsys, deal_dir, clean, 1, "lagrange", "r.json", [1, 2])[0] == 0
        faulty = self.faulty(deal_dir, self.one_short)
        failed = (2, "", "error: ValidationError: offsets[1] must have length 3, got 2\n")
        assert self.recover(capsys, deal_dir, faulty, 1, "lagrange", "r1.json", [1, 2]) == failed
        assert self.run(
            capsys, "verify-secret", "--bulletin", faulty, "--recovered", deal_dir / "r.json"
        ) == failed
        assert self.run(
            capsys, "verify-share", "--bulletin", faulty, "--share", deal_dir / "share_1.json"
        ) == failed

    def test_each_command_reads_the_bulletin_once_for_what_it_uses(
        self, deal_dir, capsys, monkeypatch
    ):
        reads = []
        real = bio.read_bulletin

        def spy(data, **kwargs):
            reads.append(kwargs)
            return real(data, **kwargs)

        monkeypatch.setattr(bio, "read_bulletin", spy)
        bulletin = deal_dir / "bulletin.json"
        assert self.run(capsys, "verify-share", "--bulletin", bulletin,
                        "--share", deal_dir / "share_4.json")[0] == 0
        assert reads == [{"secrets": ()}]
        assert self.recover(capsys, deal_dir, bulletin, 2, "backward", "r.json", [1, 2, 3])[0] == 0
        assert reads[1:] == [{"secrets": (2,)}]
        assert self.run(capsys, "verify-secret", "--bulletin", bulletin,
                        "--recovered", deal_dir / "r.json")[0] == 0
        assert reads[2:] == [{"secrets": ()}]


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
        phases = [
            "construct",
            "verify_share",
            "recover_vandermonde",
            "recover_lagrange",
            "recover_backward",
        ]
        for t, rows in (("2", lines[1:6]), ("3", lines[6:11])):
            assert [row.split(",")[:2] for row in rows] == [[phase, t] for phase in phases]
        strip_time = lambda text: [
            line.rsplit(",", 1)[0] for line in text.strip().split("\n")
        ]
        assert strip_time(a.stdout) == strip_time(b.stdout)

    def test_each_trial_draws_its_own_setup(self, monkeypatch, capsys):
        """No DealSetup is reused: one setup per trial and threshold."""
        calls = []
        real_setup = cli.setup

        def counted(*args):
            calls.append(args)
            return real_setup(*args)

        monkeypatch.setattr(cli, "setup", counted)
        args = ["bench", "--n", "6", "--t-range", "3,4", "--trials", "3", "--seed", "1"]
        assert cli.main(args) == 0, capsys.readouterr().err
        assert len(calls) == 6

    def test_trials_cycle_through_every_secret(self, monkeypatch, capsys):
        # trial m recovers secret 1 + m % k, by every method
        recovered = []
        for method, recover in cli._METHODS.items():
            def spy(board, i, subshadows, recover=recover, method=method):
                recovered.append((i, method))
                return recover(board, i, subshadows)

            monkeypatch.setitem(cli._METHODS, method, spy)
        args = ["bench", "--n", "6", "--k", "4", "--t-range", "3", "--trials", "4", "--seed", "1"]
        assert cli.main(args) == 0, capsys.readouterr().err
        assert recovered == [(i, method) for i in (1, 2, 3, 4) for method in cli._METHODS]

    def test_negative_seed_refused_by_the_parser(self):
        result = run_cli("bench", "--n", "6", "--t-range", "2", "--trials", "1", "--seed", "-1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.endswith(
            "error: argument --seed: must be a nonnegative integer, got '-1'\n"
        )

    def test_trials_below_one_refused_before_any_deal(self, capsys):
        # t = 99 > n would fail the deal, so the trials message shows the
        # count is checked first
        for trials in ("0", "-1"):
            args = ["bench", "--n", "6", "--t-range", "99", "--trials", trials, "--seed", "1"]
            assert cli.main(args) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: ValueError: trials must be at least 1, got {trials}\n"


def _file_mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize("umask, public", [(0o022, 0o644), (0o077, 0o600)], ids=oct)
def test_public_files_take_the_umask_and_shares_stay_private(tmp_path, monkeypatch, capsys, umask, public):
    """The bulletin is created like ``open`` creates a file, mode 0666 less
    the umask; a share file and a recovery report, which holds the secret,
    are 0600 under any umask."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "secrets.json").write_bytes(encode_secrets(97, ((7, 9), (1, 2, 3))))
    old = os.umask(umask)
    try:
        assert cli.main([*DEAL_ARGS, "--secrets", "secrets.json", "--out-dir", "out"]) == 0
        assert cli.main(["recover", "--bulletin", "out/bulletin.json", "--secret", "1",
                         "--method", "lagrange", "out/share_1.json", "out/share_2.json"]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert _file_mode(tmp_path / "out" / "bulletin.json") == public
    assert _file_mode(tmp_path / "recovered_1.json") == 0o600
    for j in range(1, 6):
        assert _file_mode(tmp_path / "out" / f"share_{j}.json") == 0o600


def test_import_leaves_statistics_out():
    """Only ``mss bench`` takes medians, so importing the CLI does not pay
    for the statistics module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, mss.cli; sys.exit('statistics' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestParserText:
    """``main`` builds only the parser of the subcommand named; what it
    prints and its exit code are those of the full parser."""

    COMMANDS = ["deal", "verify-share", "recover", "verify-secret", "counts", "bench"]
    RECOVER = ["recover", "--bulletin", "b.json", "--secret", "1", "--method", "lagrange"]
    ARGVS = [
        [],
        ["-h"],
        ["--help"],
        ["nope"],
        ["--"],
        *([name, "-h"] for name in COMMANDS),
        ["deal", "--variant", "s1"],
        ["verify-share", "--bulletin", "b.json"],
        ["recover", "--bulletin", "b.json", "--secret", "x", "--method", "lagrange", "s.json"],
        ["recover", "--bulletin", "b.json", "--secret", "1", "--method", "nope", "s.json"],
        [*RECOVER, "s.json", "--bogus"],
        ["counts", "--bogus"],
        ["bench", "--seed", "-1"],
        ["deal", "--variant", "s1", "--n", "5", "--k", "1", "--thresholds", "2",
         "--secrets", "s.json", "--seed", "-1"],
        ["deal", "--variant", "s1", "--n", "5", "--k", "2", "--thresholds", "2,x",
         "--secrets", "s.json"],
        ["bench", "--t-range", "2,x"],
    ]

    @staticmethod
    def printed(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as info:
            parse(argv)
        return out.getvalue(), err.getvalue(), info.value.code

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_text_as_the_full_parser(self, monkeypatch, columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        full = self.printed(cli.build_parser().parse_args, argv)
        assert self.printed(cli.main, argv) == full
        assert full[2] in (0, 2)

    def test_bad_int_list_names_the_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["deal", "--variant", "s1", "--n", "5", "--k", "2",
                      "--thresholds", "2,x", "--secrets", "s.json"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --thresholds: expected a comma list of integers" in err

    def test_unrecognized_option_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([*self.RECOVER, "s.json", "--bogus"])
        err = capsys.readouterr().err
        assert "{" + ",".join(self.COMMANDS) + "}" in err
        assert err.endswith("error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize(
        "argv, text",
        [([], "arguments are required: command\n"), (["nope"], "argument command: invalid choice")],
    )
    def test_full_parser_names_the_command_argument(self, capsys, argv, text):
        """The reference itself: no metavar stands in for "command"."""
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert text in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["counts", "--t", "3"], ["counts"]),
            (["counts", "-h"], ["counts"]),
            (["-h"], COMMANDS),
            (["--", "counts"], COMMANDS),
        ],
    )
    def test_builds_only_the_subcommand_named(self, monkeypatch, capsys, argv, built):
        added = []
        real_add_parser = argparse._SubParsersAction.add_parser

        def recorded(self, name, **kwargs):
            added.append(name)
            return real_add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recorded)
        with suppress(SystemExit):  # help exits 0, "--" is an invalid choice
            cli.main(argv)
        capsys.readouterr()
        assert added == built
