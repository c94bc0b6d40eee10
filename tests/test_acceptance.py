"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is exact residue equality unless stated otherwise.
"""

import json
import time
from pathlib import Path

import pytest

from mss.bulletin import (
    decode_bulletin,
    decode_share,
    encode_bulletin,
    encode_share,
)
from mss.cli import main as cli_main
from mss.errors import (
    UnsupportedVersion,
    ValidationError,
)
from mss.field import DEFAULT_PRIME, PrimeField, poly_eval
from mss.ilr import (
    IlrSpec,
    fit_general_term,
    fold_value,
    forward_extend,
    recursion_coeffs,
    to_homogeneous,
)
from mss.rng import Drbg
from mss.scheme import (
    SchemeParams,
    Variant,
    deal,
    participant_subshadows,
    privacy_rank_probe,
    recover_way1_lagrange,
    recover_way1_vandermonde,
    recover_way2,
    verify_secret,
)
from mss.ajtai import Share
from format1 import format1_deal


@pytest.fixture
def verdict(capsys):
    """One printed verdict line per criterion, visible despite capture."""

    def _verdict(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {num} failed: {detail}"

    return _verdict


def random_subset(rng, universe: int, size: int) -> list[int]:
    pool = list(range(1, universe + 1))
    return [pool.pop(rng.randbelow(len(pool))) for _ in range(size)]


def test_criterion_1_round_trip_all_paths(verdict):
    """All variants, (n,k) grid, 100 seeded trials each: exact recovery."""
    start = time.perf_counter()
    failures = 0
    trials_run = 0
    for variant in Variant:
        for n, k in ((5, 2), (7, 4), (10, 3)):
            rng = Drbg(f"acc1-{variant.value}-{n}-{k}")
            for _ in range(100):
                thresholds = tuple(2 + rng.randbelow(4) for _ in range(k))
                params = SchemeParams(
                    variant=variant, n=n, k=k, thresholds=thresholds
                )
                field = params.field()
                secrets = [field.rand_vec(rng, t) for t in thresholds]
                shares, board = deal(params, secrets, rng)
                trials_run += 1
                stage_order = random_subset(rng, k, k)
                for i in stage_order:
                    t_i = thresholds[i - 1]
                    quorum = random_subset(rng, n, t_i)
                    sub = participant_subshadows(
                        board, i, [shares[j - 1] for j in quorum]
                    )
                    got_v = recover_way1_vandermonde(board, i, sub)
                    got_l = recover_way1_lagrange(board, i, sub)
                    start_j = 1 + rng.randbelow(n - t_i + 1)
                    window = participant_subshadows(
                        board,
                        i,
                        [shares[j - 1] for j in range(start_j, start_j + t_i)],
                    )
                    got_b = recover_way2(board, i, window)
                    expected = tuple(secrets[i - 1])
                    if not (got_v == got_l == got_b == expected):
                        failures += 1
                    if not verify_secret(board, i, got_v):
                        failures += 1
    elapsed = time.perf_counter() - start
    verdict(
        1,
        failures == 0,
        f"{trials_run} deals, 3 recovery paths each, randomized stage order, "
        f"exact ({elapsed:.1f} s)",
    )


def test_criterion_2_general_term_property(verdict):
    """Forward sequences of length 50 match the fitted polynomial everywhere."""
    checked = 0
    failures = 0
    for q in (97, DEFAULT_PRIME):
        field = PrimeField(q)
        rng = Drbg(f"acc2-{q}")
        for t in range(4):
            for l in range(3):
                if t + l < 2:
                    continue
                for alternating in (False, True):
                    spec = IlrSpec(
                        t=t,
                        l=l,
                        alternating=alternating,
                        c=field.rand_vec(rng, 2),
                        field=field,
                    )
                    initial = [field.rand_vec(rng, 2) for _ in range(spec.order)]
                    seq = forward_extend(spec, initial, 49)
                    samples = [(j, seq[j]) for j in range(spec.unknowns)]
                    fits = fit_general_term(spec, samples)
                    for comp in range(2):
                        coeffs = fits[comp]
                        for j in range(50):
                            expected = fold_value(spec, j, seq[j][comp])
                            if poly_eval(field, coeffs, j) != expected:
                                failures += 1
                    checked += 1
    verdict(
        2,
        failures == 0,
        f"{checked} (t,l,family,q) combinations, degree t+2l-1 fit, "
        "all 50 indices exact",
    )


def test_criterion_3_homogenization(verdict):
    """Constant-RHS recursions satisfy the homogenized order-(k+1) relation."""
    failures = 0
    checked = 0
    for q in (97, DEFAULT_PRIME):
        field = PrimeField(q)
        rng = Drbg(f"acc3-{q}")
        for t in (2, 3, 4, 5):
            spec = IlrSpec(
                t=t, l=0, alternating=False, c=field.rand_vec(rng, 2), field=field
            )
            initial = [field.rand_vec(rng, 2) for _ in range(spec.order)]
            seq = forward_extend(spec, initial, 40)
            a = recursion_coeffs(spec)[1:]
            b = to_homogeneous(field, a)
            k = len(a)
            for i in range(len(seq) - (k + 2) + 1):
                for comp in range(2):
                    acc = seq[i + k + 1][comp]
                    for j, bj in enumerate(b, start=1):
                        acc += bj * seq[i + k + 1 - j][comp]
                    if acc % q != 0:
                        failures += 1
            checked += 1
    verdict(3, failures == 0, f"{checked} constant-RHS specs, every index exact")


GOLDEN_FIGURE1 = Path(__file__).parent / "data" / "figure1_golden.csv"


def test_criterion_4_counts_reproduction(verdict, capsys):
    """`counts --figure1` emits the five reference tuples exactly."""
    code = cli_main(["counts", "--figure1"])
    out = capsys.readouterr().out
    ok = code == 0 and out.encode() == GOLDEN_FIGURE1.read_bytes()
    verdict(4, ok, "figure-1 CSV matches the golden file byte for byte")


def test_criterion_5_privacy_rank_probe(verdict):
    """Sub-threshold quorums leave the secret free; full quorums pin it."""
    failures = 0
    for trial in range(50):
        variant = Variant.S1 if trial % 2 == 0 else Variant.S2
        rng = Drbg(f"acc5-{trial}")
        n = 5 + rng.randbelow(5)
        t_i = 2 + rng.randbelow(4)
        params = SchemeParams(variant=variant, n=n, k=1, thresholds=(t_i,))
        field = params.field()
        secrets = [field.rand_vec(rng, t_i)]
        shares, board = deal(params, secrets, rng)
        quorum = random_subset(rng, n, t_i)
        sub = participant_subshadows(
            board, 1, [shares[j - 1] for j in quorum]
        )
        short = {j: sub[j] for j in quorum[: t_i - 1]}
        probe = privacy_rank_probe(board, 1, short)
        if probe.free_dims < 1:
            failures += 1
        if any(a == b for a, b in probe.a0_witnesses):
            failures += 1
        full = privacy_rank_probe(board, 1, sub)
        if full.free_dims != 0:
            failures += 1
        if any((a, b) != (s, s) for (a, b), s in zip(full.a0_witnesses, secrets[0])):
            failures += 1
    verdict(
        5,
        failures == 0,
        "50 seeded s1/s2 instances: sub-threshold free, full quorum unique",
    )


def test_criterion_6_tamper_detection(verdict, tmp_path, capsys):
    """Single-bit share flips and single-component edits never verify.

    Runs through the command-line surfaces: `verify-share` on a share file
    with one flipped bit, `verify-secret` on a report with one altered
    component and on one with a component raised by q (congruent to the
    secret, but not equal to it, and refused as unreduced with exit 2).
    Honest counterparts must keep exiting 0.
    """
    from mss.bulletin import (
        encode_recovered,
        encode_share,
        write_atomic,
    )

    false_accepts = 0
    honest_rejects = 0
    variants = list(Variant)
    bulletin_path = tmp_path / "bulletin.json"
    share_path = tmp_path / "share.json"
    report_path = tmp_path / "recovered.json"
    for trial in range(100):
        variant = variants[trial % 4]
        rng = Drbg(f"acc6-{trial}")
        n = 5 + rng.randbelow(4)
        t_i = 2 + rng.randbelow(3)
        params = SchemeParams(variant=variant, n=n, k=1, thresholds=(t_i,))
        field = params.field()
        secrets = [field.rand_vec(rng, t_i)]
        shares, board = deal(params, secrets, rng)
        blob, digest = encode_bulletin(board)
        write_atomic(str(bulletin_path), blob)

        victim = shares[rng.randbelow(n)]
        bits = list(victim.bits)
        bits[rng.randbelow(len(bits))] ^= 1
        tampered = Share(owner=victim.owner, bits=tuple(bits))
        write_atomic(str(share_path), encode_share(tampered, deal=digest))
        args = [
            "verify-share",
            "--bulletin",
            str(bulletin_path),
            "--share",
            str(share_path),
        ]
        if cli_main(args) != 1:
            false_accepts += 1
        write_atomic(str(share_path), encode_share(victim, deal=digest))
        if cli_main(args) != 0:
            honest_rejects += 1

        sub = participant_subshadows(board, 1, shares[:t_i])
        recovered = list(recover_way2(board, 1, sub))
        pos = rng.randbelow(t_i)
        recovered[pos] = (recovered[pos] + 1 + rng.randbelow(params.q - 1)) % params.q
        write_atomic(str(report_path), encode_recovered(1, recovered, True, digest))
        args = [
            "verify-secret",
            "--bulletin",
            str(bulletin_path),
            "--recovered",
            str(report_path),
        ]
        if cli_main(args) != 1:
            false_accepts += 1
        # congruent to the secret but unreduced: one component moved by q,
        # so reading the report fails (exit 2) before anything is verified
        unreduced = list(secrets[0])
        unreduced[pos] += params.q
        write_atomic(str(report_path), encode_recovered(1, unreduced, True, digest))
        if cli_main(args) != 2:
            false_accepts += 1
        write_atomic(
            str(report_path), encode_recovered(1, secrets[0], True, digest)
        )
        if cli_main(args) != 0:
            honest_rejects += 1
    capsys.readouterr()  # drop the per-trial CLI chatter
    verdict(
        6,
        false_accepts == 0 and honest_rejects == 0,
        "100 seeded trials through verify-share/verify-secret, "
        "zero false accepts",
    )


def test_criterion_7_recovery_timing_order(verdict, capsys):
    """Backward recovery beats the linear-solve path at t=32, n=64."""
    args = ["bench", "--variant", "s1", "--n", "64", "--k", "1", "--t-range", "32"]
    assert cli_main([*args, "--trials", "30", "--seed", "2024"]) == 0
    medians = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        phase, _t, _trials, median = line.split(",")
        medians[phase] = float(median)
    way1 = medians["recover_vandermonde"]
    way2 = medians["recover_backward"]
    verdict(
        7,
        way2 < way1,
        f"median backward {way2 * 1e3:.2f} ms < median linear-solve "
        f"{way1 * 1e3:.2f} ms over 30 trials",
    )


def test_criterion_8_serialization(verdict):
    """Round trips on randomized boards/shares; every mutation class rejected."""
    objects = 0
    failures = 0
    variants = list(Variant)
    boards = []
    for trial in range(100):
        variant = variants[trial % 4]
        rng = Drbg(f"acc8-{trial}")
        q = DEFAULT_PRIME if trial % 4 == 0 else 97
        n = 4 + rng.randbelow(5)
        k = 1 + rng.randbelow(3)
        thresholds = tuple(2 + rng.randbelow(3) for _ in range(k))
        params = SchemeParams(variant=variant, n=n, k=k, thresholds=thresholds, q=q)
        field = params.field()
        secrets = [field.rand_vec(rng, t) for t in thresholds]
        shares, board = deal(params, secrets, rng)
        blob = encode_bulletin(board)[0]
        if decode_bulletin(blob) != board:
            failures += 1
        objects += 1
        for share in shares:
            sblob = encode_share(share)
            if decode_share(sblob).share != share:
                failures += 1
            objects += 1
        boards.append(board)

    # one corrupted-field mutation per field class, each with its error; the
    # matrices are mutated in a format 1 deal of the first deal's params
    board = boards[0]
    base = json.loads(encode_bulletin(board)[0])
    params, rng = board.setup.params, Drbg("acc8-format1")
    secrets = [params.field().rand_vec(rng, t) for t in params.thresholds]
    format1_board = format1_deal(params, secrets, rng)[1]
    format1_base = json.loads(encode_bulletin(format1_board)[0])

    def expect(mutator, error, format1=False):
        nonlocal failures
        obj = json.loads(json.dumps(format1_base if format1 else base))
        mutator(obj)
        try:
            decode_bulletin(json.dumps(obj).encode())
        except error:
            return
        failures += 1

    expect(lambda o: o.update(format_version=9), UnsupportedVersion)
    expect(lambda o: o["params"].update(variant="s9"), ValidationError)
    expect(lambda o: o["params"].update(thresholds=[1, 3]), ValidationError)
    expect(lambda o: o["mask_matrices"][0].update(rows=9), ValidationError, format1=True)
    expect(
        lambda o: o["commit_matrix"]["data"].__setitem__(0, str(board.setup.params.q)),
        ValidationError,
        format1=True,
    )
    expect(lambda o: o["mask_seeds"].__setitem__(0, "zz"), ValidationError)
    expect(lambda o: o.update(commit_seed=o["commit_seed"].upper()), ValidationError)
    expect(lambda o: o["commitments"].pop(), ValidationError)
    expect(lambda o: o["secret_hashes"].__setitem__(0, "zz"), ValidationError)
    expect(lambda o: o["constants"][0].append("0"), ValidationError)
    expect(lambda o: o["offsets"][0][0].append("0"), ValidationError)
    expect(lambda o: o["extras"][0].pop(), ValidationError)

    share_base = json.loads(encode_share(Share(owner=1, bits=(1, 0, 1, 0))))

    def expect_share(mutator, error):
        nonlocal failures
        obj = json.loads(json.dumps(share_base))
        mutator(obj)
        try:
            decode_share(json.dumps(obj).encode())
        except error:
            return
        failures += 1

    expect_share(lambda o: o.update(bits="ff"), ValidationError)
    expect_share(lambda o: o.update(r=0), ValidationError)
    expect_share(lambda o: o.update(deal="nope"), ValidationError)

    verdict(
        8,
        failures == 0,
        f"{objects} round-trip objects exact; 15 mutation classes rejected",
    )
