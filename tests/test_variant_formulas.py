"""Variant recursions checked against their literal formulas.

These tests rebuild each variant's defining identity and backward step
with explicit binomials (math.comb) and raw modular arithmetic, entirely
independent of the engine's coefficient machinery, and assert that dealt
sequences satisfy them term by term.
"""

import dataclasses
import math

from mss.ajtai import ajtai_hash
from mss.rng import Drbg
from mss.scheme import (
    SchemeParams,
    Variant,
    construct,
    deal,
    participant_subshadows,
    recover_way1_lagrange,
    setup,
    verify_secret,
)


def full_sequence(board, secret, shares, i=1):
    """u_0..u_{n+e} for secret i from public data plus the dealer's secret."""
    n = board.setup.params.n
    sub = participant_subshadows(board, i, shares)
    terms = [tuple(secret)] + [sub[j] for j in range(1, n + 1)]
    terms.extend(vec for _, vec in board.extra_points(i))
    return terms


def make(variant, t, n=9, seed=None, q=10007):
    params = SchemeParams(variant=variant, n=n, k=1, thresholds=(t,), q=q)
    rng = Drbg(seed or f"vf-{variant.value}-{t}")
    field = params.field()
    secret = field.rand_vec(rng, t)
    shares, board = deal(params, [secret], rng)
    return params, secret, shares, board


class TestDefiningIdentities:
    """sum over the window with explicit binomial coefficients = stated RHS."""

    def test_per_secret_constant_plain(self):
        # sum_{v=0}^{t} C(t,v)(-1)^v u_{j+t-v} = c * j
        for t in (2, 3, 4):
            params, secret, shares, board = make(Variant.S1, t)
            q = params.q
            c = board.constants[0]
            u = full_sequence(board, secret, shares)
            for j in range(len(u) - t):
                for s in range(t):
                    lhs = sum(
                        math.comb(t, v) * (-1) ** v * u[j + t - v][s]
                        for v in range(t + 1)
                    )
                    assert lhs % q == c[s] * j % q

    def test_per_secret_constant_alternating(self):
        # sum_{v=0}^{t} C(t,v) u_{j+t-v} = (-1)^j * c * j
        for t in (2, 3, 4):
            params, secret, shares, board = make(Variant.S2, t)
            q = params.q
            c = board.constants[0]
            u = full_sequence(board, secret, shares)
            for j in range(len(u) - t):
                for s in range(t):
                    lhs = sum(
                        math.comb(t, v) * u[j + t - v][s] for v in range(t + 1)
                    )
                    assert lhs % q == (-1) ** j * c[s] * j % q

    def test_shared_constant_plain(self):
        # sum_{v=0}^{t} C(t,v)(-1)^v u_{j+t-v} = C(j,t) * c[:t]
        for t in (2, 3, 4):
            params, secret, shares, board = make(Variant.S3, t)
            q = params.q
            c = board.constants[0][:t]
            u = full_sequence(board, secret, shares)
            for j in range(len(u) - t):
                for s in range(t):
                    lhs = sum(
                        math.comb(t, v) * (-1) ** v * u[j + t - v][s]
                        for v in range(t + 1)
                    )
                    assert lhs % q == math.comb(j, t) * c[s] % q

    def test_shared_constant_alternating(self):
        # sum_{v=0}^{t} C(t,v) u_{j+t-v} = (-1)^j * C(j,t) * c[:t]
        for t in (2, 3, 4):
            params, secret, shares, board = make(Variant.S4, t)
            q = params.q
            c = board.constants[0][:t]
            u = full_sequence(board, secret, shares)
            for j in range(len(u) - t):
                for s in range(t):
                    lhs = sum(
                        math.comb(t, v) * u[j + t - v][s] for v in range(t + 1)
                    )
                    assert lhs % q == (-1) ** j * math.comb(j, t) * c[s] % q


class TestLiteralBackwardSteps:
    """The closed-form backward step reproduces every earlier term."""

    def check_backwards(self, variant, step):
        for t in (2, 3, 4):
            params, secret, shares, board = make(variant, t, seed=f"bk-{variant}-{t}")
            q = params.q
            c = board.constants[0][:t] if variant.shared_constant else board.constants[0]
            u = full_sequence(board, secret, shares)
            for m in range(len(u) - t - 1, -1, -1):
                for s in range(t):
                    assert u[m][s] == step(t, q, c[s], u, m, s), (variant, t, m, s)

    def test_per_secret_constant_plain(self):
        # u_m = (-1)^t c m - sum_{v=0}^{t-1} C(t,v)(-1)^{v+t} u_{m+t-v}
        def step(t, q, c_s, u, m, s):
            total = (-1) ** t * c_s * m
            for v in range(t):
                total -= math.comb(t, v) * (-1) ** (v + t) * u[m + t - v][s]
            return total % q

        self.check_backwards(Variant.S1, step)

    def test_per_secret_constant_alternating(self):
        # u_m = (-1)^m c m - sum_{v=0}^{t-1} C(t,v) u_{m+t-v}
        def step(t, q, c_s, u, m, s):
            total = (-1) ** m * c_s * m
            for v in range(t):
                total -= math.comb(t, v) * u[m + t - v][s]
            return total % q

        self.check_backwards(Variant.S2, step)

    def test_shared_constant_plain(self):
        # u_m = (-1)^t C(m,t) c - sum_{v=0}^{t-1} C(t,v)(-1)^{v+t} u_{m+t-v}
        def step(t, q, c_s, u, m, s):
            total = (-1) ** t * math.comb(m, t) * c_s
            for v in range(t):
                total -= math.comb(t, v) * (-1) ** (v + t) * u[m + t - v][s]
            return total % q

        self.check_backwards(Variant.S3, step)

    def test_shared_constant_alternating(self):
        # u_m = (-1)^m C(m,t) c - sum_{v=0}^{t-1} C(t,v) u_{m+t-v}
        def step(t, q, c_s, u, m, s):
            total = (-1) ** m * math.comb(m, t) * c_s
            for v in range(t):
                total -= math.comb(t, v) * u[m + t - v][s]
            return total % q

        self.check_backwards(Variant.S4, step)


class TestMultiUseShares:
    """One set of shares serves many deals: only the masking matrices change."""

    def test_same_shares_two_deals(self):
        params = SchemeParams(variant=Variant.S1, n=6, k=2, thresholds=(2, 3), q=97)
        field = params.field()
        rng = Drbg("multi-use")
        shares, first_setup = setup(params, rng)
        _, second_setup = setup(params, rng)
        # participants keep their original share bits; the second deal only
        # publishes fresh matrices and commitments for those same bits
        reissued = dataclasses.replace(
            second_setup,
            commitments=tuple(
                ajtai_hash(field, second_setup.matrix(0), share.bits)
                for share in shares
            ),
        )
        secrets_a = [field.rand_vec(rng, t) for t in params.thresholds]
        secrets_b = [field.rand_vec(rng, t) for t in params.thresholds]
        board_a = construct(first_setup, shares, secrets_a, rng)
        board_b = construct(reissued, shares, secrets_b, rng)
        for i in (1, 2):
            t_i = params.thresholds[i - 1]
            group = shares[:t_i]
            got_a = recover_way1_lagrange(
                board_a, i, participant_subshadows(board_a, i, group)
            )
            got_b = recover_way1_lagrange(
                board_b, i, participant_subshadows(board_b, i, group)
            )
            assert got_a == tuple(secrets_a[i - 1])
            assert got_b == tuple(secrets_b[i - 1])
            assert verify_secret(board_a, i, got_a)
            assert verify_secret(board_b, i, got_b)

    def test_construct_twice_on_one_setup_leaks_the_next_round(self):
        """The gap README's security note names, pinned as it stands.

        Two rounds on one DealSetup mask with the same G_i, so a quorum's
        round-1 subshadows, less round 1's offsets plus round 2's, are its
        round-2 subshadows: it opens round 2's secret without new shares.
        A round step that redraws the masks must turn this assertion around.
        """
        for variant in Variant:
            params = SchemeParams(variant=variant, n=8, k=2, thresholds=(3, 4))
            field = params.field()
            rng = Drbg(3)
            shares, deal_setup = setup(params, rng)
            rounds = [[field.rand_vec(rng, t) for t in params.thresholds] for _ in range(2)]
            first, second = (construct(deal_setup, shares, s, rng) for s in rounds)
            assert first.constants != second.constants
            pooled = participant_subshadows(first, 2, shares[2:6])  # owners 3..6
            moved = dict(pooled)
            for j in (4, 5, 6):  # t_2 = 4: owner 3's subshadow is its bare shadow
                shadow = field.vec_sub(pooled[j], first.offset_for(2, j))
                moved[j] = field.vec_add(shadow, second.offset_for(2, j))
            leaked = recover_way1_lagrange(second, 2, moved)
            assert leaked == tuple(rounds[1][1]) != tuple(rounds[0][1])
            assert verify_secret(second, 2, leaked)
