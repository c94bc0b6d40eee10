"""Share inversion: the public commitment h_j = F * sh_j gives the share away
at the default share length.

The commitment is a low-density subset sum: r = 24 bits hashed into
t_max = 8 residues of 61 bits.  Every x with F * x = h_j (mod q) lies in
one coset of the q-ary lattice L = {x : F * x = 0 (mod q)}, whose shortest
vectors are about q^(t_max / r) long, while the binary share is at most
sqrt(r) long.  In Kannan's embedding the lattice spanned by L and
(x_0, 1), for any x_0 in the coset, therefore has (sh_j, 1) as its
shortest vector by far, and LLL reduction finds it (Lagarias and Odlyzko,
JACM 1985).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mss.ajtai import expand_matrix
from mss.field import Matrix, PrimeField, solve_linear
from mss.rng import Drbg
from mss.scheme import SchemeParams, Variant, deal

TESTS = Path(__file__).resolve().parent


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def lll(basis, delta=0.99):
    """An LLL-reduced basis of the lattice the integer rows of ``basis``
    span, which must be linearly independent.

    The basis stays exact; Gram-Schmidt runs in floats on it, and a row is
    orthogonalized again after each size reduction, since a reduction by a
    large multiple leaves the float coefficients inexact (Schnorr and
    Euchner, Math. Programming 1994).  A coefficient within float error of
    +-1/2 is left as it is: reducing by it only flips its sign, and the
    reduction would never end.
    """
    b = [list(row) for row in basis]
    n = len(b)
    star = [None] * n  # Gram-Schmidt vectors b*_i, in floats
    norm = [0.0] * n  # |b*_i|^2
    mu = [[0.0] * n for _ in range(n)]

    def orthogonalize(k):
        v = [float(x) for x in b[k]]
        for j in range(k):
            mu[k][j] = _dot(b[k], star[j]) / norm[j]
            v = [x - mu[k][j] * y for x, y in zip(v, star[j])]
        star[k], norm[k] = v, _dot(v, v)

    orthogonalize(0)
    k = 1
    while k < n:
        orthogonalize(k)
        reduced = True
        while reduced:
            reduced = False
            for j in range(k - 1, -1, -1):
                if abs(mu[k][j]) > 0.5 + 1e-9:
                    c = round(mu[k][j])
                    b[k] = [x - c * y for x, y in zip(b[k], b[j])]
                    for i in range(j):
                        mu[k][i] -= c * mu[j][i]
                    reduced = True
            if reduced:
                orthogonalize(k)
        if norm[k] >= (delta - mu[k][k - 1] ** 2) * norm[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            orthogonalize(k - 1)
            k = max(k - 1, 1)
    return b


def kernel_lattice(field, r, sol):
    """A basis of L = {x : F * x = 0 (mod q)} from a solve of F: the kernel
    vectors mod q, and q times each pivot unit vector."""
    free = set(sol.free_cols)
    basis = [list(v) for v in sol.nullspace]
    return basis + [[field.q * (c == p) for c in range(r)] for p in range(r) if p not in free]


def _gram_schmidt(b):
    """The squared norms of the Gram-Schmidt vectors of b, and the
    coefficients mu[k][j] of b_k on b*_j for j < k, in floats."""
    star, norm, mu = [], [], []
    for row in b:
        coeffs = [_dot(row, s) / n for s, n in zip(star, norm)]
        v = [float(x) for x in row]
        for c, s in zip(coeffs, star):
            v = [x - c * y for x, y in zip(v, s)]
        star.append(v)
        norm.append(_dot(v, v))
        mu.append(coeffs)
    return norm, mu


def reduce_kernel_lattices(seeds, delta=0.99):
    """LLL-reduce the kernel lattice of a seeded 4 x 36 matrix at q = 97 for
    each seed, and check that the result lies in the lattice, is size
    reduced and meets Lovasz's condition."""
    field = PrimeField(97)
    for seed in seeds:
        f = Matrix(4, 36, field.rand_vec(Drbg(f"lll-{seed}"), 4 * 36))
        b = lll(kernel_lattice(field, f.cols, solve_linear(field, f, [(0,) * f.rows])))
        assert all(_dot(f.row(i), row) % field.q == 0 for row in b for i in range(f.rows))
        norm, mu = _gram_schmidt(b)
        assert all(abs(c) <= 0.5 + 1e-6 for coeffs in mu for c in coeffs), seed
        assert all(
            norm[k] >= (delta - mu[k][k - 1] ** 2) * norm[k - 1] * (1 - 1e-9)
            for k in range(1, len(b))
        ), seed


def test_lll_ends_on_a_coefficient_at_one_half():
    """Seeds 1, 3 and 4 meet a Gram-Schmidt coefficient at +-1/2, where a
    size reduction only flips its sign.  The reduction runs in a child
    process, so that a reduction that never ends fails within the timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH", "")]
    )
    code = "import test_share_inversion as t; t.reduce_kernel_lattices([1, 3, 4])"
    try:
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
        )
    except subprocess.TimeoutExpired:
        pytest.fail("LLL did not end within 30 s")
    assert run.returncode == 0, run.stderr


def invert_commitment(field, f, h):
    """A binary x with F * x = h (mod q), found by LLL on Kannan's embedding
    of the coset {x : F * x = h (mod q)}, or None if the reduced basis holds
    no such vector."""
    sol = solve_linear(field, f, [h])  # a point of the coset, and L's kernel part
    basis = [row + [0] for row in kernel_lattice(field, f.cols, sol)]
    basis.append(list(sol.particular[0]) + [1])
    for row in lll(basis):
        if abs(row[-1]) == 1:
            x = [row[-1] * v for v in row[:-1]]
            if set(x) <= {0, 1}:
                return tuple(x)
    return None


def test_lll_recovers_a_default_length_share_from_its_commitment():
    params = SchemeParams(variant=Variant.S1, n=8, k=1, thresholds=(8,))
    assert params.r == 24
    field = params.field()
    rng = Drbg(7)
    shares, board = deal(params, [field.rand_vec(rng, 8)], rng)
    owner = 3
    h = board.setup.commitments[owner - 1]
    f = expand_matrix(field, params.max_threshold, params.r, board.setup.matrices[0])
    x = invert_commitment(field, f, h)
    assert x == shares[owner - 1].bits
    # exact integer arithmetic, independent of the library's field code
    assert all(_dot(f.row(i), x) % field.q == h[i] for i in range(f.rows))
