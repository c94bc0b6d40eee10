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

from mss.ajtai import expand_matrix
from mss.field import solve_linear
from mss.rng import Drbg
from mss.scheme import SchemeParams, Variant, deal


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def lll(basis, delta=0.99):
    """An LLL-reduced basis of the lattice the integer rows of ``basis``
    span, which must be linearly independent.

    The basis stays exact; Gram-Schmidt runs in floats on it, and a row is
    orthogonalized again after each size reduction, since a reduction by a
    large multiple leaves the float coefficients inexact (Schnorr and
    Euchner, Math. Programming 1994).
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
                c = round(mu[k][j])
                if c:
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


def invert_commitment(field, f, h):
    """A binary x with F * x = h (mod q), found by LLL on Kannan's embedding
    of the coset {x : F * x = h (mod q)}, or None if the reduced basis holds
    no such vector."""
    q, r = field.q, f.cols
    sol = solve_linear(field, f, [h])  # a point of the coset, and L's kernel part
    free = set(sol.free_cols)
    # L is spanned by the kernel vectors mod q and q times each pivot unit vector
    basis = [list(v) + [0] for v in sol.nullspace]
    basis += [[q * (c == p) for c in range(r)] + [0] for p in range(r) if p not in free]
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
