"""Field arithmetic, linear solving, and interpolation primitives."""

import math
import random

import pytest

from mss.errors import DimMismatch, DuplicateNode, Inconsistent, InvalidNode
from mss.field import (
    DEFAULT_PRIME,
    Matrix,
    PrimeField,
    binom_mod,
    is_prime,
    lagrange_at_zero,
    matrix_rank,
    poly_eval,
    solve_linear,
    vandermonde,
)
from mss.rng import Drbg

F97 = PrimeField(97)
FBIG = PrimeField(DEFAULT_PRIME)


def mat_vec(field, m, x):
    """Oracle: matrix-vector product over F_q, one row at a time."""
    if len(x) != m.cols:
        raise DimMismatch(f"matrix has {m.cols} columns, vector has {len(x)}")
    return tuple(sum(a * b for a, b in zip(m.row(i), x)) % field.q for i in range(m.rows))


def brute_force_inverse(a, q):
    """Oracle: scan for b with a*b = 1 mod q."""
    for b in range(1, q):
        if a * b % q == 1:
            return b
    raise AssertionError(f"{a} has no inverse mod {q}")


class TestPrimeField:
    def test_accepts_primes(self):
        assert PrimeField(2).q == 2
        assert PrimeField(97).q == 97
        assert PrimeField(DEFAULT_PRIME).q == DEFAULT_PRIME

    def test_rejects_composites(self):
        for bad in (0, 1, 4, 96, 2**61 - 3):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_is_prime_spot_checks(self):
        assert is_prime(2) and is_prime(3) and is_prime(97)
        assert is_prime(DEFAULT_PRIME)
        assert not is_prime(1) and not is_prime(91) and not is_prime(2**61 - 2)

    @pytest.mark.parametrize(
        "n",
        [
            # the smallest strong pseudoprime to every base 2..37
            399165290221 * 798330580441,
            # the smallest to every base 2..41
            3317044064679887385961981,
        ],
    )
    def test_undecidable_modulus_rejected(self, n):
        with pytest.raises(ValueError, match="cannot decide"):
            is_prime(n)
        with pytest.raises(ValueError, match="cannot decide"):
            PrimeField(n)

    def test_large_primes_below_the_bound_accepted(self):
        assert PrimeField(2**61 - 1).q == 2**61 - 1
        assert PrimeField(2**64 + 13).q == 2**64 + 13

    def test_inverse_identity(self):
        assert F97.inv(1) == 1

    def test_inverse_of_minus_one_is_itself(self):
        assert F97.inv(96) == 96

    def test_inverse_of_three(self):
        expected = brute_force_inverse(3, 97)
        assert expected == 65
        assert F97.inv(3) == expected

    def test_inverse_roundtrip_exhaustive_small_field(self):
        for a in range(1, 97):
            assert a * F97.inv(a) % F97.q == 1

    def test_inverse_roundtrip_random(self):
        rng = Drbg(101)
        for _ in range(50):
            a = 1 + rng.randbelow(FBIG.q - 1)
            assert a * FBIG.inv(a) % FBIG.q == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            F97.inv(0)

    def test_vector_helpers(self):
        assert F97.vec_add((96, 1), (2, 3)) == (1, 4)
        assert F97.vec_sub((0, 1), (1, 2)) == (96, 96)
        assert F97.vec_scale(2, (50, 3)) == (3, 6)
        with pytest.raises(DimMismatch):
            F97.vec_add((1,), (1, 2))
        with pytest.raises(DimMismatch):
            F97.vec_sub((1, 2), (1,))


class TestMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            Matrix(0, 2, ())
        for rows in ([], [[], []]):
            with pytest.raises(ValueError, match="matrix dimensions must be positive"):
                Matrix.from_rows(rows)
        with pytest.raises(ValueError, match="ragged rows"):
            Matrix.from_rows([[1, 2], [3]])

    def test_from_rows_and_access(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.row(1) == (4, 5, 6)
        assert m.row(0)[2] == 3
        assert m.column(1) == (2, 5)

    def test_mat_vec(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert mat_vec(F97, m, (1, 1)) == (3, 7)
        with pytest.raises(DimMismatch):
            mat_vec(F97, m, (1, 2, 3))


class TestSolveLinear:
    def test_identity_system(self):
        m = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        sol = solve_linear(F97, m, [(4, 5, 6)])
        assert sol.unique and sol.vectors == ((4, 5, 6),)

    def test_zero_matrix_rank_report(self):
        m = Matrix(2, 3, (0,) * 6)
        sol = solve_linear(F97, m, [(0, 0)])
        assert not sol.unique
        assert (sol.rank, sol.free_dims) == (0, 3)

    def test_vandermonde_system_from_polynomial(self):
        # oracle: evaluate p(x) = 3 + 2x + x^3 at x = 1..4 directly
        coeffs = (3, 2, 0, 1)
        points = [1, 2, 3, 4]
        values = [poly_eval(F97, coeffs, x) for x in points]
        assert values == [6, 15, 36, 75]
        m = vandermonde(F97, points, 4)
        sol = solve_linear(F97, m, [values])
        assert sol.vectors == (coeffs,)

    def test_solution_reproduces_rhs(self):
        rng = Drbg(2024)
        for field in (F97, FBIG):
            for _ in range(20):
                size = 2 + rng.randbelow(4)
                m = Matrix(size, size, field.rand_vec(rng, size * size))
                x = field.rand_vec(rng, size)
                b = mat_vec(field, m, x)
                sol = solve_linear(field, m, [b])
                assert mat_vec(field, m, sol.particular[0]) == b

    def test_inconsistent_raises(self):
        m = Matrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(Inconsistent):
            solve_linear(F97, m, [(1, 2)])

    def test_underdetermined_affine_space(self):
        m = Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
        b = (5, 7)
        sol = solve_linear(F97, m, [b])
        assert sol.rank == 2 and sol.free_dims == 1
        assert mat_vec(F97, m, sol.particular[0]) == b
        shifted = F97.vec_add(sol.particular[0], sol.nullspace[0])
        assert mat_vec(F97, m, shifted) == b

    def test_rhs_length_checked(self):
        m = Matrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(DimMismatch):
            solve_linear(F97, m, [(1,)])


class TestManyColumns:
    """A multi-column call returns, column for column, what a one-column
    call returns, on random square, singular and inconsistent systems."""

    @staticmethod
    def random_system(rng, kind):
        size = 3 + rng.randbelow(4)
        rows = [F97.rand_vec(rng, size) for _ in range(size)]
        if kind != "square":
            # the last row is the sum of the first two: rank < size
            rows[-1] = F97.vec_add(rows[0], rows[1])
        m = Matrix.from_rows(rows)
        columns = [
            list(mat_vec(F97, m, F97.rand_vec(rng, size)))
            for _ in range(1 + rng.randbelow(4))
        ]
        if kind == "inconsistent":
            bad = rng.randbelow(len(columns))
            columns[bad][-1] = (columns[bad][-1] + 1) % 97
        return m, columns

    @pytest.mark.parametrize("kind", ["square", "singular", "inconsistent"])
    def test_solve_linear_matches_column_by_column(self, kind):
        rng = Drbg(f"many-columns-{kind}")
        for _ in range(30):
            m, columns = self.random_system(rng, kind)
            reference = []
            for b in columns:
                try:
                    reference.append(solve_linear(F97, m, [b]))
                except Inconsistent:
                    reference.append(None)
            if None in reference:
                assert kind == "inconsistent"
                with pytest.raises(Inconsistent):
                    solve_linear(F97, m, columns)
                continue
            sol = solve_linear(F97, m, columns)
            for c, (b, ref) in enumerate(zip(columns, reference)):
                assert (sol.rank, sol.free_dims) == (ref.rank, ref.free_dims)
                assert (sol.free_cols, sol.nullspace) == (ref.free_cols, ref.nullspace)
                assert sol.particular[c] == ref.particular[0]
                assert mat_vec(F97, m, sol.particular[c]) == tuple(b)
            for vec in sol.nullspace:
                assert mat_vec(F97, m, vec) == (0,) * m.rows
            if kind == "singular":
                assert sol.vectors is None

    def test_lagrange_matches_column_by_column(self):
        rng = random.Random("many-columns-lagrange")
        for _ in range(30):
            size = rng.randint(1, 8)
            nodes = rng.sample(range(1, 97), size)
            polys = [[rng.randrange(97) for _ in range(size)] for _ in range(rng.randint(1, 4))]
            columns = [[poly_eval(F97, p, x) for x in nodes] for p in polys]
            got = lagrange_at_zero(F97, nodes, columns)
            assert got == tuple(lagrange_at_zero(F97, nodes, [ys])[0] for ys in columns)
            assert got == tuple(p[0] for p in polys)

    def test_column_lengths_checked(self):
        m = Matrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(DimMismatch):
            solve_linear(F97, m, [(1, 2), (1,)])
        with pytest.raises(DimMismatch):
            lagrange_at_zero(F97, [1, 2], [[1, 2], [3]])


class TestSharedElimination:
    """matrix_rank and solve_linear run the same elimination: on random
    matrices of mixed shapes and ranks they agree on the rank, and the
    solve's particular and nullspace vectors check out under mat_vec."""

    @staticmethod
    def random_matrix(rng, field):
        rows = 2 + rng.randbelow(6)
        cols = 2 + rng.randbelow(6)
        rank = max(0, min(rows, cols) - rng.randbelow(3))
        # `rank` random rows, then random combinations of them, shuffled
        out = [field.rand_vec(rng, cols) for _ in range(rank)]
        while len(out) < rows:
            row = (0,) * cols
            for vec in out[:rank]:
                row = field.vec_add(row, field.vec_scale(rng.randbelow(field.q), vec))
            out.append(row)
        for i in range(rows - 1, 0, -1):
            j = rng.randbelow(i + 1)
            out[i], out[j] = out[j], out[i]
        return Matrix.from_rows(out)

    @pytest.mark.parametrize("q", [2, 97])
    def test_solve_rank_matches_matrix_rank(self, q):
        field = PrimeField(q)
        rng = Drbg(f"shared-elimination-{q}")
        for _ in range(200):
            m = self.random_matrix(rng, field)
            columns = [
                mat_vec(field, m, field.rand_vec(rng, m.cols))
                for _ in range(1 + rng.randbelow(3))
            ]
            sol = solve_linear(field, m, columns)
            assert sol.rank == matrix_rank(field, m)
            assert sol.free_dims == m.cols - sol.rank == len(sol.nullspace)
            for b, x in zip(columns, sol.particular):
                assert mat_vec(field, m, x) == b
            for vec in sol.nullspace:
                assert mat_vec(field, m, vec) == (0,) * m.rows


class TestLagrangeAtZero:
    def test_constant_polynomial(self):
        assert lagrange_at_zero(F97, [1, 2], [[5, 5]]) == (5,)

    def test_linear_through_origin(self):
        assert lagrange_at_zero(F97, [1, 2, 3], [[1, 2, 3]]) == (0,)

    def test_cubic_example(self):
        coeffs = (3, 2, 0, 1)
        values = [poly_eval(F97, coeffs, x) for x in range(1, 5)]
        assert lagrange_at_zero(F97, range(1, 5), [values]) == (3,)

    def test_matches_p0_random_polynomials(self):
        rng = Drbg(55)
        for field in (F97, FBIG):
            for degree in range(9):
                coeffs = field.rand_vec(rng, degree + 1)
                nodes = range(1, degree + 2)
                values = [poly_eval(field, coeffs, x) for x in nodes]
                assert lagrange_at_zero(field, nodes, [values]) == (coeffs[0],)

    def test_duplicate_node_raises(self):
        with pytest.raises(DuplicateNode):
            lagrange_at_zero(F97, [1, 1], [[5, 6]])

    def test_zero_node_raises(self):
        with pytest.raises(InvalidNode):
            lagrange_at_zero(F97, [0, 1], [[5, 6]])

    @pytest.mark.parametrize(
        "nodes, error",
        [([97, 97], DuplicateNode), ([98, 1], DuplicateNode), ([0, 1], InvalidNode)],
    )
    def test_node_checks_come_before_the_column_check(self, nodes, error):
        # a repeat that is also 0 mod q is a repeat; both come before a short column
        with pytest.raises(error):
            lagrange_at_zero(F97, nodes, [[5]])

    @pytest.mark.parametrize("field, node", [(F97, 5), (F97, 200), (FBIG, DEFAULT_PRIME - 1)])
    def test_single_node_has_weight_one(self, field, node):
        assert lagrange_at_zero(field, [node], [[1], [7]]) == (1, 7)

    def test_no_nodes_give_zero(self):
        assert lagrange_at_zero(F97, [], [[]]) == (0,)
        assert lagrange_at_zero(F97, [], []) == ()


class TestBinomMod:
    def test_zero_when_j_below_l(self):
        assert binom_mod(F97, 2, 3) == 0

    def test_l_zero(self):
        assert binom_mod(F97, 5, 0) == 1

    def test_small_value(self):
        assert math.comb(10, 3) == 120
        assert binom_mod(F97, 10, 3) == 120 % 97 == 23

    def test_matches_math_comb(self):
        for j in range(0, 30):
            for l in range(0, 8):
                assert binom_mod(F97, j, l) == math.comb(j, l) % 97
                assert binom_mod(FBIG, j, l) == math.comb(j, l) % FBIG.q

    def test_large_j_exact(self):
        # falling-factorial-over-factorial stays exact past the modulus
        j = 10**6 + 3
        assert binom_mod(F97, j, 4) == math.comb(j, 4) % 97

    def test_l_at_least_q_rejected(self):
        with pytest.raises(ValueError):
            binom_mod(F97, 200, 97)

    @pytest.mark.parametrize("j, l", [(-1, 0), (3, -1)])
    def test_negative_argument_rejected(self, j, l):
        with pytest.raises(ValueError, match="nonnegative"):
            binom_mod(F97, j, l)


class TestVandermonde:
    def test_nonsingular_at_distinct_nonzero_points(self):
        # evaluation points used by the schemes: 1..n and a few beyond
        for field in (F97, FBIG):
            for size in range(1, 9):
                m = vandermonde(field, list(range(1, size + 1)), size)
                assert matrix_rank(field, m) == size

    def test_rank_drops_with_duplicate_points(self):
        m = vandermonde(F97, [1, 2, 2], 3)
        assert matrix_rank(F97, m) == 2

    @pytest.mark.parametrize(
        "xs, width",
        [([1, 2], 0), ([1, 2], -1), ([], 3)],
        ids=["width-0", "width-negative", "no-points"],
    )
    def test_empty_shape_refused(self, xs, width):
        with pytest.raises(ValueError, match="matrix dimensions must be positive"):
            vandermonde(F97, xs, width)
