"""Recursion engine: coefficients, extension, recovery, and fitting."""

import pytest

from mss.errors import BadInitial, BadWindow, DuplicateNode
from mss.field import DEFAULT_PRIME, PrimeField, poly_eval, solve_linear, vandermonde
from mss.ilr import (
    IlrSpec,
    backward_recover,
    fit_general_term,
    fold_columns,
    fold_value,
    forward_extend,
    recursion_coeffs,
    rhs_term,
    to_homogeneous,
)
from mss.rng import Drbg
from test_packed import reference_forward

F97 = PrimeField(97)
FBIG = PrimeField(DEFAULT_PRIME)


def spec97(t, l, alternating=False, c=(1,)):
    return IlrSpec(t=t, l=l, alternating=alternating, c=c, field=F97)


def satisfies(spec, terms):
    """Oracle: every full window of terms meets the recursion identity."""
    q = spec.field.q
    coeffs = recursion_coeffs(spec)
    for i in range(len(terms) - spec.window + 1):
        expect = rhs_term(spec, i)
        for s in range(spec.dim):
            acc = sum(coeffs[v] * terms[i + spec.window - 1 - v][s] for v in range(spec.window))
            if acc % q != expect[s]:
                return False
    return True


class TestSpecValidation:
    def test_order_and_window(self):
        s = spec97(2, 1)
        assert (s.order, s.window, s.unknowns) == (2, 3, 4)

    def test_rejects_tiny_order(self):
        for t, l in [(0, 0), (1, 0), (0, 1), (-1, 3), (3, -1)]:
            with pytest.raises(ValueError):
                spec97(t, l)

    def test_rejects_unreduced_constant(self):
        with pytest.raises(ValueError):
            spec97(2, 1, c=(97,))

    def test_rejects_empty_constant(self):
        with pytest.raises(ValueError, match="nonempty"):
            spec97(2, 1, c=())


class TestRecursionCoeffs:
    def test_plain_t2_l1(self):
        assert recursion_coeffs(spec97(2, 1)) == (1, 95, 1)

    def test_alternating_t2_l1(self):
        assert recursion_coeffs(spec97(2, 1, alternating=True)) == (1, 2, 1)

    def test_plain_t1_l2(self):
        assert recursion_coeffs(spec97(1, 2)) == (1, 95, 1)

    def test_leading_coefficient_always_one(self):
        for t, l in [(2, 0), (0, 2), (3, 2), (1, 1)]:
            for alt in (False, True):
                assert recursion_coeffs(spec97(t, l, alternating=alt))[0] == 1


class TestRhsTerm:
    def test_zero_below_l(self):
        s = spec97(2, 1, c=(7,))
        assert rhs_term(s, 0) == (0,)

    def test_constant_when_l_zero(self):
        s = spec97(2, 0, c=(7,))
        for i in range(6):
            assert rhs_term(s, i) == (7,)

    def test_alternating_sign(self):
        s = spec97(1, 1, alternating=True, c=(1,))
        assert rhs_term(s, 3) == (94,)  # (-1)^3 * C(3,1) = -3

    def test_degenerates_to_zero_below_l(self):
        for l in (1, 2):
            s = spec97(2, l, c=(5,))
            for i in range(l):
                assert rhs_term(s, i) == (0,)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rhs_term(spec97(2, 1), -1)


class TestForwardExtend:
    def test_arithmetic_progression_when_c_zero(self):
        s = spec97(2, 1, c=(0,))
        seq = forward_extend(s, [(0,), (1,)], 4)
        assert [v[0] for v in seq] == [0, 1, 2, 3, 4]

    def test_binomial_closed_form(self):
        s = spec97(2, 1, c=(1,))
        oracle = list(reference_forward(s, [(0,), (0,)], 5))
        assert [v[0] for v in oracle] == [0, 0, 0, 1, 4, 10]  # C(j, 3)
        seq = forward_extend(s, [(0,), (0,)], 5)
        assert list(seq) == oracle

    def test_alternating_flips_sign(self):
        s = spec97(1, 1, alternating=True, c=(0,))
        seq = forward_extend(s, [(5,)], 3)
        assert [v[0] for v in seq] == [5, 92, 5, 92]

    def test_every_window_satisfies_recursion(self):
        rng = Drbg(9)
        for t, l in [(2, 0), (0, 2), (2, 1), (1, 2), (3, 2)]:
            for alt in (False, True):
                s = IlrSpec(t=t, l=l, alternating=alt, c=F97.rand_vec(rng, 2), field=F97)
                initial = [F97.rand_vec(rng, 2) for _ in range(s.order)]
                seq = forward_extend(s, initial, 20)
                assert satisfies(s, seq)

    def test_no_new_terms_when_upto_covers_initial(self):
        s = spec97(2, 1)
        seq = forward_extend(s, [(3,), (4,)], upto=1)
        assert list(seq) == [(3,), (4,)]
        with pytest.raises(ValueError):
            forward_extend(s, [(3,), (4,)], upto=0)

    def test_wrong_initial_count_rejected(self):
        with pytest.raises(BadInitial):
            forward_extend(spec97(2, 1), [(0,)], 5)

    def test_wrong_initial_dimension_rejected(self):
        with pytest.raises(BadInitial):
            forward_extend(spec97(2, 1), [(0, 0), (1, 1)], 5)


class TestBackwardRecover:
    def test_reverses_arithmetic_progression(self):
        s = spec97(2, 1, c=(0,))
        assert backward_recover(s, [(2,), (3,)], start=2) == [(1,), (0,)]

    def test_inverts_forward_example(self):
        s = spec97(2, 1, c=(1,))
        assert backward_recover(s, [(1,), (4,)], start=3) == [(0,), (0,), (0,)]

    def test_roundtrip_over_parameter_grid(self):
        rng = Drbg(31)
        for t in range(4):
            for l in range(3):
                if t + l < 2:
                    continue
                for alt in (False, True):
                    s = IlrSpec(
                        t=t, l=l, alternating=alt, c=F97.rand_vec(rng, 2), field=F97
                    )
                    initial = [F97.rand_vec(rng, 2) for _ in range(s.order)]
                    seq = forward_extend(s, initial, s.order + 8)
                    for drop in (1, 3, 5):
                        window = list(seq[drop : drop + s.order])
                        recovered = backward_recover(s, window, start=drop)
                        # returned newest-first: u_{drop-1}, ..., u_0
                        assert recovered == list(seq[:drop])[::-1]

    def test_bad_window_rejected(self):
        s = spec97(2, 1)
        with pytest.raises(BadWindow):
            backward_recover(s, [(1,)], start=3)
        with pytest.raises(BadWindow):
            backward_recover(s, [(1,), (2,)], start=0)


class TestFitGeneralTerm:
    def test_binomial_sequence_coefficients(self):
        s = spec97(2, 1, c=(1,))
        seq = forward_extend(s, [(0,), (0,)], 5)
        samples = [(j, seq[j]) for j in (1, 2, 3, 4)]
        (coeffs,) = fit_general_term(s, samples)
        # oracle: the fitted polynomial must reproduce the samples and the
        # whole sequence; C(j,3) expands to (2j - 3j^2 + j^3) / 6
        inv6 = F97.inv(6)
        expected = (0, 2 * inv6 % 97, -3 * inv6 % 97, inv6)
        assert expected == (0, 65, 48, 81)
        assert coeffs == expected
        for j in range(6):
            assert poly_eval(F97, coeffs, j) == seq[j][0]

    def test_constant_sequence(self):
        s = spec97(1, 1, c=(0,))
        samples = [(j, (5,)) for j in (0, 1, 2)]
        assert fit_general_term(s, samples) == ((5, 0, 0),)

    def test_alternating_fold(self):
        s = spec97(1, 1, alternating=True, c=(0,))
        seq = forward_extend(s, [(5,)], 2)
        samples = [(j, seq[j]) for j in (0, 1, 2)]
        assert fit_general_term(s, samples) == ((5, 0, 0),)

    def test_duplicate_indices_rejected(self):
        s = spec97(1, 1, c=(0,))
        with pytest.raises(DuplicateNode):
            fit_general_term(s, [(1, (1,)), (1, (1,)), (2, (2,))])

    def test_wrong_sample_count_rejected(self):
        s = spec97(1, 1, c=(0,))
        with pytest.raises(ValueError):
            fit_general_term(s, [(1, (1,)), (2, (2,))])

    def test_wrong_sample_dimension_rejected(self):
        s = spec97(1, 1, c=(0,))
        with pytest.raises(ValueError):
            fit_general_term(s, [(0, ()), (1, ()), (2, ())])

    def test_degree_bound_with_extra_samples(self):
        # fit a larger polynomial than needed: coefficients above the
        # engine's degree bound must come out zero
        rng = Drbg(77)
        for t, l, alt in [(2, 1, False), (1, 2, False), (2, 1, True), (1, 2, True)]:
            s = IlrSpec(t=t, l=l, alternating=alt, c=F97.rand_vec(rng, 1), field=F97)
            initial = [F97.rand_vec(rng, 1) for _ in range(s.order)]
            width = s.unknowns + 2
            seq = forward_extend(s, initial, width)
            xs = list(range(width))
            m = vandermonde(F97, xs, width)
            rhs = [fold_value(s, x, seq[x][0]) for x in xs]
            sol = solve_linear(F97, m, [rhs])
            assert sol.vectors is not None
            assert all(c == 0 for c in sol.vectors[0][s.unknowns :])


class TestFoldColumns:
    @pytest.mark.parametrize("alternating", [False, True])
    def test_matches_fold_value_entry_by_entry(self, alternating):
        # residues, 0, 1 and q - 1 among them, at even, odd and large indices
        s = spec97(2, 1, alternating=alternating, c=(1, 2, 3))
        samples = [
            (x, ((x - 50) % 97, (3 * x + 1) % 97, (-x * x - 1) % 97))
            for x in (1, 2, 3, 96, 97, 98, 147, 195, 10**20 + 1)
        ]
        assert fold_columns(s, samples) == [
            [fold_value(s, x, vec[comp]) for x, vec in samples] for comp in range(s.dim)
        ]

    @pytest.mark.parametrize("alternating", [False, True])
    def test_fit_general_term_reduces_its_samples(self, alternating):
        # entries below 0 and at or above q fit as their residues do
        s = spec97(2, 1, alternating=alternating, c=(1, 2, 3))
        samples = [(x, (x - 50, 3 * x + 97, -x * x - 1)) for x in (1, 2, 96, 10**20 + 1)]
        residues = [(x, tuple(v % 97 for v in vec)) for x, vec in samples]
        assert fit_general_term(s, samples) == fit_general_term(s, residues)


class TestGeneralTermTheorem:
    def test_sequence_matches_fitted_polynomial_everywhere(self):
        # spot checks; the full grid runs in the acceptance suite
        rng = Drbg(13)
        for field in (F97, FBIG):
            for t, l, alt in [(3, 1, False), (1, 3, True), (0, 2, False), (2, 0, True)]:
                s = IlrSpec(
                    t=t, l=l, alternating=alt, c=field.rand_vec(rng, 2), field=field
                )
                initial = [field.rand_vec(rng, 2) for _ in range(s.order)]
                seq = forward_extend(s, initial, 30)
                samples = [(j, seq[j]) for j in range(s.unknowns)]
                fits = fit_general_term(s, samples)
                for comp in range(2):
                    coeffs = fits[comp]
                    for j in range(31):
                        expected = fold_value(s, j, seq[j][comp])
                        assert poly_eval(field, coeffs, j) == expected


class TestToHomogeneous:
    def test_second_order_example(self):
        # u_{i+2} - 2u_{i+1} + u_i = c has trailing coefficients (-2, 1)
        assert to_homogeneous(F97, (95, 1)) == (94, 3, 96)

    def test_first_order_example(self):
        # u_{i+1} + 0*u_i = c collapses to u_{i+2} = u_{i+1}
        assert to_homogeneous(F97, (0,)) == (96, 0)

    def test_no_coefficients_rejected(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            to_homogeneous(F97, ())

    def test_constant_rhs_sequences_satisfy_homogenized_relation(self):
        rng = Drbg(41)
        for t in (2, 3, 4):
            s = IlrSpec(t=t, l=0, alternating=False, c=F97.rand_vec(rng, 2), field=F97)
            initial = [F97.rand_vec(rng, 2) for _ in range(s.order)]
            seq = forward_extend(s, initial, 25)
            a = recursion_coeffs(s)[1:]
            b = to_homogeneous(F97, a)
            k = len(a)
            for i in range(len(seq) - (k + 2) + 1):
                for comp in range(2):
                    acc = seq[i + k + 1][comp]
                    for j, bj in enumerate(b, start=1):
                        acc += bj * seq[i + k + 1 - j][comp]
                    assert acc % 97 == 0
