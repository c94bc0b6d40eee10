"""Engine for a two-parameter family of inhomogeneous linear recursions.

A spec (t, l, alternating, c) over F_q defines vector sequences {u_i} that
satisfy, componentwise for every i >= 0,

    sum_{v=0}^{t+l-1}  C(t+l-1, v) * s(v) * u_{i+t+l-1-v}  =  g(i) * c

with s(v) = (-1)^v and g(i) = C(i, l) in the plain family, and s(v) = 1,
g(i) = (-1)^i * C(i, l) in the alternating family.  The first t+l-1 terms
are free initial values; every later (and earlier) term is determined.

Each component of u_i then equals p(i) (plain) or (-1)^i * p(i)
(alternating) for a polynomial p of degree below t+2l, which is what
interpolation-based recovery exploits: t+2l samples pin p, and the shared
value is p(0) = u_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import BadInitial, BadWindow, DuplicateNode
from .field import PrimeField, _pack, _unpack, binom_mod, solve_linear, vandermonde


@dataclass(frozen=True)
class IlrSpec:
    """Parameters of one recursion instance.

    c is the constant vector; the recursion runs componentwise, so the
    sequence consists of vectors of dimension len(c).
    """

    t: int
    l: int
    alternating: bool
    c: tuple[int, ...]
    field: PrimeField

    def __post_init__(self):
        if self.t < 0 or self.l < 0:
            raise ValueError("t and l must be nonnegative")
        if self.t + self.l < 2:
            raise ValueError("t + l must be at least 2")
        if not self.c:
            raise ValueError("constant vector must be nonempty")
        if any(not 0 <= x < self.field.q for x in self.c):
            raise ValueError("constant vector must be reduced")

    @property
    def window(self) -> int:
        """Number of consecutive terms related by one recursion instance."""
        return self.t + self.l

    @property
    def order(self) -> int:
        """Number of initial values that determine the sequence."""
        return self.t + self.l - 1

    @property
    def unknowns(self) -> int:
        """Coefficient count of the general-term polynomial."""
        return self.t + 2 * self.l

    @property
    def degree_bound(self) -> int:
        return self.t + 2 * self.l - 1

    @property
    def dim(self) -> int:
        return len(self.c)


def recursion_coeffs(spec: IlrSpec) -> tuple[int, ...]:
    """Coefficient of u_{i+t+l-1-v} for v = 0..t+l-1; the leading one is 1."""
    field = spec.field
    out = []
    for v in range(spec.window):
        coeff = binom_mod(field, spec.order, v)
        if not spec.alternating and v % 2 == 1:
            coeff = field.neg(coeff)
        out.append(coeff)
    return tuple(out)


def _rhs_scalar(spec: IlrSpec, i: int) -> int:
    """g(i): the right-hand side of the instance starting at i is g(i) * c."""
    field = spec.field
    g = binom_mod(field, i, spec.l)
    if spec.alternating and i % 2 == 1:
        g = field.neg(g)
    return g


def rhs_term(spec: IlrSpec, i: int) -> tuple[int, ...]:
    """Right-hand side g(i) * c of the recursion instance starting at i."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return spec.field.vec_scale(_rhs_scalar(spec, i), spec.c)


def _check_vectors(spec: IlrSpec, vecs: Sequence[Sequence[int]], err) -> None:
    for v in vecs:
        if len(v) != spec.dim:
            raise err(f"expected vectors of dimension {spec.dim}, got {len(v)}")


def forward_extend(
    spec: IlrSpec, initial: Sequence[Sequence[int]], upto: int
) -> tuple[tuple[int, ...], ...]:
    """Extend initial values u_0..u_{t+l-2} forward: the terms u_0..u_upto.

    The leading coefficient is 1, so each new term is solved directly:
    u_{i+t+l-1} = rhs(i) - sum_{v>=1} coeff_v * u_{i+t+l-1-v}.

    Each term is also held as one int of w-bit slots (see ``field._pack``),
    so a new term is g(i) * (packed c) plus one multiply-add
    (-coeff_v mod q) * (packed term) per earlier term, unpacked and
    reduced once.  Every addend is a product of two residues, t+l of them
    per slot, so a slot never exceeds (t+l) * (q - 1)^2, and w is that
    bound's bit length: no slot carries into the next.
    """
    if len(initial) != spec.order:
        raise BadInitial(f"expected {spec.order} initial terms, got {len(initial)}")
    _check_vectors(spec, initial, BadInitial)
    if upto < spec.order - 1:
        raise ValueError(f"upto must be at least {spec.order - 1}")
    q, order = spec.field.q, spec.order
    w = (spec.window * (q - 1) ** 2).bit_length()
    # -coeff_v for v = t+l-1 down to 1, matching the terms u_i..u_{i+t+l-2}
    weights = [-c % q for c in reversed(recursion_coeffs(spec)[1:])]
    packed_c = _pack(spec.c, q, w)
    terms = [spec.field.vec(v) for v in initial]
    packed = [_pack(v, q, w) for v in terms]
    for i in range(upto + 1 - order):
        acc = _rhs_scalar(spec, i) * packed_c
        acc += sum(map(mul, weights, packed[i : i + order]))
        term = _unpack(acc, spec.dim, q, w)
        terms.append(tuple(term))
        packed.append(_pack(term, q, w))
    return tuple(terms)


def backward_recover(
    spec: IlrSpec, window: Sequence[Sequence[int]], start: int
) -> list[tuple[int, ...]]:
    """Recover u_{start-1}, ..., u_0 from the terms u_start..u_{start+t+l-2}.

    Each recursion instance is solved for its lowest-index term:
    u_m = coeff_{t+l-1}^{-1} * (rhs(m) - sum_{v<t+l-1} coeff_v * u_{m+t+l-1-v}).
    """
    if start < 1:
        raise BadWindow("start must be at least 1")
    if len(window) != spec.order:
        raise BadWindow(f"expected window of {spec.order} terms, got {len(window)}")
    _check_vectors(spec, window, BadWindow)
    field = spec.field
    q = field.q
    coeffs = recursion_coeffs(spec)
    inv_trailing = field.inv(coeffs[spec.window - 1])
    # win holds u_{m+1}..u_{m+t+l-1}, ascending
    win = [field.vec(v) for v in window]
    out: list[tuple[int, ...]] = []
    for m in range(start - 1, -1, -1):
        acc = list(rhs_term(spec, m))
        for v in range(spec.window - 1):
            cv = coeffs[v]
            if cv:
                prev = win[spec.order - 1 - v]
                for s in range(spec.dim):
                    acc[s] -= cv * prev[s]
        u_m = tuple(inv_trailing * (a % q) % q for a in acc)
        out.append(u_m)
        win = [u_m] + win[:-1]
    return out


def fold_value(spec: IlrSpec, x: int, value: int) -> int:
    """Map a sequence sample to a polynomial sample.

    In the alternating family u_x = (-1)^x p(x), so odd-index samples are
    negated before interpolation; the plain family passes through.
    """
    if spec.alternating and x % 2 == 1:
        return spec.field.neg(value)
    return value % spec.field.q


def fold_columns(
    spec: IlrSpec, samples: Sequence[tuple[int, Sequence[int]]]
) -> list[list[int]]:
    """Polynomial samples per component: column s holds the folded s-th
    entries of the sample vectors, in sample order (see fold_value)."""
    q = spec.field.q
    signs = [fold_value(spec, x, 1) for x, _ in samples]  # 1 or -1 mod q
    return [
        [sign * vec[s] % q for sign, (_, vec) in zip(signs, samples)]
        for s in range(spec.dim)
    ]


def fit_general_term(
    spec: IlrSpec, samples: Sequence[tuple[int, Sequence[int]]]
) -> tuple[tuple[int, ...], ...]:
    """Coefficients A_0..A_{t+2l-1} of the general-term polynomial of each
    component, one tuple per component.

    Takes exactly t+2l samples (index, vector) with distinct indices and
    fits every component with one elimination of the shared Vandermonde
    matrix; alternating-family signs are folded into the samples before
    solving, so A_0 is always the index-0 value.
    """
    if len(samples) != spec.unknowns:
        raise ValueError(
            f"expected {spec.unknowns} samples, got {len(samples)}"
        )
    q = spec.field.q
    _check_vectors(spec, [vec for _, vec in samples], ValueError)
    xs = [x % q for x, _ in samples]
    if len(set(xs)) != len(xs):
        raise DuplicateNode("sample indices must be distinct")
    matrix = vandermonde(spec.field, xs, spec.unknowns)
    solution = solve_linear(spec.field, matrix, fold_columns(spec, samples))
    assert solution.vectors is not None  # distinct nodes: always nonsingular
    return solution.vectors


def to_homogeneous(field: PrimeField, coeffs: Sequence[int]) -> tuple[int, ...]:
    """Turn a constant-RHS relation into one order higher with zero RHS.

    Input a_1..a_k are the trailing coefficients of
    u_{i+k} + a_1 u_{i+k-1} + ... + a_k u_i = const; differencing adjacent
    instances cancels the constant and yields b_1..b_{k+1} with
    u_{i+k+1} + b_1 u_{i+k} + ... + b_{k+1} u_i = 0.
    """
    if not coeffs:
        raise ValueError("need at least one coefficient")
    q = field.q
    out = [(coeffs[0] - 1) % q]
    for j in range(1, len(coeffs)):
        out.append((coeffs[j] - coeffs[j - 1]) % q)
    out.append(-coeffs[-1] % q)
    return tuple(out)


def satisfies(spec: IlrSpec, terms: Sequence[Sequence[int]]) -> bool:
    """Check that every full window of terms meets the recursion identity."""
    field = spec.field
    q = field.q
    coeffs = recursion_coeffs(spec)
    for i in range(len(terms) - spec.window + 1):
        expect = rhs_term(spec, i)
        for s in range(spec.dim):
            acc = 0
            for v in range(spec.window):
                acc += coeffs[v] * terms[i + spec.window - 1 - v][s]
            if acc % q != expect[s]:
                return False
    return True
