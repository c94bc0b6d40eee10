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
from typing import Iterable, Sequence

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


def _walk(
    spec: IlrSpec, window: Sequence[Sequence[int]], weights: Sequence[int], gs: Iterable[int]
) -> list[tuple[int, ...]]:
    """One new term g * c + sum_v weights[v] * term_{j+v} per g_j in ``gs``,
    where term_0, term_1, ... are the ``window`` terms and then the new ones.

    Each term is held as one int of w-bit slots (see ``field._pack``), so a
    step is one multiply-add per weight, unpacked and reduced once.  With g
    and the weights reduced, every addend is a product of two residues, t+l
    of them per slot, so a slot never exceeds (t+l) * (q - 1)^2, and w is
    that bound's bit length: no slot carries into the next.
    """
    q, order = spec.field.q, len(weights)
    w = (spec.window * (q - 1) ** 2).bit_length()
    packed_c = _pack(spec.c, q, w)
    packed = [_pack(v, q, w) for v in window]
    out = []
    for j, g in enumerate(gs):
        acc = g * packed_c + sum(map(mul, weights, packed[j : j + order]))
        out.append(tuple(_unpack(acc, spec.dim, q, w)))
        packed.append(_pack(out[-1], q, w))
    return out


def forward_extend(
    spec: IlrSpec, initial: Sequence[Sequence[int]], upto: int
) -> tuple[tuple[int, ...], ...]:
    """Extend initial values u_0..u_{t+l-2} forward: the terms u_0..u_upto.

    The leading coefficient is 1, so each new term is solved directly:
    u_{i+t+l-1} = rhs(i) - sum_{v>=1} coeff_v * u_{i+t+l-1-v}.
    """
    if len(initial) != spec.order:
        raise BadInitial(f"expected {spec.order} initial terms, got {len(initial)}")
    _check_vectors(spec, initial, BadInitial)
    if upto < spec.order - 1:
        raise ValueError(f"upto must be at least {spec.order - 1}")
    # -coeff_v for v = t+l-1 down to 1, matching the terms u_i..u_{i+t+l-2}
    weights = [-c % spec.field.q for c in reversed(recursion_coeffs(spec)[1:])]
    gs = (_rhs_scalar(spec, i) for i in range(upto + 1 - spec.order))
    terms = [spec.field.vec(v) for v in initial]
    return tuple(terms + _walk(spec, terms, weights, gs))


def backward_recover(
    spec: IlrSpec, window: Sequence[Sequence[int]], start: int
) -> list[tuple[int, ...]]:
    """Recover u_{start-1}, ..., u_0 from the terms u_start..u_{start+t+l-2}.

    Each recursion instance is solved for its lowest-index term:
    u_m = coeff_{t+l-1}^{-1} * (rhs(m) - sum_{v<t+l-1} coeff_v * u_{m+t+l-1-v}),
    which is a forward step on the reversed window.
    """
    if start < 1:
        raise BadWindow("start must be at least 1")
    if len(window) != spec.order:
        raise BadWindow(f"expected window of {spec.order} terms, got {len(window)}")
    _check_vectors(spec, window, BadWindow)
    q = spec.field.q
    coeffs = recursion_coeffs(spec)
    inv_trailing = spec.field.inv(coeffs[-1])
    # -coeff_v / coeff_{t+l-1} for v = 0..t+l-2, matching u_{m+t+l-1}..u_{m+1}
    weights = [-c * inv_trailing % q for c in coeffs[:-1]]
    gs = (inv_trailing * _rhs_scalar(spec, m) % q for m in range(start - 1, -1, -1))
    return _walk(spec, window[::-1], weights, gs)


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
