"""Cyclic resultants by three independent routes, plus real sign analysis.

The resultant convention is fixed so that Res(f, g) equals
lead(f)^deg(g) * prod g(alpha_i) over the roots of f; with g = x^m - 1 this
is the m-th cyclic resultant lead^m * prod (alpha_i^m - 1).  The standard
Sylvester layout realizes exactly this convention, which every other formula
in the package relies on.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegreeGuardError,
    InternalCheckError,
    PreconditionError,
    RootOfUnityError,
    ZeroPolynomialError,
)
from .gaussian import GaussianInteger, GaussianRational
from .polycore import (
    Polynomial,
    has_root_of_unity,
    roots_numeric,
    square_free_decomposition,
)

COMPANION_CROSS_CHECK_LIMIT = 16
# The largest sequence request: a dense Gaussian-rational f of degree 16 with
# small denominators takes about 10 s for 64 terms, an integer one under 0.5 s.
SEQUENCE_DEGREE_LIMIT = 16
SEQUENCE_LENGTH_LIMIT = 64


@dataclass(frozen=True)
class ResultantSequence:
    """Exact cyclic-resultant values for m = 1..N (1-based in document order)."""

    values: tuple[GaussianRational, ...]
    is_abs: bool = False

    def __post_init__(self):
        if not self.values:
            raise ValueError("sequence must have at least one entry")
        if self.is_abs:
            for v in self.values:
                if not v.is_real() or v.re < 0:
                    raise ValueError("absolute-value sequence entries must be >= 0")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, m: int) -> GaussianRational:
        """1-based access: seq[m] is the m-th value."""
        if not 1 <= m <= len(self.values):
            raise IndexError(f"index {m} outside 1..{len(self.values)}")
        return self.values[m - 1]

    def __iter__(self) -> Iterator[GaussianRational]:
        return iter(self.values)

    def has_zero(self) -> bool:
        return any(v.is_zero() for v in self.values)

    def to_json(self) -> dict:
        return {
            "is_abs": self.is_abs,
            "values": [v.to_quad() for v in self.values],
        }

    @staticmethod
    def from_json(data: dict) -> "ResultantSequence":
        return ResultantSequence(
            values=tuple(GaussianRational.from_quad(q) for q in data["values"]),
            is_abs=bool(data.get("is_abs", False)),
        )


# ---------------------------------------------------------------------------
# the exact determinant and the one choice of exact arithmetic
# ---------------------------------------------------------------------------


def _det_bareiss(m: list[list]):
    """Fraction-free (Bareiss) determinant over Z or Z[i]: every division is exact."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _cleared(f: Polynomial) -> tuple[list, int]:
    """(F, c): ascending coefficients of F = c*f, c the least common
    denominator of f's parts.  The one choice of exact arithmetic: F is on
    Python ints when f is real and on GaussianInteger otherwise."""
    c = math.lcm(*(q.denominator for a in f.coeffs for q in (a.re, a.im)))
    coeffs = [GaussianInteger(int(a.re * c), int(a.im * c)) for a in f.coeffs]
    return ([a.real for a in coeffs] if f.is_real() else coeffs), c


def _over(q, s: int) -> GaussianRational:
    """q / s for q in Z or Z[i] and a positive integer s."""
    return GaussianRational(Fraction(q.real, s), Fraction(q.imag, s) if q.imag else 0)


def _sylvester(fd: list, gd: list, zero) -> list[list]:
    """Sylvester matrix of two descending coefficient lists: deg(g) shifted
    copies of f's coefficients over deg(f) shifted copies of g's."""
    n = len(fd) - 1
    m = len(gd) - 1
    size = n + m
    rows = [[zero] * i + fd + [zero] * (size - i - len(fd)) for i in range(m)]
    rows += [[zero] * i + gd + [zero] * (size - i - len(gd)) for i in range(n)]
    return rows


def resultant(f: Polynomial, g: Polynomial) -> GaussianRational:
    """Res(f, g) = lead(f)^deg(g) * prod g(alpha_i), by Sylvester determinant.

    The Sylvester layout realizes the convention above with no extra sign.
    Res(f, 1) = 1 by the empty-product convention.  The determinant is taken
    on the cleared F = cf*f, G = cg*g: Res(F, G) / (cf^deg(g) * cg^deg(f)).
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomialError("resultant of the zero polynomial")
    (fc, cf), (gc, cg) = _cleared(f), _cleared(g)
    det = _det_bareiss(_sylvester(fc[::-1], gc[::-1], 0))
    return _over(det, cf**g.degree * cg**f.degree)


# ---------------------------------------------------------------------------
# the sequence kernel and the three cyclic-resultant routes
# ---------------------------------------------------------------------------


def _exact_div(num, den, m: int):
    """num / den, which must lie in Z for ints and in Z[i] otherwise."""
    if den == 1:  # F monic
        return num
    if isinstance(num, int):
        q, r = divmod(num, den)
    elif isinstance(num, GaussianInteger):
        q = num.quotient(den)
        r = q is None
    else:
        q = num / den
        r = q.re.denominator != 1 or q.im.denominator != 1
    if r:
        raise InternalCheckError("inexact division in the sequence kernel", m=m)
    return q


def _times_x(power: list, lead, tail: list) -> list:
    """lead * x * power reduced mod F, on ascending coefficients of degree < d.

    tail holds -a_i for i < d and lead is a_d, so the x^d term is cleared
    without division.
    """
    top = power[-1]
    body = power[:-1] if lead == 1 else [lead * p for p in power[:-1]]
    if not top:
        return [top] + body
    return [top * tail[0]] + [p + top * t for p, t in zip(body, tail[1:])]


def _times_companion(power: list[list], lead, tail: list) -> list[list]:
    """power * B, B the companion-shaped matrix with lead on the subdiagonal
    and tail as its last column: a column shift plus one dense column."""
    out = []
    for row in power:
        shifted = row[1:] if lead == 1 else [lead * x for x in row[1:]]
        last = row[0] * tail[0]
        for x, t in zip(row[1:], tail[1:]):
            if x:
                last = last + x * t
        out.append(shifted + [last])
    return out


def _companion_values(f: Polynomial) -> Iterator[GaussianRational]:
    """r_m = lead^m * det(C^m - I) for m = 1, 2, ..., C the companion matrix.

    The stepped matrix is B = lead * C, with B^m = B^(m-1) * B, so that
    r_m(F) = det(B^m - lead^m I) / lead^(m(d-1)), a checked division.
    """
    d = f.degree
    coeffs, c = _cleared(f)
    lead, tail = coeffs[-1], [-a for a in coeffs[:-1]]
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    scale = 1
    for m in itertools.count(1):
        power = _times_companion(power, lead, tail)
        scale = scale * lead
        delta = _det_bareiss(
            [row[:i] + [row[i] - scale] + row[i + 1 :] for i, row in enumerate(power)]
        )
        yield _over(_exact_div(delta * scale, scale**d, m), c**m)


def _reduced_values(f: Polynomial) -> Iterator[GaussianRational]:
    """r_m = lead^(m - deg h) * Res(f, h) for m = 1, 2, ..., h = (x^m - 1) mod f.

    x^m mod f is stepped from x^(m-1) mod f in O(d), so each term costs one
    Sylvester determinant of size at most 2d - 1 whatever m is.  power holds
    H = lead^m * (x^m mod F), integral, and with G = H - lead^m,
    r_m(F) = lead^(m - deg G) * Res(F, G) / lead^(m*d), a checked division.
    """
    d = f.degree
    if d == 0:
        yield from (f.leading**m for m in itertools.count(1))
        return
    coeffs, c = _cleared(f)
    lead, tail = coeffs[-1], [-a for a in coeffs[:-1]]
    power = [1] + [0] * (d - 1)
    scale = 1
    for m in itertools.count(1):
        power = _times_x(power, lead, tail)
        scale = scale * lead
        g = power[:]
        g[0] -= scale
        while g and not g[-1]:
            g.pop()
        if not g:
            yield GaussianRational(0)
            continue
        e = len(g) - 1
        res = _det_bareiss(_sylvester(coeffs[::-1], g[::-1], 0))
        yield _over(_exact_div(lead ** (m - e) * res, scale**d, m), c**m)


def cyclic_resultant(f: Polynomial, m: int, method: str = "direct"):
    """m-th cyclic resultant of f.

    method="direct":    exact Sylvester resultant against x^m - 1.
    method="companion": exact lead^m * det(A^m - I) with A the companion
                        matrix of f normalized monic.
    method="roots":     float lead^m * prod (alpha_i^m - 1) from numeric
                        roots; returns a complex double.
    """
    if m <= 0:
        raise ValueError("cyclic resultant index must be >= 1")
    if f.is_zero():
        raise ZeroPolynomialError("cyclic resultant of the zero polynomial")
    if method == "direct":
        return resultant(f, Polynomial([-1] + [0] * (m - 1) + [1]))
    if method == "companion":
        return next(itertools.islice(_companion_values(f), m - 1, None))
    if method == "roots":
        value = complex(f.leading) ** m
        for alpha in roots_numeric(f):
            value *= alpha**m - 1
        return value
    raise ValueError(f"unknown method {method!r}")


def _check_size(f: Polynomial, length: int) -> None:
    if f.degree > SEQUENCE_DEGREE_LIMIT or length > SEQUENCE_LENGTH_LIMIT:
        raise DegreeGuardError(
            "sequence request is too large",
            degree=f.degree,
            length=length,
            degree_limit=SEQUENCE_DEGREE_LIMIT,
            length_limit=SEQUENCE_LENGTH_LIMIT,
        )


def _terms(f: Polynomial, length: int) -> Iterator[GaussianRational]:
    """r_1..r_length of f, computed one at a time on demand.

    Values come from the reduced resultant (:func:`_reduced_values`); the
    stepped companion route is computed independently for m up to
    COMPANION_CROSS_CHECK_LIMIT and any disagreement raises an internal
    error, since the two must agree exactly.
    """
    if length < 1:
        raise ValueError("sequence length must be >= 1")
    if f.is_zero():
        raise ZeroPolynomialError("sequence of the zero polynomial")
    _check_size(f, length)
    checks = _companion_values(f)
    for m, value in zip(range(1, length + 1), _reduced_values(f)):
        if m <= COMPANION_CROSS_CHECK_LIMIT:
            comp = next(checks)
            if comp != value:
                raise InternalCheckError(
                    "reduced and companion cyclic resultants disagree",
                    m=m,
                    reduced=str(value),
                    companion=str(comp),
                )
        yield value


def sequence(f: Polynomial, length: int) -> ResultantSequence:
    """Exact, cross-checked cyclic resultants for m = 1..length."""
    return ResultantSequence(tuple(_terms(f, length)), is_abs=False)


def reproduces(f: Polynomial, target, use_abs: bool = False) -> bool:
    """Whether the exact r_1..r_N of f equal target, N = len(target).

    With use_abs every r_m must be real and |r_m| must equal target[m-1].
    This is the acceptance test of every family member and every
    reconstruction candidate; it stops at the first term that differs.
    """
    target = tuple(target)
    for value, want in zip(_terms(f, len(target)), target):
        if use_abs:
            if not value.is_real():
                return False
            value = GaussianRational(abs(value.re))
        if value != want:
            return False
    return True


# ---------------------------------------------------------------------------
# real sign analysis (Sturm counting)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignData:
    """Sign decomposition of a real polynomial's cyclic resultants.

    count_inside is the number of real zeros in (-1, 1) and count_below the
    number in (-inf, -1), both with multiplicity.  The resultant sign obeys
    r_m / |r_m| = base_sign * alt_sign^m with base_sign = (-1)^count_inside.

    alt_sign carries sign(lead) besides (-1)^count_below: the lead^m factor
    in the root-product formula alternates exactly like a root below -1, a
    contribution the textbook rule drops by assuming a positive leading
    coefficient (verified against exact sequences in the suite).
    """

    count_inside: int
    count_below: int
    lead_negative: bool = False

    @property
    def base_sign(self) -> int:
        return -1 if self.count_inside % 2 else 1

    @property
    def alt_sign(self) -> int:
        sign = -1 if self.count_below % 2 else 1
        return -sign if self.lead_negative else sign

    def sign_at(self, m: int) -> int:
        return self.base_sign * (self.alt_sign if m % 2 else 1)


def _to_fraction_poly(f: Polynomial) -> list[Fraction]:
    return [c.re for c in f.coeffs]


def _frac_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _frac_divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        t = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = t
        for j, c in enumerate(b):
            a[k + j] -= t * c
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _sturm_chain(coeffs: list[Fraction]) -> list[list[Fraction]]:
    deriv = [c * i for i, c in enumerate(coeffs)][1:]
    chain = [coeffs, deriv]
    while chain[-1]:
        _, rem = _frac_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _sign_variations(values: list[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots_in(coeffs: list[Fraction], lo, hi) -> int:
    """Distinct real roots of a square-free polynomial in (lo, hi].

    lo / hi may be the strings "-inf" / "inf"; the endpoint variation then
    uses leading-term signs.
    """
    if len(coeffs) <= 1:
        return 0
    chain = _sturm_chain(coeffs)

    def variations_at(point) -> int:
        if point == "-inf":
            vals = [c[-1] * (-1) ** (len(c) - 1) for c in chain]
        elif point == "inf":
            vals = [c[-1] for c in chain]
        else:
            vals = [_frac_eval(c, point) for c in chain]
        return _sign_variations(vals)

    return variations_at(lo) - variations_at(hi)


def sign_data(f: Polynomial) -> SignData:
    """Exact root counts in (-1,1) and (-inf,-1), with multiplicity.

    Requires real coefficients and no root of unity (in particular no root
    at -1 or 1, so open versus closed interval endpoints cannot matter).
    Counts come from Sturm chains on each square-free factor, scaled by
    multiplicity.
    """
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    if not f.is_real():
        raise PreconditionError("sign analysis requires real coefficients")
    if has_root_of_unity(f):
        raise RootOfUnityError("polynomial has a root of unity")
    inside = 0
    below = 0
    for factor, mult in square_free_decomposition(f):
        coeffs = _to_fraction_poly(factor)
        inside += mult * _count_roots_in(coeffs, Fraction(-1), Fraction(1))
        below += mult * _count_roots_in(coeffs, "-inf", Fraction(-1))
    return SignData(
        count_inside=inside,
        count_below=below,
        lead_negative=f.leading.re < 0,
    )


def abs_sequence(f: Polynomial, length: int) -> ResultantSequence:
    """|r_m| for m = 1..length, computed exactly via the sign decomposition."""
    _check_size(f, length)
    data = sign_data(f)
    base = sequence(f, length)
    values = []
    for m in range(1, length + 1):
        v = base[m] * data.sign_at(m)
        if not v.is_real() or v.re < 0:
            raise InternalCheckError(
                "sign law produced a non-positive absolute value", m=m, value=str(v)
            )
        values.append(v)
    return ResultantSequence(tuple(values), is_abs=True)
