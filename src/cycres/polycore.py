"""Exact univariate polynomials over the Gaussian rationals.

Coefficients are stored in ascending degree order (index i holds the
coefficient of x^i) with the last entry nonzero; the zero polynomial is the
empty tuple.  All arithmetic is exact.  Roots are found here: floating
point enters only through the Aberth iteration and comes back only through
one rationalize-and-verify loop, which keeps a rationalized root only when it
is an exact root.  :func:`nonzero_roots` makes the one choice between exact
roots and float roots; cycres.equivalence groups and multiplies out either.
"""
from __future__ import annotations

import cmath
import functools
import re as _re
from fractions import Fraction

from .errors import (
    ConvergenceError,
    DegreeGuardError,
    PolyParseError,
    ZeroPolynomialError,
)
from .gaussian import GaussianRational


def _gr(value) -> GaussianRational:
    return GaussianRational.of(value)


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_gr(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    # ---- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial([1])

    @staticmethod
    def x(power: int = 1) -> "Polynomial":
        return Polynomial([0] * power + [1])

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial([c])

    @staticmethod
    def from_roots(roots, lead=1) -> "Polynomial":
        """lead * prod (x - r) over the given exact roots."""
        p = Polynomial.constant(lead)
        for r in roots:
            p = p * Polynomial([-_gr(r), 1])
        return p

    # ---- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> GaussianRational:
        """Leading coefficient (raises on the zero polynomial)."""
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant_term(self) -> GaussianRational:
        return self.coeffs[0] if self.coeffs else GaussianRational(0)

    def __getitem__(self, i: int) -> GaussianRational:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return GaussianRational(0)

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        o = self._coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial([self[i] + o[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial([self[i] - o[i] for i in range(n)])

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if self.is_zero() or o.is_zero():
            return Polynomial()
        out = [GaussianRational(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        d = self._coerce(other)
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [GaussianRational(0)] * max(0, len(self.coeffs) - len(d.coeffs) + 1)
        r = list(self.coeffs)
        dlead = d.coeffs[-1]
        dn = len(d.coeffs)
        while len(r) >= dn:
            t = r[-1] / dlead
            k = len(r) - dn
            q[k] = t
            for j, c in enumerate(d.coeffs):
                r[k + j] = r[k + j] - t * c
            while r and r[-1].is_zero():
                r.pop()
        return Polynomial(q), Polynomial(r)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Polynomial":
        """Quotient when the division is exact; raises otherwise."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    @staticmethod
    def _coerce(other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def sort_key(self) -> tuple:
        """Canonical total order: degree, then coefficients from the constant up."""
        return (self.degree, tuple(c.sort_key() for c in self.coeffs))

    # ---- calculus & evaluation -----------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial([c * i for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, value) -> GaussianRational:
        v = _gr(value)
        acc = GaussianRational(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def evaluate_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    # ---- structural helpers ----------------------------------------------

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if lead.is_one():
            return self
        return Polynomial([c / lead for c in self.coeffs])

    def strip_zero_roots(self) -> tuple[int, "Polynomial"]:
        """Split off the power of x: returns (l, h) with self = x^l * h, h(0) != 0."""
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial")
        l = 0
        while self.coeffs[l].is_zero():
            l += 1
        return l, Polynomial(self.coeffs[l:])

    def reversal(self) -> "Polynomial":
        """x^deg * f(1/x): the coefficient list reversed, then trimmed."""
        if self.is_zero():
            raise ZeroPolynomialError("reversal of the zero polynomial")
        return Polynomial(tuple(reversed(self.coeffs)))

    def is_reciprocal(self) -> bool:
        """True when f equals its own reversal (palindromic coefficients)."""
        if self.is_zero():
            return False
        return self.coeffs == tuple(reversed(self.coeffs))

    # ---- wire formats -----------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [c.to_quad() for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "Polynomial":
        return Polynomial([GaussianRational.from_quad(q) for q in data["coeffs"]])

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r})"


# ---------------------------------------------------------------------------
# gcd / square-free machinery
# ---------------------------------------------------------------------------


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm (coefficients form a field)."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def square_free_decomposition(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: f = lead * prod factor_i^i with each factor square-free.

    Returns the list of (monic factor, multiplicity) pairs with factor degree
    > 0; the leading coefficient is dropped (root structure only).
    """
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    f = f.monic()
    if f.degree == 0:
        return []
    df = f.derivative()
    a = poly_gcd(f, df)
    b = f.exact_div(a)
    c = df.exact_div(a)
    d = c - b.derivative()
    out: list[tuple[Polynomial, int]] = []
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = b.exact_div(g)
        c = d.exact_div(g)
        d = c - b.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# cyclotomic polynomials and root-of-unity detection
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def cyclotomic(k: int) -> Polynomial:
    """k-th cyclotomic polynomial: (x^k - 1) / prod of cyclotomic(j), j | k, j < k."""
    if k < 1:
        raise ValueError("cyclotomic index must be >= 1")
    p = Polynomial([-1] + [0] * (k - 1) + [1])
    for j in range(1, k):
        if k % j == 0:
            p = p.exact_div(cyclotomic(j))
    return p


def _euler_phi(k: int) -> int:
    phi = k
    n = k
    p = 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        phi -= phi // n
    return phi


def _has_root_of_unity_exact(f: Polynomial) -> bool:
    """Exact test for rational coefficients: does some cyclotomic polynomial
    with phi(k) <= deg f divide f?  phi(k)^2 >= k/2 bounds the k to scan."""
    d = f.degree
    bound = max(6, 2 * d * d)
    for k in range(1, bound + 1):
        if _euler_phi(k) <= d and (f % cyclotomic(k)).is_zero():
            return True
    return False


def has_root_of_unity(f: Polynomial) -> bool:
    """Whether some root of f is a root of unity, decided exactly.

    Rational coefficients get the cyclotomic-divisibility test.  Otherwise
    the same test runs on f * conj(f), which has rational coefficients and
    shares a root of unity with f exactly when f has one, because the
    conjugate of a root of unity is its inverse and again a root of unity.
    """
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    if f.degree == 0:
        return False
    if f.is_real():
        return _has_root_of_unity_exact(f)
    return _has_root_of_unity_exact(f * Polynomial([c.conjugate() for c in f.coeffs]))


# ---------------------------------------------------------------------------
# numeric roots: simultaneous (Aberth-Ehrlich) iteration
# ---------------------------------------------------------------------------

ABERTH_MAX_ITER = 500
ABERTH_TOL = 1e-12


def roots_numeric(f: Polynomial) -> list[complex]:
    """All complex roots of f, with multiplicity, as double-precision values.

    The exact square-free decomposition is taken first, so the iteration only
    ever sees simple roots; each square-free factor is solved independently
    and its roots repeated according to multiplicity.  Initial points sit on
    a circle of radius 1 + max |a_i / lead| at equally spaced angles with a
    fixed 0.4 offset, which keeps runs deterministic and avoids symmetric
    stagnation.

    Raises ConvergenceError when the residual test |f(z)| <= ABERTH_TOL *
    scale(z) is still failing after the iteration cap.
    """
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no well-defined roots")
    zero_mult, nonzero_part = f.strip_zero_roots()
    out: list[complex] = [0j] * zero_mult
    for factor, mult in square_free_decomposition(nonzero_part):
        for root in _aberth([complex(c) for c in factor.coeffs]):
            out.extend([root] * mult)
    out.sort(key=lambda z: (z.real, z.imag))
    return out


def _poly_eval_with_deriv(coeffs: list[complex], z: complex) -> tuple[complex, complex]:
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _residual_scale(coeffs: list[complex], z: complex) -> float:
    scale = 0.0
    az = abs(z)
    power = 1.0
    for c in coeffs:
        scale += abs(c) * power
        power *= az
    return max(scale, 1e-300)


def _aberth(coeffs: list[complex]) -> list[complex]:
    d = len(coeffs) - 1
    if d <= 0:
        return []
    if d == 1:
        return [-coeffs[0] / coeffs[1]]
    lead = coeffs[-1]
    radius = 1.0 + max(abs(c / lead) for c in coeffs[:-1])
    z = [
        radius * cmath.exp(1j * (2 * cmath.pi * j / d + 0.4))
        for j in range(d)
    ]
    for _ in range(ABERTH_MAX_ITER):
        converged = True
        moved = 0.0
        for j in range(d):
            p, dp = _poly_eval_with_deriv(coeffs, z[j])
            if abs(p) > ABERTH_TOL * _residual_scale(coeffs, z[j]):
                converged = False
            if p == 0:
                continue
            if dp == 0:
                z[j] += 1e-8 * (1 + radius)
                converged = False
                continue
            w = p / dp
            s = 0j
            for k in range(d):
                if k != j:
                    diff = z[j] - z[k]
                    if diff == 0:
                        diff = 1e-30
                    s += 1 / diff
            denom = 1 - w * s
            if denom == 0:
                denom = 1e-30
            step = w / denom
            z[j] -= step
            moved = max(moved, abs(step))
        if converged:
            return z
        if moved < 1e-16 * radius:
            break
    residuals = [abs(_poly_eval_with_deriv(coeffs, zj)[0]) for zj in z]
    if all(
        r <= ABERTH_TOL * _residual_scale(coeffs, zj) for r, zj in zip(residuals, z)
    ):
        return z
    raise ConvergenceError(
        "root iteration did not converge",
        residuals=residuals,
        degree=d,
    )


RATIONALIZE_DENOMINATOR_BOUND = 10**6


def rationalize(
    z: complex, bound: int = RATIONALIZE_DENOMINATOR_BOUND
) -> GaussianRational:
    """Closest Gaussian rational by continued fractions, each component's
    denominator at most bound."""
    return GaussianRational(
        Fraction(z.real).limit_denominator(bound),
        Fraction(z.imag).limit_denominator(bound),
    )


def _rational_roots(factor: Polynomial) -> list[GaussianRational]:
    """The numeric roots of a square-free factor, rationalized, that are
    distinct exact roots of it: all of its roots exactly when it splits."""
    found: list[GaussianRational] = []
    for z in _aberth([complex(c) for c in factor.coeffs]):
        cand = rationalize(z)
        if cand not in found and factor.evaluate(cand).is_zero():
            found.append(cand)
    return found


def try_exact_roots(f: Polynomial) -> list[GaussianRational] | None:
    """Roots with multiplicity as exact Gaussian rationals, or None.  Zero
    roots are split off first and come first."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    zero_mult, h = f.strip_zero_roots()
    out: list[GaussianRational] = [GaussianRational(0)] * zero_mult
    for factor, mult in square_free_decomposition(h):
        found = _rational_roots(factor)
        if len(found) < factor.degree:
            return None
        for root in found:
            out.extend([root] * mult)
    return out


def exact_univariate_roots(p: Polynomial) -> list[GaussianRational]:
    """The distinct Gaussian-rational roots of p, sorted.  Only roots with
    denominators beyond the rationalization bound can be missed."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    zero_mult, h = p.strip_zero_roots()
    found = {r for factor, _ in square_free_decomposition(h) for r in _rational_roots(factor)}
    if zero_mult:
        found.add(GaussianRational(0))
    return sorted(found, key=GaussianRational.sort_key)


def nonzero_roots(f: Polynomial):
    """(l, h, roots, exact): f = x^l * h with h(0) != 0, and the roots of h
    with multiplicity, exact when h splits over the Gaussian rationals and
    complex floats otherwise."""
    l, h = f.strip_zero_roots()
    roots = try_exact_roots(h)
    exact = roots is not None
    return l, h, roots if exact else roots_numeric(h), exact


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

_WS = _re.compile(r"\s+")

# Terms are stored densely, so an exponent costs that many coefficients.
PARSE_DEGREE_LIMIT = 10_000


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        if self.peek() != ch:
            raise PolyParseError(f"expected {ch!r}", self.pos, self.text)
        self.pos += 1

    def error(self, message: str):
        raise PolyParseError(message, self.pos, self.text)


def _read_uint(r: _Reader) -> int:
    start = r.pos
    while r.peek().isdigit():
        r.take()
    if r.pos == start:
        r.error("expected digits")
    return int(r.text[start:r.pos])


def _read_rational(r: _Reader) -> Fraction:
    negative = False
    if r.peek() == "-":
        r.take()
        negative = True
    num = _read_uint(r)
    den = 1
    if r.peek() == "/":
        r.take()
        den = _read_uint(r)
        if den == 0:
            r.error("zero denominator")
    value = Fraction(num, den)
    return -value if negative else value


def _read_coeff(r: _Reader) -> GaussianRational:
    if r.peek() == "(":
        r.take()
        real = _read_rational(r)
        imag = Fraction(0)
        if r.peek() in "+-":
            sign = -1 if r.take() == "-" else 1
            imag = sign * _read_rational(r)
            if r.peek() != "i":
                r.error("expected 'i' after imaginary part")
            r.take()
        r.expect(")")
        return GaussianRational(real, imag)
    return GaussianRational(_read_rational(r))


def _read_term(r: _Reader) -> Polynomial:
    if r.peek() == "x":
        coeff = GaussianRational(1)
    else:
        coeff = _read_coeff(r)
        if r.peek() == "*":
            r.take()
            if r.peek() != "x":
                r.error("expected 'x' after '*'")
        elif r.peek() != "x":
            return Polynomial.constant(coeff)
    r.expect("x")
    power = 1
    if r.peek() == "^":
        r.take()
        power = _read_uint(r)
        if power > PARSE_DEGREE_LIMIT:
            raise DegreeGuardError(
                "exponent exceeds the parser's degree limit",
                degree=power,
                limit=PARSE_DEGREE_LIMIT,
            )
    return Polynomial([0] * power + [coeff])


def parse(text: str) -> Polynomial:
    """Parse a polynomial string such as "x^3-10*x^2+31*x-30" or "(2-1i)*x+1/2".

    Grammar: terms joined by '+'/'-'; a term is coeff, coeff*x^k, or x^k; a
    coeff is a rational p/q or a parenthesized complex (a+bi).  Whitespace is
    ignored; a unicode minus sign is accepted.  "0" parses to the zero
    polynomial.  Errors carry the offending position.
    """
    cleaned = _WS.sub("", text).replace("−", "-")
    if not cleaned:
        raise PolyParseError("empty input", 0, text)
    r = _Reader(cleaned)
    total = Polynomial.zero()
    sign = 1
    if r.peek() in "+-":
        sign = -1 if r.take() == "-" else 1
    while True:
        term = _read_term(r)
        total = total + (term if sign == 1 else -term)
        if r.pos == len(cleaned):
            return total
        joiner = r.take()
        if joiner == "+":
            sign = 1
        elif joiner == "-":
            sign = -1
        else:
            r.error(f"unexpected character {joiner!r}")


def _format_rational(q: Fraction) -> str:
    return str(q)


def _format_coeff(c: GaussianRational) -> str:
    if c.is_real():
        return _format_rational(c.re)
    sign = "+" if c.im >= 0 else "-"
    return f"({c.re}{sign}{abs(c.im)}i)"


def format_poly(p: Polynomial) -> str:
    """Canonical print: descending degree, '*' between coefficient and x."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c.is_zero():
            continue
        if c.is_real():
            sign = "-" if c.re < 0 else ""
            mag = abs(c.re)
            if i == 0:
                body = _format_rational(mag)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                body = xpart if mag == 1 else f"{_format_rational(mag)}*{xpart}"
        else:
            sign = ""
            if i == 0:
                body = _format_coeff(c)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                body = f"{_format_coeff(c)}*{xpart}"
        if not parts:
            parts.append(sign + body)
        else:
            parts.append(("-" if sign == "-" else "+") + body)
    return "".join(parts)
