"""Exact Gaussian-rational numbers: a + b*i with a, b rational.

This is the coefficient field for everything exact in the package.  It is a
genuine field (division by any nonzero element stays exact), big enough to
represent every worked example while avoiding general algebraic-number
arithmetic; exact determinants run on its integers, GaussianInteger.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import InternalCheckError

Rationalish = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    __slots__ = ("re", "im")
    real = property(lambda self: self.re)  # the parts under int's and complex's names
    imag = property(lambda self: self.im)

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(value: Rationalish) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    # ---- predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def is_integer(self) -> bool:
        return not self.im and self.re.denominator == 1

    # ---- arithmetic -------------------------------------------------

    def __add__(self, other: Rationalish) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Rationalish) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Rationalish) -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: Rationalish) -> "GaussianRational":
        o = GaussianRational.of(other)
        if not self.im and not o.im:
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Rationalish) -> "GaussianRational":
        o = GaussianRational.of(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero Gaussian rational")
        if not self.im and not o.im:
            return GaussianRational(self.re / o.re)
        n = o.re * o.re + o.im * o.im
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other: Rationalish) -> "GaussianRational":
        return GaussianRational.of(other) / self

    def __pow__(self, n: int) -> "GaussianRational":
        if n < 0:
            return GaussianRational(1) / self ** (-n)
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # ---- comparison / hashing ---------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sort_key(self) -> tuple:
        """Arbitrary but deterministic total order (re first, then im)."""
        return (self.re, self.im)

    # ---- conversion -------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def to_quad(self) -> list[str]:
        """Wire form: [re_num, re_den, im_num, im_den] as decimal strings."""
        return [
            str(self.re.numerator),
            str(self.re.denominator),
            str(self.im.numerator),
            str(self.im.denominator),
        ]

    @staticmethod
    def from_quad(quad) -> "GaussianRational":
        rn, rd, im, id_ = (int(x) for x in quad)
        return GaussianRational(Fraction(rn, rd), Fraction(im, id_))


class GaussianInteger:
    """a + b*i on two Python ints, named like an int's parts so that an int is
    an operand on either side; // is exact division, / the GaussianRational."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int = 0):
        self.real, self.imag = real, imag

    def __add__(self, other) -> "GaussianInteger":
        return GaussianInteger(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianInteger":
        return GaussianInteger(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other) -> "GaussianInteger":
        return -self + other

    def __neg__(self) -> "GaussianInteger":
        return GaussianInteger(-self.real, -self.imag)

    def __mul__(self, other) -> "GaussianInteger":
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return GaussianInteger(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GaussianInteger":
        result = GaussianInteger(1)
        for _ in range(n):
            result = result * self
        return result

    def quotient(self, other) -> "GaussianInteger | None":
        """self / other when other divides self in Z[i], else None."""
        c, d = other.real, other.imag
        n = c * c + d * d
        re, r = divmod(self.real * c + self.imag * d, n)
        im, s = divmod(self.imag * c - self.real * d, n)
        return None if r or s else GaussianInteger(re, im)

    def __floordiv__(self, other) -> "GaussianInteger":
        if (q := self.quotient(other)) is None:
            raise InternalCheckError("inexact division", num=repr(self), den=repr(other))
        return q

    def __rfloordiv__(self, other: int) -> "GaussianInteger":
        return GaussianInteger(other) // self

    def __truediv__(self, other) -> GaussianRational:
        return GaussianRational(self.real, self.imag) / GaussianRational(other.real, other.imag)

    def __rtruediv__(self, other: int) -> GaussianRational:
        return GaussianRational(other) / GaussianRational(self.real, self.imag)

    def __eq__(self, other) -> bool:
        same_kind = isinstance(other, (int, GaussianInteger))
        return same_kind and self.real == other.real and self.imag == other.imag

    def __bool__(self) -> bool:
        return bool(self.real or self.imag)

    def __repr__(self) -> str:
        return f"GaussianInteger({self.real!r}, {self.imag!r})"


# ---------------------------------------------------------------------------
# factorization over the Gaussian integers
# ---------------------------------------------------------------------------
#
# Z[i] is a unique factorization domain: every nonzero Gaussian rational is
# i^k times a product of Gaussian primes with integer exponents.  Primes are
# kept as canonical associates (rotated by i into re > 0, im >= 0), so equal
# values always factor identically.

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
FACTOR_TRIAL_LIMIT = 10**6


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sum_of_two_squares(p: int) -> tuple[int, int]:
    """x, y with x^2 + y^2 = p for a prime p = 1 mod 4 (or p = 2)."""
    x = 1
    while x * x <= p:
        y2 = p - x * x
        y = math.isqrt(y2)
        if y * y == y2:
            return x, y
        x += 1
    raise ValueError(f"{p} is not a sum of two squares")


def canonical_associate(x: int, y: int) -> tuple[int, int]:
    """The associate of x + yi (times a power of i) with re > 0, im >= 0."""
    for _ in range(4):
        if x > 0 and y >= 0:
            return x, y
        x, y = -y, x
    raise ValueError("zero has no associate")


def _gaussian_integer_factorization(a: int, b: int):
    """(unit exponent mod 4, {canonical prime: exponent}) for a + bi != 0,
    or None when the norm resists trial division up to FACTOR_TRIAL_LIMIT."""
    norm = a * a + b * b
    primes: list[int] = []
    n = norm
    while n % 2 == 0:
        n //= 2
        if 2 not in primes:
            primes.append(2)
    p = 3
    while p * p <= n and p <= FACTOR_TRIAL_LIMIT:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        if not _is_probable_prime(n):
            return None
        if n % 4 == 1 and n > FACTOR_TRIAL_LIMIT**2:
            return None  # splitting it needs a two-squares search that is too big
        primes.append(n)

    exps: dict[tuple[int, int], int] = {}
    w = GaussianInteger(a, b)
    for p in primes:
        if p == 2:
            divisors = [(1, 1)]
        elif p % 4 == 3:
            divisors = [(p, 0)]
        else:
            x, y = _sum_of_two_squares(p)
            divisors = [canonical_associate(x, y), canonical_associate(x, -y)]
        for div in divisors:
            while (q := w.quotient(GaussianInteger(*div))) is not None:
                w = q
                exps[div] = exps.get(div, 0) + 1
    units = [1, GaussianInteger(0, 1), -1, GaussianInteger(0, -1)]
    if w not in units:
        return None
    return units.index(w), exps


def gaussian_factorization(value: "GaussianRational"):
    """Factor a nonzero Gaussian rational as i^k * prod primes^exponents.

    Returns (k mod 4, {canonical prime (x, y): exponent}) or None when a norm
    resists trial division up to FACTOR_TRIAL_LIMIT (callers fall back to an
    opaque encoding; correctness never depends on success here).
    """
    if value.is_zero():
        raise ValueError("cannot factor zero")
    denom = math.lcm(value.re.denominator, value.im.denominator)
    a = int(value.re * denom)
    b = int(value.im * denom)
    top = _gaussian_integer_factorization(a, b)
    if top is None:
        return None
    bottom = _gaussian_integer_factorization(denom, 0)
    if bottom is None:
        return None
    unit = (top[0] - bottom[0]) % 4
    exps = dict(top[1])
    for prime, e in bottom[1].items():
        exps[prime] = exps.get(prime, 0) - e
        if exps[prime] == 0:
            del exps[prime]
    return unit, exps
