"""Differential tests against sympy: the sequence kernel, the Sylvester
resultant, the Bareiss determinant and the characteristic polynomial, on
random exact inputs; and Newton's float resultants against the exact kernel.

sympy 1.14's resultant(f, g) returns the negative of its own Sylvester
determinant when deg f < deg g and deg f * deg g is odd (e.g. x - 2 against
x^3 - 1, and r_m against x^m - 1 for m < deg f), so every oracle here puts
the higher degree first and restores the sign from
Res(f, g) = (-1)^(deg f * deg g) * Res(g, f).
"""
import random
from fractions import Fraction

import pytest

from cycres.dynamics import IntegerMatrix, char_poly
from cycres.gaussian import GaussianInteger
from cycres.gaussian import GaussianRational as G
from cycres.polycore import Polynomial, has_root_of_unity
from cycres.reconstruct import _float_resultants
from cycres.resultants import COMPANION_CROSS_CHECK_LIMIT, _det_bareiss, resultant, sequence

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def to_sympy(f: Polynomial):
    return sum(
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)) * X**k
        for k, c in enumerate(f.coeffs)
    )


def from_sympy(value) -> G:
    re, im = (sympy.Rational(part) for part in sympy.expand(value).as_real_imag())
    return G(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def sympy_resultant(f: Polynomial, g: Polynomial) -> G:
    """Res(f, g) with the higher degree passed to sympy first."""
    if f.degree < g.degree:
        sign = (-1) ** (f.degree * g.degree)
        return from_sympy(sign * sympy.resultant(to_sympy(g), to_sympy(f), X))
    return from_sympy(sympy.resultant(to_sympy(f), to_sympy(g), X))


def fraction(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def random_poly(rng, d: int, gaussian: bool) -> Polynomial:
    """Degree d, rational or Gaussian-rational coefficients with
    denominators, and a leading coefficient other than 1."""
    def coeff():
        return G(fraction(rng), fraction(rng) if gaussian else 0)

    lead = coeff()
    while lead.is_zero() or lead == 1:
        lead = coeff()
    return Polynomial([coeff() for _ in range(d)] + [lead])


@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
def test_sequence_matches_sympy(gaussian):
    rng = random.Random(81 + gaussian)
    n = 24
    assert n > COMPANION_CROSS_CHECK_LIMIT
    for _ in range(8):
        d = rng.randint(1, 4)
        f = random_poly(rng, d, gaussian)
        expected = [
            sympy_resultant(f, Polynomial([-1] + [0] * (m - 1) + [1]))
            for m in range(1, n + 1)
        ]
        assert list(sequence(f, n).values) == expected, f


def test_resultant_matches_sympy():
    rng = random.Random(83)
    for _ in range(30):
        gaussian = rng.random() < 0.5
        f = random_poly(rng, rng.randint(1, 4), gaussian)
        g = random_poly(rng, rng.randint(1, 4), rng.random() < 0.5)
        assert resultant(f, g) == sympy_resultant(f, g), (f, g)


def test_char_poly_matches_sympy():
    rng = random.Random(84)
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        expected = sympy.Matrix(rows).charpoly(X).all_coeffs()[::-1]
        assert list(char_poly(IntegerMatrix.of(rows)).coeffs) == [G(int(c)) for c in expected]


def entry(rng, gaussian: bool):
    if gaussian:
        return GaussianInteger(rng.randint(-6, 6), rng.randint(-6, 6))
    return rng.randint(-9, 9)


def shaped(rng, n: int, gaussian: bool, shape: str) -> list[list]:
    """A random n x n matrix.  "swap" zeroes the leading pivot and, from n = 3,
    the pivot that elimination meets next, so both steps must swap rows;
    "singular" makes the last row the sum of two others (twice the first when
    n = 2, zero when n = 1)."""
    rows = [[entry(rng, gaussian) for _ in range(n)] for _ in range(n)]
    if shape == "swap" and n > 1:
        rows[0][0] = 0
        rows[1][0] = rows[1][0] or 1
        if n > 2:
            rows[0][1] = 0
    elif shape == "singular":
        rows[-1] = [a + b for a, b in zip(rows[0], rows[n - 2])] if n > 1 else [0]
    return rows


def as_gaussian(v) -> G:
    return G(v.real, v.imag)


@pytest.mark.parametrize("gaussian", [False, True], ids=["int", "gaussian"])
def test_bareiss_determinant_matches_sympy(gaussian):
    rng = random.Random(91 + gaussian)
    for n in range(1, 8):
        for shape in ("random", "swap", "singular"):
            rows = shaped(rng, n, gaussian, shape)
            copy = [row[:] for row in rows]
            # field elimination over sympy's domain, not a fraction-free method
            matrix = sympy.Matrix([[x.real + sympy.I * x.imag for x in row] for row in rows])
            expected = from_sympy(matrix.det(method="domain-ge"))
            assert as_gaussian(_det_bareiss(rows)) == expected, (shape, rows)
            assert rows == copy
            if shape == "singular":
                assert expected == 0


def test_resultant_with_a_constant_or_mixed_pairs_matches_sympy():
    rng = random.Random(93)
    for k in range(40):
        gaussian = k % 2 == 0
        f = random_poly(rng, rng.randint(0, 4) if k % 4 else 0, gaussian)
        g = random_poly(rng, rng.randint(0, 4), not gaussian)
        assert resultant(f, g) == sympy_resultant(f, g), (f, g)
        assert resultant(g, f) == sympy_resultant(g, f), (g, f)


@pytest.mark.parametrize("monic", [True, False], ids=["monic", "nonmonic"])
def test_float_resultants_match_the_exact_sequence(monic):
    rng = random.Random(95 + monic)
    for d in range(1, 9):
        for _ in range(6):
            while True:
                lead = 1 if monic else rng.choice([-1, 1]) * rng.randint(2, 9)
                asc = [rng.randint(-9, 9) for _ in range(d)] + [lead]
                if not has_root_of_unity(Polynomial(asc)):
                    break
            exact = sequence(Polynomial(asc), d + 2)
            got = _float_resultants([float(c) for c in asc], d + 2)
            for m, value in enumerate(got, start=1):
                expected = float(exact[m].re)
                assert abs(value - expected) <= 1e-9 * abs(expected), (asc, m)


def test_float_resultants_overflow_to_none():
    assert _float_resultants([5e200, -3e200, 2e200], 4) is None
    assert _float_resultants([5.0, 1e200, 1.0, 1e200], 6) is None
