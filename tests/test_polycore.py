import math
import random
from fractions import Fraction

import pytest

from cycres.errors import DegreeGuardError, PolyParseError, ZeroPolynomialError
from cycres.gaussian import GaussianRational as G
from cycres.polycore import (
    PARSE_DEGREE_LIMIT,
    Polynomial,
    cyclotomic,
    format_poly,
    has_root_of_unity,
    parse,
    poly_gcd,
    roots_numeric,
    square_free_decomposition,
    try_exact_roots,
)


def random_rational_poly(rng, max_degree, lo=-10, hi=10, monic=False):
    d = rng.randint(1, max_degree)
    coeffs = [rng.randint(lo, hi) for _ in range(d)]
    coeffs.append(1 if monic else rng.choice([c for c in range(lo, hi + 1) if c]))
    return Polynomial(coeffs)


class TestParsePrint:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^3-10*x^2+31*x-30", [-30, 31, -10, 1]),
            ("0", []),
            ("x", [0, 1]),
            ("-x+2", [2, -1]),
            ("3/2", [Fraction(3, 2)]),
            ("x^2", [0, 0, 1]),
        ],
    )
    def test_parse_examples(self, text, expected):
        assert parse(text) == Polynomial(expected)

    def test_parse_complex_coeff(self):
        p = parse("(2-1i)*x+1/2")
        assert p.coeffs == (G(Fraction(1, 2)), G(2, -1))

    def test_parse_whitespace_and_unicode_minus(self):
        assert parse(" x^2 − 5*x + 6 ") == parse("x^2-5*x+6")

    def test_parse_errors_carry_position(self):
        with pytest.raises(PolyParseError) as info:
            parse("x^2+&3")
        assert info.value.position == 4
        with pytest.raises(PolyParseError):
            parse("1/0")
        with pytest.raises(PolyParseError):
            parse("")

    def test_exponent_over_the_degree_limit_is_guarded(self):
        assert parse(f"x^{PARSE_DEGREE_LIMIT}").degree == PARSE_DEGREE_LIMIT
        with pytest.raises(DegreeGuardError) as info:
            parse(f"3*x^{PARSE_DEGREE_LIMIT + 1}+1")
        assert info.value.context["degree"] == PARSE_DEGREE_LIMIT + 1

    def test_print_parse_roundtrip_canonical_strings(self):
        for text in ["x^3-10*x^2+31*x-30", "x-2", "2*x^2+3*x+2", "1/2*x+3",
                     "(2-1i)*x+1/2", "x^6+2*x^5+3*x^4+7*x^3+3*x^2+2*x+1", "0"]:
            assert format_poly(parse(text)) == text

    def test_parse_print_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(100):
            p = random_rational_poly(rng, 6)
            assert parse(format_poly(p)) == p

    def test_json_roundtrip(self):
        p = parse("(2-1i)*x^2+1/2*x-3")
        assert Polynomial.from_json(p.to_json()) == p


class TestStructure:
    def test_reversal_examples(self):
        assert parse("x^2-5*x+6").reversal() == parse("6*x^2-5*x+1")
        recip = parse("x^3+2*x^2+2*x+1")
        assert recip.reversal() == recip
        assert parse("x^2").reversal() == Polynomial.one()

    def test_reversal_involution(self):
        rng = random.Random(4)
        for _ in range(100):
            p = random_rational_poly(rng, 7)
            if p.constant_term.is_zero():
                continue
            assert p.reversal().reversal() == p

    def test_reversal_of_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            Polynomial.zero().reversal()

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x^6+2*x^5+3*x^4+7*x^3+3*x^2+2*x+1", True),
            ("x-2", False),
            ("2*x^2+3*x+2", True),
            ("0", False),
        ],
    )
    def test_is_reciprocal(self, text, expected):
        assert parse(text).is_reciprocal() is expected

    def test_strip_zero_roots(self):
        l, h = parse("x^5-2*x^4").strip_zero_roots()
        assert l == 4 and h == parse("x-2")

    def test_divmod_exact(self):
        f = parse("x^3-1")
        q, r = divmod(f, parse("x-1"))
        assert q == parse("x^2+x+1") and r.is_zero()

    def test_gcd(self):
        f = parse("x^2-5*x+6") * parse("x-7")
        g = parse("x^2-9*x+14")
        assert poly_gcd(f, g) == parse("x^2-9*x+14").monic() == parse("x^2-9*x+14")


class TestCyclotomic:
    @pytest.mark.parametrize("k,text", [(1, "x-1"), (2, "x+1"), (4, "x^2+1")])
    def test_small(self, k, text):
        assert cyclotomic(k) == parse(text)

    def test_k6_against_division_oracle(self):
        # independent route: (x^6-1) divided by the product of the proper-divisor values
        x6 = parse("x^6-1")
        oracle = x6.exact_div(cyclotomic(1) * cyclotomic(2) * cyclotomic(3))
        assert cyclotomic(6) == oracle == parse("x^2-x+1")

    def test_product_identity(self):
        for n in (8, 12):
            prod = Polynomial.one()
            for k in range(1, n + 1):
                if n % k == 0:
                    prod = prod * cyclotomic(k)
            assert prod == Polynomial([-1] + [0] * (n - 1) + [1])


class TestRootOfUnity:
    @pytest.mark.parametrize(
        "text,expected",
        [("x^2-1", True), ("x^2-x-1", False), ("x^2+x+1", True), ("x-2", False)],
    )
    def test_examples(self, text, expected):
        assert has_root_of_unity(parse(text)) is expected

    def test_phi3_detected_by_exact_division(self):
        f = parse("x^2+x+1") * parse("x-5")
        assert (f % cyclotomic(3)).is_zero()
        assert has_root_of_unity(f)

    def test_gaussian_coefficients(self):
        f = Polynomial.from_roots([G(0, 1), G(3)])  # i is a 4th root of unity
        assert has_root_of_unity(f)
        g = Polynomial.from_roots([G(2, 1)])
        assert not has_root_of_unity(g)

    def test_primitive_68th_roots_with_gaussian_coefficients(self):
        # (x^17 - i)/(x - i): every root is a primitive 68th root of unity
        i = Polynomial.constant(G(0, 1))
        f = (Polynomial.x(17) - i).exact_div(Polynomial.x() - i)
        assert f.degree == 16
        assert has_root_of_unity(f)

    def test_agrees_with_cyclotomic_gcd_oracle(self):
        # Independent oracle: gcd(p, x^k - 1) is nonconstant for some k with
        # phi(k) <= 2 deg p.  A root of unity of order k has degree at least
        # phi(k)/2 over Q(i), and phi(k)^2 >= k/2 bounds the k to try.
        def phi(k):
            return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)

        def oracle(p):
            d = 2 * p.degree
            return any(
                poly_gcd(p, Polynomial.x(k) - 1).degree > 0
                for k in range(1, 2 * d * d + 1)
                if phi(k) <= d
            )

        rng = random.Random(7)
        polys = []
        while len(polys) < 200:
            p = random_rational_poly(rng, 6)
            if p.degree >= 1:
                polys.append(p)
        planted = [
            parse(t) for t in ("x-(0+1i)", "x^2-(0+1i)", "x^2+1", "x+1", "x^3+(0+1i)")
        ]
        for _ in range(40):
            size = rng.randint(1, 3)
            low = [G(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(size)]
            p = Polynomial(low + [G(rng.randint(1, 3), rng.randint(-3, 3))])
            polys.append(p)
            polys.append(p * rng.choice(planted))
        for p in polys:
            assert has_root_of_unity(p) == oracle(p), format_poly(p)


class TestRoots:
    def test_factored_quadratic(self):
        roots = roots_numeric(parse("x^2-5*x+6"))
        assert roots == sorted(roots, key=lambda z: (z.real, z.imag))
        assert abs(roots[0] - 2) < 1e-9 and abs(roots[1] - 3) < 1e-9

    def test_pure_imaginary(self):
        roots = roots_numeric(parse("x^2+1"))
        assert abs(roots[0] + 1j) < 1e-9 and abs(roots[1] - 1j) < 1e-9

    def test_multiplicity_against_square_free_oracle(self):
        f = parse("x^2-4*x+4")  # (x-2)^2
        decomp = square_free_decomposition(f)
        assert len(decomp) == 1 and decomp[0][1] == 2
        roots = roots_numeric(f)
        assert len(roots) == 2
        assert all(abs(r - 2) < 1e-7 for r in roots)

    def test_mixed_multiplicities(self):
        f = parse("x-1/2") ** 3 * parse("x^2+1") * parse("x-4")
        roots = sorted(roots_numeric(f), key=lambda z: (z.real, z.imag))
        assert sum(1 for r in roots if abs(r - 0.5) < 1e-7) == 3
        assert len(roots) == 6

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            roots_numeric(Polynomial.zero())

    def test_product_reexpansion_matches(self):
        rng = random.Random(9)
        for _ in range(60):
            p = random_rational_poly(rng, 8)
            roots = roots_numeric(p)
            coeffs = [1 + 0j]
            for alpha in roots:
                coeffs = [0j] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= alpha * coeffs[i + 1]
            monic = p.monic()
            scale = max(abs(complex(c)) for c in monic.coeffs)
            for got, want in zip(coeffs, monic.coeffs):
                assert abs(got - complex(want)) <= 1e-8 * max(1.0, scale)


class TestExactRoots:
    def test_rational_split(self):
        roots = try_exact_roots(parse("15*x^2-8*x+1"))
        assert sorted(str(r) for r in roots) == ["1/3", "1/5"]

    def test_gaussian_split(self):
        f = Polynomial.from_roots([G(2), G(-2, 1), G(-2, -1)])
        roots = try_exact_roots(f)
        assert roots is not None and len(roots) == 3

    def test_irrational_returns_none(self):
        assert try_exact_roots(parse("x^2-2")) is None

    def test_multiplicity(self):
        roots = try_exact_roots(parse("x^2-4*x+4"))
        assert roots == [G(2), G(2)]

    @pytest.mark.parametrize(
        "text, nonzero",
        [
            ("x^3+(0-3i)*x^2+(-4+6i)*x", [G(2), G(-2, 3)]),
            ("x^3+(1-2i)*x^2+(3+1i)*x", [G(-1, 3), G(0, -1)]),
            ("x^4-4*x^3+4*x^2", [G(2), G(2)]),
        ],
    )
    def test_zero_roots_come_first(self, text, nonzero):
        # near z = 0 the residual scale is |c_0| = 0, so a zero root left in
        # the Aberth iteration never passes its residual test
        roots = try_exact_roots(parse(text))
        zeros = len(roots) - len(nonzero)
        assert roots[:zeros] == [G(0)] * zeros
        assert sorted(roots[zeros:], key=G.sort_key) == sorted(nonzero, key=G.sort_key)
