import random
from fractions import Fraction

import pytest

from cycres.errors import InternalCheckError
from cycres.gaussian import GaussianInteger as Z
from cycres.gaussian import GaussianRational as G


def random_gaussian(rng):
    return G(
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
    )


def test_basic_arithmetic():
    a = G(1, 2)
    b = G(3, -1)
    assert a + b == G(4, 1)
    assert a - b == G(-2, 3)
    assert a * b == G(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert (a * b) / b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        G(1) / G(0)


def test_field_axioms_random():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (random_gaussian(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_powers():
    i = G(0, 1)
    assert i**2 == G(-1)
    assert i**-1 == G(0, -1)
    assert G(Fraction(1, 2)) ** 3 == G(Fraction(1, 8))


def test_int_coercion_and_equality():
    assert G(3) == 3
    assert G(3) + 1 == 4
    assert 2 * G(1, 1) == G(2, 2)
    assert G(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(G(5)) == hash(Fraction(5))


def test_quad_roundtrip():
    rng = random.Random(1)
    for _ in range(50):
        v = random_gaussian(rng)
        assert G.from_quad(v.to_quad()) == v


def test_str_forms():
    assert str(G(Fraction(1, 2))) == "1/2"
    assert str(G(2, -1)) == "2-1i"
    assert str(G(0, 1)) == "0+1i"


def parts(v) -> tuple[int, int]:
    return (v.real, v.imag)


def random_gaussian_integer(rng):
    return Z(rng.randint(-50, 50), rng.randint(-50, 50))


class TestGaussianInteger:
    def test_int_on_either_side_of_each_operation(self):
        a = Z(3, -2)
        assert parts(a + 2) == parts(2 + a) == (5, -2)
        assert parts(a - 2) == (1, -2)
        assert parts(2 - a) == (-1, 2)
        assert parts(a * 2) == parts(2 * a) == (6, -4)
        assert parts(Z(6, -4) // 2) == (3, -2)
        assert parts(26 // Z(1, 5)) == (1, -5)  # 26 = (1 + 5i)(1 - 5i)
        assert a / 2 == G(Fraction(3, 2), -1)
        assert 1 / Z(0, 1) == G(0, -1)

    def test_agrees_with_gaussian_rational(self):
        rng = random.Random(2)
        for _ in range(100):
            a, b = random_gaussian_integer(rng), random_gaussian_integer(rng)
            ga, gb = G(a.real, a.imag), G(b.real, b.imag)
            assert G(*parts(a + b)) == ga + gb
            assert G(*parts(a - b)) == ga - gb
            assert G(*parts(a * b)) == ga * gb
            assert G(*parts(-a)) == -ga
            assert G(*parts(a**3)) == ga**3

    def test_exact_floor_division_returns_the_quotient(self):
        rng = random.Random(3)
        for _ in range(100):
            a, b = random_gaussian_integer(rng), random_gaussian_integer(rng)
            if b:
                assert (a * b) // b == a
                assert (a * b).quotient(b) == a

    def test_inexact_floor_division_is_an_internal_error(self):
        assert Z(1, 1).quotient(2) is None
        with pytest.raises(InternalCheckError) as info:
            Z(1, 1) // 2
        assert info.value.code == "internal_check"  # exit 2 at the CLI
        with pytest.raises(InternalCheckError):
            3 // Z(1, 1)

    def test_true_division_is_a_gaussian_rational(self):
        q = Z(1, 1) / Z(2)
        assert isinstance(q, G)
        assert q == G(Fraction(1, 2), Fraction(1, 2))
        assert Z(2, 4) / Z(1, 1) == G(3, 1)

    def test_equality_truth_and_powers(self):
        assert Z(3) == 3 and 3 == Z(3)
        assert Z(3, 1) != 3
        assert not Z(0) and Z(0, 1)
        assert Z(2, 3) ** 0 == 1
        assert Z(1, 1) ** 2 == Z(0, 2)
