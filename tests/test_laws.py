"""Property laws of the cyclic resultants on random non-monic rational and
Gaussian-rational inputs with denominators, checked for every m up to 24,
past the companion cross-check's limit:

    r_m(f g)     = r_m(f) r_m(g)        (multiplicativity)
    r_m(x^l h)   = (-1)^l r_m(h)        (Res(x, x^m - 1) = -1)
    sign(r_m)    = sign_data(f).sign_at(m)   (the sign law, for real f)

The examples are derandomized so the suite is repeatable.
"""
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cycres.gaussian import GaussianRational as G
from cycres.polycore import Polynomial, has_root_of_unity
from cycres.resultants import COMPANION_CROSS_CHECK_LIMIT, sequence, sign_data

N = 24
LAWS = settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


def coefficients(gaussian: bool):
    return st.builds(G, fractions, fractions if gaussian else st.just(Fraction(0)))


def polys(max_degree: int = 3):
    """Degree 1..max_degree, rational or Gaussian-rational, with a leading
    coefficient other than 0 and 1."""
    return st.booleans().flatmap(
        lambda gaussian: st.lists(
            coefficients(gaussian), min_size=2, max_size=max_degree + 1
        ).filter(lambda cs: cs[-1] != 0 and cs[-1] != 1)
    ).map(Polynomial)


def test_prefix_passes_the_cross_check_limit():
    assert N > COMPANION_CROSS_CHECK_LIMIT


@LAWS
@given(polys(), polys())
def test_multiplicativity(f, g):
    product = sequence(f * g, N)
    for m, (a, b) in enumerate(zip(sequence(f, N), sequence(g, N)), 1):
        assert product[m] == a * b, (f, g, m)


@LAWS
@given(polys(), st.integers(1, 3))
def test_x_shift_law(h, l):
    sign = (-1) ** l
    shifted = sequence(h * Polynomial.x(l), N)
    for m, value in enumerate(sequence(h, N), 1):
        assert shifted[m] == sign * value, (h, l, m)


@LAWS
@given(
    st.lists(coefficients(gaussian=False), min_size=2, max_size=5)
    .filter(lambda cs: cs[-1] != 0 and cs[-1] != 1)
    .map(Polynomial)
    .filter(lambda f: not has_root_of_unity(f))
)
def test_sign_law(f):
    signs = sign_data(f)
    for m, value in enumerate(sequence(f, N), 1):
        assert value.is_real() and value.re != 0, (f, m)
        assert (1 if value.re > 0 else -1) == signs.sign_at(m), (f, m)
