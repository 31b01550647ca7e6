import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from cycres import resultants
from cycres.cli import main
from cycres.errors import (
    DegreeGuardError,
    InternalCheckError,
    PreconditionError,
    RootOfUnityError,
    ZeroPolynomialError,
)
from cycres.gaussian import GaussianRational as G
from cycres.polycore import Polynomial, format_poly, has_root_of_unity, parse
from cycres.resultants import (
    ResultantSequence,
    abs_sequence,
    cyclic_resultant,
    reproduces,
    resultant,
    sequence,
    sign_data,
)


def random_poly_without_unity(rng, max_degree, lo=-9, hi=9):
    while True:
        d = rng.randint(1, max_degree)
        coeffs = [rng.randint(lo, hi) for _ in range(d)]
        coeffs.append(rng.choice([c for c in range(lo, hi + 1) if c]))
        p = Polynomial(coeffs)
        if p.degree >= 1 and not has_root_of_unity(p):
            return p


class TestResultant:
    def test_mersenne_base(self):
        assert resultant(parse("x-2"), parse("x^3-1")) == G(7)

    def test_root_product_oracle(self):
        # (2-1)(3-1) straight from the roots of x^2-5x+6
        assert resultant(parse("x^2-5*x+6"), parse("x-1")) == G(2)

    def test_constant_second_argument(self):
        for text in ["x-2", "x^3-10*x^2+31*x-30", "7"]:
            assert resultant(parse(text), Polynomial.one()) == G(1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            resultant(Polynomial.zero(), parse("x-1"))

    def test_gaussian_coefficients(self):
        f = Polynomial.from_roots([G(2, 1)])
        g = parse("x^2-1")
        # product formula: ((2+i)^2 - 1) = 2 + 4i
        assert resultant(f, g) == G(2, 4)

    def test_random_against_numeric_product(self):
        rng = random.Random(12)
        for _ in range(40):
            f = random_poly_without_unity(rng, 4)
            g = random_poly_without_unity(rng, 3)
            exact = complex(resultant(f, g))
            from cycres.polycore import roots_numeric

            approx = complex(f.leading) ** g.degree
            for alpha in roots_numeric(f):
                approx *= g.evaluate_complex(alpha)
            assert abs(exact - approx) <= 1e-6 * max(1.0, abs(exact))


class TestCyclicResultant:
    def test_mersenne(self):
        assert cyclic_resultant(parse("x-2"), 5) == G(31)

    def test_paper_quadratic(self):
        assert cyclic_resultant(parse("x^2-5*x+6"), 2) == G(24)

    def test_root_of_unity_gives_zero(self):
        assert cyclic_resultant(parse("x-1"), 7) == G(0)

    def test_x_power_shift(self):
        # x^2 (x-2): each zero root contributes a factor (0^m - 1) = -1
        assert cyclic_resultant(parse("x^3-2*x^2"), 3) == G(7)

    def test_methods_agree(self):
        rng = random.Random(13)
        for _ in range(25):
            f = random_poly_without_unity(rng, 5)
            for m in (1, 2, 5, 9):
                direct = cyclic_resultant(f, m, "direct")
                companion = cyclic_resultant(f, m, "companion")
                assert direct == companion
                via_roots = cyclic_resultant(f, m, "roots")
                assert abs(complex(direct) - via_roots) <= 1e-6 * max(
                    1.0, abs(complex(direct))
                )

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            cyclic_resultant(parse("x-2"), 0)


class TestSequence:
    def test_mersenne_prefix(self):
        assert [v.re for v in sequence(parse("x-2"), 3).values] == [1, 3, 7]

    def test_shared_sequence_pair(self):
        f = parse("x^3-10*x^2+31*x-30")
        g = parse("15*x^5-38*x^4+17*x^3-2*x^2")
        assert sequence(f, 10).values == sequence(g, 10).values

    def test_constant(self):
        assert [v.re for v in sequence(Polynomial.constant(5), 2).values] == [5, 25]

    def test_multiplicativity(self):
        rng = random.Random(14)
        for _ in range(20):
            f = random_poly_without_unity(rng, 3)
            g = random_poly_without_unity(rng, 3)
            sf = sequence(f, 10).values
            sg = sequence(g, 10).values
            sfg = sequence(f * g, 10).values
            assert all(a * b == c for a, b, c in zip(sf, sg, sfg))

    def test_x_shift_law(self):
        rng = random.Random(15)
        for _ in range(15):
            h = random_poly_without_unity(rng, 3)
            if h.constant_term.is_zero():
                continue
            base = sequence(h, 10).values
            for l in (1, 2, 3):
                shifted = sequence(h * Polynomial.x(l), 10).values
                sign = -1 if l % 2 else 1
                assert all(s == b * sign for s, b in zip(shifted, base))

    def test_json_roundtrip(self):
        seq = sequence(parse("x^2-5*x+6"), 4)
        assert ResultantSequence.from_json(seq.to_json()) == seq

    def test_one_based_indexing(self):
        seq = sequence(parse("x-2"), 3)
        assert seq[1] == G(1) and seq[3] == G(7)
        with pytest.raises(IndexError):
            seq[0]


def kernel_inputs(rng):
    """One random polynomial of each class the sequence kernel separates."""
    d = rng.randint(1, 3)
    ints = [rng.randint(-6, 6) for _ in range(d)]
    return [
        Polynomial(ints + [1]),
        Polynomial(ints + [rng.choice([-3, 2, 5])]),
        Polynomial(
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            + [Fraction(rng.choice([-2, 3]), rng.randint(1, 4))]
        ),
        Polynomial(
            [G(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
            + [G(rng.choice([1, 2]), rng.choice([0, 1]))]
        ),
        Polynomial([0] + ints + [rng.choice([1, -2])]),
        Polynomial(ints + [1]) * rng.choice(
            [parse("x-1"), parse("x+1"), parse("x^2+x+1"), Polynomial([G(0, -1), 1])]
        ),
        Polynomial.constant(rng.choice([G(-3), G(Fraction(2, 3)), G(1, 2)])),
    ]


class TestSequenceKernel:
    def test_matches_direct_route_past_the_cross_check_limit(self):
        rng = random.Random(19)
        n = 40
        assert n > resultants.COMPANION_CROSS_CHECK_LIMIT
        for _ in range(2):
            for f in kernel_inputs(rng):
                seq = sequence(f, n)
                for m in range(1, n + 1):
                    assert seq[m] == cyclic_resultant(f, m, "direct"), (f, m)

    def test_scaling_law(self):
        # r_m(c*f) = c^m * r_m(f): Res(c*f, g) = c^deg(g) * Res(f, g)
        rng = random.Random(20)
        for _ in range(10):
            for f in kernel_inputs(rng):
                c = rng.choice(
                    [G(Fraction(-3, 2)), G(Fraction(5, 7)), G(4), G(1, -2)]
                )
                base = sequence(f, 20).values
                scaled = sequence(f * Polynomial.constant(c), 20).values
                assert all(
                    s == c**m * b for m, (s, b) in enumerate(zip(scaled, base), 1)
                )

    def test_companion_route_matches_stepped_power(self):
        f = parse("3*x^3-2*x+5")
        seq = sequence(f, 20)
        for m in (1, 7, 20):
            assert cyclic_resultant(f, m, "companion") == seq[m]

    def test_cross_check_is_live(self, monkeypatch):
        stepped = resultants._companion_values

        def off_by_one(f):
            for value in stepped(f):
                yield value + 1

        monkeypatch.setattr(resultants, "_companion_values", off_by_one)
        for text in ["x^2-3*x+5", "2*x^3+x-1/3", "(1+2i)*x^2-x+3"]:
            with pytest.raises(InternalCheckError):
                sequence(parse(text), 3)

    def test_inexact_division_is_an_internal_error(self):
        with pytest.raises(InternalCheckError):
            resultants._exact_div(7, 2, m=1)

    def test_inexact_gaussian_division_is_an_internal_error(self):
        assert resultants._exact_div(G(2, 4), G(1, 1), m=1) == G(3, 1)
        with pytest.raises(InternalCheckError):
            resultants._exact_div(G(1, 1), G(2), m=1)


class TestReproduces:
    def test_exact_match(self):
        assert reproduces(parse("x-2"), [1, 3, 7])

    def test_mismatch(self):
        assert not reproduces(parse("x-2"), [1, 3, 8])
        assert not reproduces(parse("x+2"), [3, 3])

    def test_absolute_match(self):
        # r_m(x+2) = -3, 3: equal to 3, 3 only in absolute value
        assert reproduces(parse("x+2"), [G(3), G(3)], use_abs=True)
        assert not reproduces(parse("x+2"), [3, 4], use_abs=True)

    def test_non_real_value_is_no_absolute_match(self):
        f = parse("x-(2+1i)")  # r_1 = 1+i
        assert sequence(f, 1)[1] == G(1, 1)
        assert not reproduces(f, [G(1, 1)], use_abs=True)
        assert reproduces(f, [G(1, 1)])

    def test_stops_at_the_first_mismatch(self, monkeypatch):
        pulled = []
        reduced = resultants._reduced_values

        def counting(f):
            for value in reduced(f):
                pulled.append(value)
                yield value

        monkeypatch.setattr(resultants, "_reduced_values", counting)
        assert not reproduces(parse("x-2"), [2] + [1] * 9)  # r_1 = 1
        assert len(pulled) == 1

    def test_every_term_is_cross_checked(self, monkeypatch):
        stepped = resultants._companion_values

        def off_by_one(f):
            for value in stepped(f):
                yield value + 1

        for text in ["x^2-3*x+5", "2*x^3+x-1/3", "(1+2i)*x^2-x+3"]:
            f = parse(text)
            target = sequence(f, 3).values
            with monkeypatch.context() as patch:
                patch.setattr(resultants, "_companion_values", off_by_one)
                with pytest.raises(InternalCheckError):
                    reproduces(f, target)

    def test_empty_target_and_zero_polynomial(self):
        with pytest.raises(ValueError):
            reproduces(parse("x-2"), ())
        with pytest.raises(ZeroPolynomialError):
            reproduces(Polynomial([0]), [1])


class TestSignData:
    @pytest.mark.parametrize(
        "text,inside,below",
        [("x-2", 0, 0), ("x+2", 0, 1), ("2*x^2-3*x-2", 1, 0)],
    )
    def test_examples(self, text, inside, below):
        data = sign_data(parse(text))
        assert (data.count_inside, data.count_below) == (inside, below)

    def test_x_plus_2_signs_match_sequence(self):
        data = sign_data(parse("x+2"))
        seq = sequence(parse("x+2"), 6)
        for m in range(1, 7):
            v = seq[m].re
            assert (1 if v > 0 else -1) == data.sign_at(m)

    def test_all_negative_case(self):
        # roots 2 and -1/2: exactly one root inside (-1,1)
        f = parse("2*x^2-3*x-2")
        seq = sequence(f, 10)
        assert all(v.re < 0 for v in seq.values)
        data = sign_data(f)
        assert data.base_sign == -1 and data.alt_sign == 1

    def test_multiplicity_counts(self):
        f = parse("x+2") ** 2 * parse("x-1/2")
        data = sign_data(f)
        assert data.count_below == 2 and data.count_inside == 1

    def test_zero_root_counts_inside(self):
        data = sign_data(parse("x^2-2*x") * Polynomial.one())
        assert data.count_inside == 1

    def test_rejects_complex_coefficients(self):
        with pytest.raises(PreconditionError):
            sign_data(Polynomial.from_roots([G(2, 1)]))

    def test_rejects_root_of_unity(self):
        with pytest.raises(RootOfUnityError):
            sign_data(parse("x^2-1"))

    def test_sign_law_random(self):
        rng = random.Random(16)
        done = 0
        while done < 50:
            f = random_poly_without_unity(rng, 5)
            data = sign_data(f)
            seq = sequence(f, 12)
            for m in range(1, 13):
                v = seq[m].re
                assert v != 0
                assert abs(v) == v * data.sign_at(m)
            done += 1

    def test_conjugate_pair_does_not_change_signs(self):
        rng = random.Random(17)
        done = 0
        while done < 20:
            f = random_poly_without_unity(rng, 4)
            b = rng.randint(-4, 4)
            c = rng.randint(1, 9)
            pair = Polynomial([b * b + c * c, -2 * b, 1])  # roots b +- ci
            g = f * pair
            if has_root_of_unity(g):
                continue
            sf = sequence(f, 10)
            sg = sequence(g, 10)
            for m in range(1, 11):
                assert (sf[m].re > 0) == (sg[m].re > 0)
            done += 1


class TestAbsSequence:
    def test_examples(self):
        assert [v.re for v in abs_sequence(parse("x+2"), 2).values] == [3, 3]
        assert [v.re for v in abs_sequence(parse("x-2"), 3).values] == [1, 3, 7]
        assert [v.re for v in abs_sequence(parse("2*x^2-3*x-2"), 1).values] == [3]

    def test_matches_plain_abs(self):
        rng = random.Random(18)
        done = 0
        while done < 30:
            f = random_poly_without_unity(rng, 5)
            plain = sequence(f, 8)
            via_signs = abs_sequence(f, 8)
            assert via_signs.is_abs
            assert all(
                a.re == abs(p.re) for a, p in zip(via_signs.values, plain.values)
            )
            done += 1


class TestIteration:
    def test_iterates_over_the_values_in_order(self):
        seq = sequence(parse("x-2"), 3)
        assert list(seq) == [G(1), G(3), G(7)]
        assert seq[1] == G(1)  # indexing stays 1-based
        with pytest.raises(IndexError):
            seq[0]

    def test_reproduces_accepts_a_sequence(self):
        f = parse("2*x^2-3*x+5")
        assert reproduces(f, sequence(f, 5))
        assert not reproduces(parse("x-2"), sequence(parse("x+2"), 3))


class TestSizeGuard:
    @property
    def DEGREE(self) -> int:
        return resultants.SEQUENCE_DEGREE_LIMIT

    @property
    def LENGTH(self) -> int:
        return resultants.SEQUENCE_LENGTH_LIMIT

    def test_at_the_limits(self):
        assert self.DEGREE >= 16 and self.LENGTH >= 64  # the benchmark's largest sizes
        assert len(sequence(parse(f"x^{self.DEGREE}-2"), 2)) == 2
        assert sequence(parse("x-2"), self.LENGTH)[self.LENGTH] == G(2**self.LENGTH - 1)

    def test_degree_above_the_limit(self, monkeypatch):
        f = parse(f"x^{self.DEGREE + 1}-2")

        def no_work(*args):
            raise AssertionError("work started before the size guard")

        for name in ("_reduced_values", "_companion_values", "sign_data"):
            monkeypatch.setattr(resultants, name, no_work)
        for call in (
            lambda: sequence(f, 1),
            lambda: abs_sequence(f, 1),
            lambda: reproduces(f, [1]),
        ):
            with pytest.raises(DegreeGuardError) as info:
                call()
            assert info.value.context["degree"] == self.DEGREE + 1

    def test_length_above_the_limit(self):
        f = parse("x-2")
        for call in (
            lambda: sequence(f, self.LENGTH + 1),
            lambda: abs_sequence(f, self.LENGTH + 1),
            lambda: reproduces(f, [1] * (self.LENGTH + 1)),
        ):
            with pytest.raises(DegreeGuardError) as info:
                call()
            assert info.value.context["length"] == self.LENGTH + 1

    def test_cli_exits_2(self):
        for argv in (
            ["seq", "--poly", f"x^{self.DEGREE + 1}-2", "--n", "1"],
            ["seq", "--poly", "x-2", "--n", str(self.LENGTH + 1), "--abs"],
            ["equiv", "--poly", "x^2-5*x+6", "--check", str(self.LENGTH + 1)],
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 2
            assert json.loads(out.getvalue())["code"] == "degree_guard"
