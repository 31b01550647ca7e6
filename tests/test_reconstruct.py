import random
import sys
from fractions import Fraction

import pytest

from cycres.errors import (
    ConvergenceError,
    DegenerateInputError,
    DegreeGuardError,
    NoSolutionError,
    PreconditionError,
    VerificationError,
)
from cycres.equivalence import equivalent_family, monic_degenerate
from cycres.gaussian import GaussianRational as G
from cycres.polycore import Polynomial, format_poly, has_root_of_unity, parse
from cycres.reconstruct import (
    ROUTES,
    ReconstructionSpec,
    _exact_answers,
    _linear_lead,
    _linear_lead_squared_variant,
    conjecture_harness,
    disambiguate_abs,
    invert_closed,
    invert_groebner,
    invert_newton,
    reconstruct,
    symbolic_cyclic_resultant,
)
from cycres.resultants import (
    ResultantSequence,
    abs_sequence,
    cyclic_resultant,
    reproduces,
    sequence,
)


def random_monic_without_unity(rng, d, lo=-9, hi=9, nonzero_constant=False):
    while True:
        coeffs = [rng.randint(lo, hi) for _ in range(d)] + [1]
        f = Polynomial(coeffs)
        if f.degree != d:
            continue
        if nonzero_constant and f.constant_term.is_zero():
            continue
        if not has_root_of_unity(f):
            return f


class TestSymbolicResultants:
    def test_matches_numeric_at_points(self):
        rng = random.Random(71)
        for d in (1, 2, 3):
            for m in (1, 2, 3, 4):
                sym = symbolic_cyclic_resultant(d, m, monic=True)
                for _ in range(5):
                    coeffs_desc = [rng.randint(-5, 5) for _ in range(d)]
                    f = Polynomial(list(reversed([1] + coeffs_desc)))
                    value = sym
                    for i, a in enumerate(coeffs_desc):
                        value = value.substitute(i, a)
                    assert value.is_constant()
                    want = cyclic_resultant(f, m)
                    got = (
                        list(value.terms.values())[0] if value.terms else G(0)
                    )
                    assert got == want

    def test_general_variant_includes_lead(self):
        sym = symbolic_cyclic_resultant(1, 1, monic=False)
        # a_0 x + a_1 has r_1 = -a_1 - a_0
        got = sym.substitute(0, 3).substitute(1, 5)
        assert list(got.terms.values())[0] == G(-8)


class TestClosedForms:
    def test_quadratic_example(self):
        assert invert_closed([2, 24], 2, "monic") == parse("x^2-5*x+6")

    def test_linear_example(self):
        assert invert_closed([1, 3], 1, "general") == parse("x-2")

    def test_cubic_example(self):
        vals = sequence(parse("x^3-10*x^2+31*x-30"), 4)
        assert [v.re for v in vals.values] == [8, 576, 22568, 748800]
        assert invert_closed(vals, 3, "monic") == parse("x^3-10*x^2+31*x-30")

    def test_round_trip_random(self):
        rng = random.Random(72)
        for d, shape in ((1, "general"), (2, "monic"), (3, "monic")):
            done = 0
            while done < 25:
                if d == 1:
                    a0 = rng.choice([c for c in range(-9, 10) if c])
                    a1 = rng.randint(-9, 9)
                    f = Polynomial([a1, a0])
                    if has_root_of_unity(f):
                        continue
                else:
                    f = random_monic_without_unity(rng, d)
                count = 2 if d <= 2 else 4
                vals = sequence(f, count)
                if vals.has_zero():
                    continue
                try:
                    assert invert_closed(vals, d, shape) == f
                except DegenerateInputError:
                    continue  # printed denominators can vanish off the generic set
                done += 1

    def test_sextic_reciprocal_round_trip(self):
        rng = random.Random(73)
        done = 0
        while done < 25:
            a1, a2, a3 = (rng.randint(-6, 6) for _ in range(3))
            f = Polynomial([1, a1, a2, a3, a2, a1, 1])
            if has_root_of_unity(f):
                continue
            vals = sequence(f, 4)
            if vals.has_zero():
                continue
            try:
                got = invert_closed(vals, 6, "monic-reciprocal")
            except DegenerateInputError as exc:
                assert exc.context.get("denominator") in {"Q", "4*r_1"}
                continue
            assert got == f
            done += 1

    def test_sextic_zero_q_named(self):
        # force Q = r_1^2 (9 r_4 r_1 - 16 r_3 r_2) = 0 is hard to hit by hand;
        # instead check the r_1 = 0 guard report
        with pytest.raises(DegenerateInputError) as info:
            invert_closed([0, 1, 1, 1], 6, "monic-reciprocal")
        assert "4*r_1" == info.value.context["denominator"]

    def test_wrong_values_fail_verification(self):
        # two values are never over-determined at d=2; a wrong third is
        with pytest.raises(VerificationError):
            invert_closed([2, 24, 999], 2, "monic")

    def test_unsupported_shape(self):
        with pytest.raises(PreconditionError):
            invert_closed([1, 2, 3], 4, "monic")


class TestLinearLeadAudit:
    def test_shipped_formula_beats_transcribed_variant(self):
        rng = random.Random(74)
        shipped_ok = 0
        variant_ok = 0
        trials = 0
        while trials < 1000:
            a0 = rng.choice([c for c in range(-9, 10) if c])
            a1 = rng.randint(-9, 9)
            r1 = G(-a1 - a0)
            r2 = G(a1 * a1 - a0 * a0)
            if r1.is_zero():
                continue
            trials += 1
            if _linear_lead(r1, r2) == G(a0):
                shipped_ok += 1
            if _linear_lead_squared_variant(r1, r2) == G(a0):
                variant_ok += 1
        assert shipped_ok == 1000
        assert variant_ok < 1000  # the transcribed form is wrong in general


class TestGroebnerRoute:
    def test_quadratic(self):
        assert invert_groebner([2, 24], 2, True) == [parse("x^2-5*x+6")]

    def test_negated_first_value_still_solvable(self):
        # [-2, 24] admits the monic quadratic x^2+5x-8 (verified by resequencing)
        got = invert_groebner([-2, 24], 2, True)
        assert got == [parse("x^2+5*x-8")]
        assert [v.re for v in sequence(got[0], 2).values] == [-2, 24]

    def test_unit_ideal_signal(self):
        # negate a genuine absolute-value sequence: no monic quadratic fits
        with pytest.raises(NoSolutionError):
            invert_groebner([-2, -24, -182], 2, True)

    def test_linear_general(self):
        assert invert_groebner([1, 3], 1, False) == [parse("x-2")]

    def test_cubic(self):
        f = parse("x^3-10*x^2+31*x-30")
        assert invert_groebner(sequence(f, 4), 3, True) == [f]

    def test_degree_guard(self):
        with pytest.raises(DegreeGuardError):
            invert_groebner([1, 2, 3, 4, 5, 6], 5, True)
        with pytest.raises(DegreeGuardError):
            invert_groebner([1, 2, 3, 4, 5], 4, False)

    def test_gaussian_valued_targets(self):
        f = Polynomial.from_roots([G(1, 1)])
        vals = sequence(f, 2)
        assert f in invert_groebner(vals, 1, False)

    def test_zero_coefficients_recovered(self):
        for text in ("x^2+5", "x^3+2*x"):
            f = parse(text)
            assert invert_groebner(sequence(f, f.degree + 1), f.degree, True) == [f]

    def test_long_input_guarded_but_fully_verified(self):
        f = parse("x^2-5*x+6")
        vals = sequence(f, 8)  # more than the five-equation guard
        assert invert_groebner(vals, 2, True) == [f]
        bad = list(vals.values)
        bad[-1] = bad[-1] + 1  # corrupt a value beyond the guard window
        assert invert_groebner(bad, 2, True) == []

    @pytest.mark.parametrize(
        "text",
        ["3*x^2+9*x-30", "-2*x^2-2*x+24", "3*x^3-117*x+210", "5*x^3-35*x^2+180"],
    )
    def test_general_route_returns_the_family(self, text):
        # r_1..r_{d+1} fix a general f only up to its 2^(d-1) equivalent
        # polynomials; the general route must return exactly that family
        f = parse(text)
        d = f.degree
        got = invert_groebner(sequence(f, d + 1), d, monic=False)
        assert len(got) == 2 ** (d - 1)
        assert {p.coeffs for p in got} == {p.coeffs for p in equivalent_family(f).members}

    def test_general_route_family_random(self):
        rng = random.Random(76)
        for d in (2, 3):
            done = 0
            while done < 8:
                roots = rng.sample([r for r in range(-6, 7) if r not in (-1, 0, 1)], d)
                lead = rng.choice([-3, -2, 2, 3, 5])
                f = Polynomial.from_roots([G(r) for r in roots], lead=lead)
                vals = sequence(f, d + 1)
                if vals.has_zero():
                    continue
                got = invert_groebner(vals, d, monic=False)
                family = equivalent_family(f).members
                assert {p.coeffs for p in got} == {p.coeffs for p in family}
                assert len(got) == 2 ** (d - 1)
                done += 1

    def test_round_trip_random(self):
        rng = random.Random(75)
        for d in (1, 2, 3):
            done = 0
            while done < 10:
                f = random_monic_without_unity(rng, d)
                vals = sequence(f, d + 1)
                if vals.has_zero():
                    continue
                assert f in invert_groebner(vals, d, True)
                done += 1


class TestMonicQuartics:
    """The paper's monic theorem on the exact route: r_1..r_5 give every
    monic quartic that fits, and a second one only when a nonempty subset
    of the roots multiplies to 1."""

    def test_every_answer_shares_the_whole_sequence(self):
        rng = random.Random(78)
        # x^4-4*x^2-7*x+1 shares its sequence with its reversal
        quartics = [parse("x^4-4*x^2-7*x+1")]
        quartics += [random_monic_without_unity(rng, 4) for _ in range(40)]
        # (more than one answer, monic_degenerate) -> number of quartics
        counts = dict.fromkeys([(False, False), (False, True), (True, False), (True, True)], 0)
        for f in quartics:
            got = invert_groebner(sequence(f, 5), 4, True)
            assert f in got
            counts[len(got) > 1, monic_degenerate(f)] += 1
            # r_m obeys a recurrence of order at most 2^4, so two quartics
            # that share r_1..r_32 share every r_m (Hillar and Levine)
            prefix = sequence(f, 2**4 + 2**4)
            assert all(reproduces(g, prefix) for g in got)
        # never (True, False): a second answer needs a root subset with
        # product 1; the (False, True) quartic is the odd subset below
        assert counts == {(False, False): 36, (False, True): 1, (True, False): 0, (True, True): 4}

    def test_an_odd_subset_with_product_one_negates_the_sequence(self):
        # the one degenerate quartic above with a single answer: the roots
        # of x^3+x^2+x-1 multiply to 1, and inverting an odd number of roots
        # flips the sign of every r_m, so the flipped quartic answers -r_m
        f = parse("x+7") * parse("x^3+x^2+x-1")
        flipped = parse("x+7") * parse("x^3-x^2-x-1")
        assert monic_degenerate(f)
        assert invert_groebner(sequence(f, 5), 4, True) == [f]
        negated = [-v for v in sequence(f, 2**4 + 2**4).values]
        assert reproduces(flipped, negated)
        assert invert_groebner(negated[:5], 4, True) == [flipped]

    @pytest.mark.parametrize(
        "roots", [(2, -3, 4, 5), (-2, 3, 4, 5), (-2, -3, -4, -5)]
    )
    def test_newton_declines_are_answered_exactly(self, roots):
        # root sets that the 16-restart Newton search does not converge on
        f = Polynomial.from_roots([G(r) for r in roots])
        spec = ReconstructionSpec(degree=4, shape="monic", values=sequence(f, 5))
        outcome = reconstruct(spec)
        assert outcome.method == "groebner" and outcome.verified
        assert outcome.polynomial == f


class TestGroebnerLimit:
    """Every reader of the Groebner degree limit admits the same degrees."""

    LIMITS = {"monic": 4, "monic-reciprocal": 4, "general": 3}

    class Routed(Exception):
        pass

    def routed(self, name):
        def spy(*args, **kwargs):
            raise self.Routed(name)

        return spy

    @pytest.mark.parametrize("shape", sorted(LIMITS))
    def test_one_limit_per_shape(self, shape, monkeypatch):
        rec = sys.modules["cycres.reconstruct"]

        limit = self.LIMITS[shape]
        monic = shape != "general"
        values = ResultantSequence(tuple(G(m) for m in range(1, 8)))
        for d in range(1, 7):
            spec = ReconstructionSpec(degree=d, shape=shape, values=values)
            assert ROUTES["groebner"][0](spec) == (d <= limit)

            # the guard runs before the basis is built
            monkeypatch.setattr(rec, "groebner_basis", self.routed("basis"))
            if d <= limit:
                with pytest.raises(self.Routed):
                    invert_groebner(values, d, monic)
            else:
                with pytest.raises(DegreeGuardError) as info:
                    invert_groebner(values, d, monic)
                assert info.value.context == {"degree": d, "limit": limit}
            monkeypatch.undo()

            monkeypatch.setattr(rec, "invert_groebner", self.routed("groebner"))
            monkeypatch.setattr(rec, "invert_newton", self.routed("newton"))
            with pytest.raises(self.Routed) as info:
                _exact_answers(values, d, monic)
            assert str(info.value) == ("groebner" if d <= limit else "newton")
            monkeypatch.undo()

            if shape == "monic":  # the harness samples monic polynomials only
                if d <= limit:
                    assert conjecture_harness(d, 0).trials == 0
                else:
                    with pytest.raises(DegreeGuardError) as info:
                        conjecture_harness(d, 0)
                    assert info.value.context == {"degree": d, "limit": limit}


class TestNewtonRoute:
    def test_quadratic(self):
        result = invert_newton([2, 24, 182], 2, True)
        assert result.verified and result.polynomial == parse("x^2-5*x+6")

    def test_cubic_from_four_values(self):
        f = parse("x^3-10*x^2+31*x-30")
        result = invert_newton(sequence(f, 4), 3, True)
        assert result.verified and result.polynomial == f

    def test_inconsistent_input(self):
        with pytest.raises(ConvergenceError):
            invert_newton([1, 1, 1, 1, 1], 3, True, restarts=6)

    def test_restarts_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            invert_newton([1, 3, 7], 1, restarts=0)

    def test_agrees_with_closed_form(self):
        rng = random.Random(76)
        done = 0
        while done < 10:
            f = random_monic_without_unity(rng, 2, lo=-6, hi=6)
            vals = sequence(f, 3)
            if vals.has_zero():
                continue
            result = invert_newton(vals, 2, True)
            if result.verified:
                assert result.polynomial == invert_closed(vals, 2, "monic")
                done += 1

    @pytest.mark.parametrize("roots", [(2, -3, 4, -5, 6), (2, -2, -3, 4, -5, 6)])
    def test_monic_above_the_groebner_limit(self, roots):
        f = Polynomial.from_roots(roots)
        result = invert_newton(sequence(f, f.degree + 1), f.degree, True)
        assert result.verified and result.polynomial == f

    def test_general_quartic(self):
        f = Polynomial.from_roots((-5, -4, -2, -8), lead=5)
        result = invert_newton(sequence(f, 6), 4, False)
        assert result.verified and result.polynomial == f

    def test_auto_stops_at_a_unit_ideal(self, monkeypatch):
        def no_newton(*args, **kwargs):
            raise AssertionError("Newton ran after a unit ideal")

        monkeypatch.setattr(sys.modules["cycres.reconstruct"], "invert_newton", no_newton)
        values = ResultantSequence(tuple(G(v) for v in (1, 2, 3, 4, 5)))
        spec = ReconstructionSpec(degree=4, shape="monic", values=values)
        with pytest.raises(NoSolutionError) as info:
            reconstruct(spec)
        assert info.value.code == "no_solution"


class TestDisambiguation:
    def test_negative_base_sign_branch(self):
        f = parse("x^2-x-1")
        result = disambiguate_abs(abs_sequence(f, 3), 2, True)
        assert result.polynomial == f
        assert (result.base_sign, result.alt_sign) == (-1, 1)

    def test_positive_branch(self):
        f = parse("x-2")
        result = disambiguate_abs(abs_sequence(f, 2), 1, True)
        assert result.polynomial == f
        assert (result.base_sign, result.alt_sign) == (1, 1)

    def test_alternating_branch(self):
        f = parse("x+2")
        result = disambiguate_abs(abs_sequence(f, 2), 1, True)
        assert result.polynomial == f
        assert (result.base_sign, result.alt_sign) == (1, -1)
        # neither constant-sign lift produced a candidate
        constant = [a for a in result.attempts if a[1] == 1]
        assert all(count == 0 for _, _, count in constant)

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            disambiguate_abs([3, -3], 1, True)


class TestDispatch:
    def test_auto_uses_closed_form(self):
        from cycres.reconstruct import ReconstructionSpec, reconstruct
        from cycres.resultants import ResultantSequence

        spec = ReconstructionSpec(
            degree=2,
            shape="monic",
            values=ResultantSequence((G(2), G(24))),
            method="auto",
        )
        outcome = reconstruct(spec)
        assert outcome.method == "closed" and outcome.verified
        assert outcome.polynomial == parse("x^2-5*x+6")

    @staticmethod
    def spec(degree, values, method="auto", shape="monic"):
        from cycres.reconstruct import ReconstructionSpec
        from cycres.resultants import ResultantSequence

        if not isinstance(values, ResultantSequence):
            values = ResultantSequence(tuple(G(v) for v in values))
        return ReconstructionSpec(degree=degree, shape=shape, values=values, method=method)

    def test_auto_reraises_the_first_failure(self):
        from cycres.reconstruct import reconstruct

        # the closed form reads x^2-5*x+6 from r_1, r_2, whose r_3 is 182
        with pytest.raises(VerificationError) as info:
            reconstruct(self.spec(2, [2, 24, 999]))
        assert info.value.context["expected"] == ["2", "24", "999"]
        assert info.value.context["got"] == ["2", "24", "182"]

    def test_auto_answers_a_quintic_by_newton(self):
        from cycres.reconstruct import reconstruct

        f = parse("x^5-3*x^3+5*x-7")
        outcome = reconstruct(self.spec(5, sequence(f, 6)))
        assert outcome.method == "newton" and outcome.verified
        assert outcome.polynomial == f

    def test_explicit_closed_without_a_closed_form(self):
        from cycres.reconstruct import reconstruct

        f = parse("x^4-3*x^3+5*x-7")
        with pytest.raises(PreconditionError):
            reconstruct(self.spec(4, sequence(f, 5), method="closed"))

    def test_explicit_groebner_above_its_degree_limit(self):
        from cycres.reconstruct import reconstruct

        f = parse("x^5-3*x^3+5*x-7")
        with pytest.raises(DegreeGuardError):
            reconstruct(self.spec(5, sequence(f, 6), method="groebner"))
        f = parse("2*x^4-3*x^3+5*x-7")
        with pytest.raises(DegreeGuardError):
            reconstruct(self.spec(4, sequence(f, 5), method="groebner", shape="general"))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            self.spec(2, [2, 24], method="exact")

    def test_cli_method_choices_are_the_spec_methods(self):
        import argparse

        from cycres.cli import build_parser

        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        method = next(
            a for a in sub.choices["reconstruct"]._actions if a.dest == "method"
        )
        choices = list(method.choices)
        probes = choices + ["", "AUTO", "Closed", "exact", "numeric", "abs"]

        def accepted(name):
            try:
                self.spec(2, [2, 24], method=name)
            except ValueError:
                return False
            return True

        assert [m for m in probes if accepted(m)] == choices
        assert method.default in choices

    def test_zero_values_rejected(self):
        from cycres.errors import ZeroResultantError
        from cycres.reconstruct import ReconstructionSpec
        from cycres.resultants import ResultantSequence

        with pytest.raises(ZeroResultantError):
            ReconstructionSpec(
                degree=1,
                shape="general",
                values=ResultantSequence((G(0), G(3))),
            )

    def test_invalid_shape(self):
        from cycres.reconstruct import ReconstructionSpec
        from cycres.resultants import ResultantSequence

        with pytest.raises(ValueError):
            ReconstructionSpec(
                degree=1, shape="weird", values=ResultantSequence((G(1),))
            )


class TestConjectureHarness:
    def test_quadratic_all_succeed(self):
        report = conjecture_harness(2, 50, seed=0)
        assert report.successes == report.trials == 50
        assert not report.failures and not report.collisions

    def test_cubic_all_succeed(self):
        report = conjecture_harness(3, 50, seed=0)
        assert report.successes == report.trials == 50

    def test_quartic_numeric(self):
        report = conjecture_harness(4, 5, seed=1)
        assert report.successes == 5

    def test_degree_guard(self):
        with pytest.raises(DegreeGuardError):
            conjecture_harness(5, 1)

    def test_report_json(self):
        report = conjecture_harness(2, 3, seed=2)
        data = report.to_json()
        assert data["degree"] == 2 and data["trials"] == 3
