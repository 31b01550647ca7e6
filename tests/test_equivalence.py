import random
from fractions import Fraction

import pytest

from cycres import equivalence
from cycres.equivalence import (
    EquivalenceFamily,
    equivalent_family,
    equivalent_member,
    generic_family_size,
    monic_degenerate,
    real_equivalent_family,
    reciprocal_uniqueness_check,
    verify_same_resultants,
)
from cycres.errors import (
    InternalCheckError,
    PreconditionError,
    RootOfUnityError,
    ZeroResultantError,
)
from cycres.gaussian import GaussianRational as G
from cycres.polycore import Polynomial, format_poly, has_root_of_unity, parse
from cycres.resultants import sequence

EXAMPLE_CUBIC = parse("x^3-10*x^2+31*x-30")  # (x-2)(x-3)(x-5)
EXAMPLE_QUINTIC = parse("15*x^5-38*x^4+17*x^3-2*x^2")
EXAMPLE_REAL = parse("x^3+2*x^2-3*x-10")  # (x-2)(x^2+4x+5)


class TestComplexFamily:
    def test_quadratic_pair(self):
        fam = equivalent_family(parse("x^2-5*x+6"))
        assert set(fam.members) == {parse("x^2-5*x+6"), parse("6*x^2-5*x+1")}
        assert len(fam) == generic_family_size(2)

    def test_cubic_example(self):
        fam = equivalent_family(EXAMPLE_CUBIC)
        expected = {
            EXAMPLE_CUBIC,
            parse("15*x^3-38*x^2+17*x-2"),
            parse("10*x^3-37*x^2+22*x-3"),
            parse("6*x^3-35*x^2+26*x-5"),
        }
        assert set(fam.members) == expected
        assert len(fam) == 4 == generic_family_size(3)

    def test_cross_degree_includes_cubic(self):
        fam = equivalent_family(EXAMPLE_QUINTIC, l1=0)
        assert EXAMPLE_CUBIC in fam

    def test_members_share_sequences(self):
        fam = equivalent_family(EXAMPLE_CUBIC, check_length=12)
        base = sequence(EXAMPLE_CUBIC, 12).values
        for member in fam.members:
            assert sequence(member, 12).values == base

    def test_deterministic_ordering(self):
        a = equivalent_family(EXAMPLE_CUBIC)
        b = equivalent_family(EXAMPLE_CUBIC)
        assert a.members == b.members

    @pytest.mark.parametrize("d,count", [(1, 1), (3, 4), (6, 32)])
    def test_generic_count_formula(self, d, count):
        assert generic_family_size(d) == count

    def test_count_generic_random(self):
        rng = random.Random(51)
        done = 0
        while done < 10:
            roots = rng.sample([2, 3, 5, 7, 11, -3, -5, -7], 3)
            # distinct subset products and no unity roots: primes guarantee it
            g = Polynomial.from_roots([G(r) for r in roots])
            fam = equivalent_family(g)
            assert len(fam) == generic_family_size(3)
            done += 1

    def test_irrational_base_uses_numeric_path(self):
        g = parse("x^2-4*x+1")  # roots 2 +- sqrt(3)
        fam = equivalent_family(g, check_length=8)
        assert g in fam
        # the flipped member is the reversal (root product is 1... it is not:
        # product = 1, so the reversal shares the sequence only up to sign rules;
        # just demand every member verifies, which the constructor enforces)
        assert len(fam) >= 1

    def test_involution(self):
        from cycres.polycore import try_exact_roots

        base_roots = try_exact_roots(EXAMPLE_CUBIC)
        member = equivalent_member(EXAMPLE_CUBIC, (0, 1))
        inverted = {G(1) / base_roots[0], G(1) / base_roots[1]}
        member_roots = try_exact_roots(member)
        idx = tuple(i for i, r in enumerate(member_roots) if r in inverted)
        assert len(idx) == 2
        assert equivalent_member(member, idx) == EXAMPLE_CUBIC

    def test_monic_filter(self):
        fam = equivalent_family(EXAMPLE_CUBIC)
        monics = [m for m in fam.members if m.is_monic()]
        assert monics == [EXAMPLE_CUBIC]

    def test_parity_violation_rejected(self):
        with pytest.raises(PreconditionError):
            equivalent_member(EXAMPLE_CUBIC, (0,))

    def test_root_of_unity_rejected(self):
        with pytest.raises(RootOfUnityError):
            equivalent_family(parse("x^2-1"))

    def test_complex_relative_appears_in_plain_family(self):
        # the complex polynomial excluded from the real family shares the
        # exact sequence, so the plain family must contain it
        fam = equivalent_family(EXAMPLE_REAL, check_length=8)
        complex_relative = Polynomial([G(2, -1), G(2, 2), G(-10, 1), G(-4, -2)])
        assert complex_relative in fam.members
        assert len(fam) == generic_family_size(3)

    def test_nonstandard_l1_members_verified(self):
        g = Polynomial.from_roots([G(2), G(3), G(5)])
        for l1 in (1, 2, 3):
            fam = equivalent_family(g, l1=l1, check_length=8)
            assert len(fam) >= 1
            for member in fam.members:
                assert member.strip_zero_roots()[0] == l1

    def test_subset_log_records_roots(self):
        fam = equivalent_family(parse("x^2-5*x+6"))
        flipped = [rec for rec in fam.subset_log if rec.reversed_roots]
        assert flipped and sorted(flipped[0].reversed_roots) == ["2", "3"]


class TestRealFamily:
    def test_worked_example(self):
        fam = real_equivalent_family(EXAMPLE_REAL)
        expected = {
            EXAMPLE_REAL,
            parse("-x^3-2*x^2+3*x+10"),
            parse("-2*x^3-7*x^2-6*x+5"),
            parse("2*x^3+7*x^2+6*x-5"),
            parse("5*x^3-6*x^2-7*x-2"),
            parse("-5*x^3+6*x^2+7*x+2"),
            parse("-10*x^3-3*x^2+2*x+1"),
            parse("10*x^3+3*x^2-2*x-1"),
        }
        assert set(fam.members) == expected
        assert len(fam) == 2 ** (2 + 1)

    def test_complex_relative_excluded(self):
        fam = real_equivalent_family(EXAMPLE_REAL)
        complex_relative = Polynomial(
            [G(2, -1), G(2, 2), G(-10, 1), G(-4, -2)]
        )
        assert complex_relative not in fam.members
        assert all(m.is_real() for m in fam.members)

    def test_linear_family(self):
        fam = real_equivalent_family(parse("x-2"))
        expected = {parse("x-2"), parse("-x+2"), parse("2*x-1"), parse("-2*x+1")}
        assert set(fam.members) == expected
        assert len(fam) == 2 ** (1 + 1)

    def test_count_at_one_real_root(self):
        rng = random.Random(52)
        done = 0
        while done < 5:
            a = rng.randint(2, 5)
            b = rng.randint(2, 5)
            c = rng.randint(2, 6)
            pair = Polynomial([b * b + a * a, -2 * b, 1])  # roots b +- ai
            g = pair * Polynomial([-c, 1])
            if has_root_of_unity(g) or monic_degenerate(g):
                continue
            fam = real_equivalent_family(g)
            assert len(fam) == 2 ** (2 + 1)
            done += 1

    def test_count_at_no_real_roots_even_degree(self):
        g = parse("x^2+4*x+5") * parse("x^2+2*x+10")
        assert not monic_degenerate(g)
        fam = real_equivalent_family(g)
        assert len(fam) == 2 ** (2 + 1)

    def test_rejects_complex_input(self):
        with pytest.raises(PreconditionError):
            real_equivalent_family(Polynomial.from_roots([G(2, 1)]))


class TestExactMemberFailure:
    # an exact member is correct by construction, so a failed verification
    # is a bug in the construction, never a member to drop quietly
    @pytest.mark.parametrize(
        "build, base",
        [(equivalent_family, EXAMPLE_CUBIC), (real_equivalent_family, EXAMPLE_REAL)],
    )
    def test_wrong_member_raises(self, monkeypatch, build, base):
        construct = equivalence._member_exact
        monkeypatch.setattr(
            equivalence, "_member_exact", lambda *args: 2 * construct(*args)
        )
        with pytest.raises(InternalCheckError):
            build(base)


class TestExactAndNumericPathsAgree:
    # the numeric path multiplies out float roots and rationalizes; on a
    # base that splits it must rebuild exactly the members the exact path
    # builds from Gaussian-rational roots, and verify every one of them
    def test_random_split_bases(self, monkeypatch):
        from cycres import polycore

        rng = random.Random(6)
        bases = []
        for _ in range(20):
            roots = rng.sample([-6, -5, -4, -3, -2, 2, 3, 4, 5, 6], rng.randint(2, 4))
            bases.append(Polynomial.from_roots([G(r) for r in roots], rng.choice([1, 2, -3])))
        exact = [(equivalent_family(g), real_equivalent_family(g)) for g in bases]
        monkeypatch.setattr(polycore, "try_exact_roots", lambda f: None)
        for g, (plain, real) in zip(bases, exact):
            assert polycore.nonzero_roots(g)[3] is False
            for build, want in ((equivalent_family, plain), (real_equivalent_family, real)):
                got = build(g)
                assert got.members == want.members, format_poly(g)
                assert got.unverified == ()


class TestDegreeOne:
    def test_family_is_singleton(self):
        fam = equivalent_family(parse("3*x-2"))
        assert fam.members == (parse("3*x-2"),)
        assert len(fam) == generic_family_size(1)


class TestVerify:
    def test_shared_pair(self):
        assert verify_same_resultants(EXAMPLE_CUBIC, EXAMPLE_QUINTIC, 15)

    def test_distinct_linears(self):
        assert not verify_same_resultants(parse("x-2"), parse("x-3"), 1)

    def test_negation_has_same_abs(self):
        f = parse("x-2")
        assert verify_same_resultants(f, -f, 2, use_abs=True)
        assert not verify_same_resultants(f, -f, 2, use_abs=False)


class TestReciprocalUniqueness:
    def test_same_polynomial(self):
        v = reciprocal_uniqueness_check(parse("x^2+3*x+1"), parse("x^2+3*x+1"), 10)
        assert v.status == "consistent" and not v.counterexample

    def test_different_first_value(self):
        v = reciprocal_uniqueness_check(parse("x^2+3*x+1"), parse("x^2+4*x+1"), 2)
        assert v.status == "sequences_differ"

    def test_non_reciprocal_rejected(self):
        with pytest.raises(PreconditionError):
            reciprocal_uniqueness_check(parse("x-2"), parse("x^2+3*x+1"), 3)

    def test_zero_resultant_rejected(self):
        with pytest.raises(ZeroResultantError):
            reciprocal_uniqueness_check(parse("x^2+2*x+1"), parse("x^2+3*x+1"), 3)

    def test_random_pairs_never_collide(self):
        rng = random.Random(53)
        done = 0
        while done < 100:
            d = rng.choice([2, 4, 6])
            half = [rng.randint(-6, 6) for _ in range(d // 2)]
            coeffs = [1] + half
            full = coeffs + list(reversed(coeffs[:-1]))
            f = Polynomial(list(reversed(full)))
            half2 = [rng.randint(-6, 6) for _ in range(d // 2)]
            coeffs2 = [1] + half2
            full2 = coeffs2 + list(reversed(coeffs2[:-1]))
            g = Polynomial(list(reversed(full2)))
            if f.degree != d or g.degree != d or f == g:
                continue
            try:
                verdict = reciprocal_uniqueness_check(f, g, 10)
            except ZeroResultantError:
                continue
            assert not verdict.counterexample
            done += 1


class TestMonicDegenerate:
    def test_examples(self):
        assert not monic_degenerate(parse("x^2-5*x+6"))
        assert monic_degenerate(parse("2*x^2-5*x+2"))  # roots 2 and 1/2
        assert monic_degenerate(parse("x^2-3*x+1"))  # root product 1

    def test_family_collapse_when_degenerate(self):
        # subset {2, 1/2} has product 1, so flipping it returns the base itself
        g = parse("2*x^2-5*x+2")
        fam = equivalent_family(g)
        assert len(fam) < generic_family_size(2) + 1
