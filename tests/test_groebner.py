import itertools
import random
from fractions import Fraction

import pytest

from cycres.errors import InternalCheckError, UnderdeterminedError
from cycres.gaussian import GaussianRational as G
from cycres.groebner import (
    MultiPoly,
    _check_basis,
    exact_univariate_roots,
    groebner_basis,
    is_unit_ideal,
    normal_form,
    s_polynomial,
    solve_triangular,
    sym_det,
)
from cycres.polycore import Polynomial, parse


def v(n, i):
    return MultiPoly.variable(n, i)


def c(n, value):
    return MultiPoly.const(n, value)


class TestMultiPoly:
    def test_ring_axioms_random(self):
        rng = random.Random(61)

        def rand_poly():
            p = MultiPoly(2)
            for _ in range(rng.randint(1, 4)):
                exps = (rng.randint(0, 3), rng.randint(0, 3))
                p = p + MultiPoly(2, {exps: rng.randint(-5, 5)})
            return p

        for _ in range(100):
            a, b, cc = rand_poly(), rand_poly(), rand_poly()
            assert a * (b + cc) == a * b + a * cc
            assert a * b == b * a

    def test_lex_leading_term(self):
        p = v(2, 0) + v(2, 1) * v(2, 1)  # x + y^2: lex puts x first
        exps, coeff = p.leading()
        assert exps == (1, 0) and coeff == G(1)

    def test_substitute(self):
        p = v(2, 0) * v(2, 0) + v(2, 1) - 3
        q = p.substitute(0, 2)
        assert q == v(2, 1) + 1

    def test_as_univariate(self):
        p = v(2, 1) * v(2, 1) - 2
        poly = p.as_univariate(1)
        assert poly == parse("x^2-2")
        with pytest.raises(ValueError):
            (v(2, 0) + v(2, 1)).as_univariate(1)


class TestSymDet:
    def test_constant_matrix(self):
        rows = [[c(1, 1), c(1, 2)], [c(1, 3), c(1, 4)]]
        assert sym_det(rows) == c(1, -2)

    def test_matches_numeric_determinant(self):
        rng = random.Random(62)
        for n in (2, 3, 4):
            rows = [[c(1, rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            # cofactor-free oracle: permutation expansion
            total = Fraction(0)
            for perm in itertools.permutations(range(n)):
                sign = 1
                seen = list(perm)
                for i in range(n):
                    for j in range(i + 1, n):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = Fraction(sign)
                for i in range(n):
                    ((_, coeff),) = rows[i][perm[i]].terms.items() if rows[i][perm[i]].terms else ((None, G(0)),)
                    term *= coeff.re
                total += term
            assert sym_det(rows) == c(1, total)

    def test_symbolic_2x2(self):
        rows = [[v(2, 0), c(2, 1)], [c(2, 1), v(2, 1)]]
        assert sym_det(rows) == v(2, 0) * v(2, 1) - 1


class TestBuchberger:
    def test_circle_and_hyperbola(self):
        # x^2 + y^2 - 1 and x*y - 1 under lex x > y
        n = 2
        g1 = v(n, 0) * v(n, 0) + v(n, 1) * v(n, 1) - 1
        g2 = v(n, 0) * v(n, 1) - 1
        basis = groebner_basis([g1, g2])
        # the elimination ideal must contain a univariate polynomial in y
        univariate = [b for b in basis if b.variables_used() == {1}]
        assert univariate
        poly = univariate[0].as_univariate(1)
        assert poly == parse("x^4-x^2+1")

    def test_unit_ideal(self):
        n = 1
        basis = groebner_basis([v(n, 0), v(n, 0) - 1])
        assert is_unit_ideal(basis)
        # a constant generator, and a constant remainder (x*y = 1, y = 0)
        n = 2
        assert groebner_basis([v(n, 0) * v(n, 1) - 1, c(n, 3)]) == [c(n, 1)]
        assert groebner_basis([v(n, 0) * v(n, 1) - 1, v(n, 1)]) == [c(n, 1)]

    def test_spoly_reductions_vanish(self):
        rng = random.Random(63)
        n = 2
        for _ in range(10):
            gens = []
            for _ in range(3):
                p = MultiPoly(n)
                for _ in range(rng.randint(1, 3)):
                    exps = (rng.randint(0, 2), rng.randint(0, 2))
                    p = p + MultiPoly(n, {exps: rng.randint(-3, 3)})
                if not p.is_zero():
                    gens.append(p)
            if not gens:
                continue
            basis = groebner_basis(gens)  # internal check asserts reductions
            for f, g in itertools.combinations(basis, 2):
                assert normal_form(s_polynomial(f, g), basis).is_zero()

    def test_check_rejects_a_non_basis(self):
        # {x^2 - y, x*y - 1} is not a Groebner basis: S = x - y^2 reduces to
        # a nonzero remainder, and the finished-basis check must say so
        n = 2
        gens = [v(n, 0) * v(n, 0) - v(n, 1), v(n, 0) * v(n, 1) - 1]
        with pytest.raises(InternalCheckError):
            _check_basis(gens)
        _check_basis(groebner_basis(gens))

    def test_matches_sympy_reduced_basis(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(64)
        units = 0
        for _ in range(100):
            n = rng.randint(2, 3)
            syms = sympy.symbols(f"x0:{n}")
            count = rng.randint(2, 3)
            gens = []
            while len(gens) < count:
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    exps = tuple(rng.randint(0, 2) for _ in range(n))
                    terms[exps] = rng.randint(-4, 4)
                p = MultiPoly(n, terms)
                if not p.is_zero():
                    gens.append(p)
            ours = {
                frozenset((e, cf.re) for e, cf in g.terms.items())
                for g in groebner_basis(gens)
            }
            exprs = [
                sum(int(cf.re) * sympy.prod(s**k for s, k in zip(syms, e))
                    for e, cf in g.terms.items())
                for g in gens
            ]
            theirs = set()
            for g in sympy.groebner(exprs, *syms, order="lex", domain="QQ"):
                monic = sympy.Poly(g, *syms, domain="QQ").monic()
                theirs.add(frozenset(
                    (e, Fraction(int(cf.p), int(cf.q))) for e, cf in monic.terms()
                ))
            assert ours == theirs
            units += ours == {frozenset({((0,) * n, 1)})}
        assert 0 < units < 100  # unit ideals and proper ideals both occur

    def test_normal_form_is_idempotent(self):
        n = 2
        g1 = v(n, 0) + v(n, 1)
        g2 = v(n, 1) * v(n, 1) - 2
        basis = groebner_basis([g1, g2])
        p = v(n, 0) * v(n, 0) * v(n, 1) + 5
        r = normal_form(p, basis)
        assert normal_form(r, basis) == r


class TestSolver:
    def test_linear_system(self):
        n = 2
        gens = [v(n, 0) + v(n, 1) - 3, v(n, 0) - v(n, 1) - 1]
        sols = solve_triangular(groebner_basis(gens), n)
        assert sols == [(G(2), G(1))]

    def test_two_solutions(self):
        n = 1
        gens = [v(n, 0) * v(n, 0) - 4]
        sols = solve_triangular(groebner_basis(gens), n)
        assert sorted(s[0].re for s in sols) == [-2, 2]

    def test_gaussian_solutions(self):
        n = 1
        gens = [v(n, 0) * v(n, 0) + 1]
        sols = solve_triangular(groebner_basis(gens), n)
        assert sorted(str(s[0]) for s in sols) == ["0+1i", "0-1i"]

    def test_positive_dimensional_detected(self):
        n = 2
        gens = [v(n, 0) - v(n, 1)]
        with pytest.raises(UnderdeterminedError):
            solve_triangular(groebner_basis(gens), n)

    def test_branching_system(self):
        n = 2
        # y = 1 forces x = 7; y = -1 forces x = 0
        gens = [
            v(n, 1) * v(n, 1) - 1,
            (v(n, 1) - 1) * v(n, 0),
            (v(n, 1) + 1) * (v(n, 0) - 7),
        ]
        basis = groebner_basis(gens)
        sols = solve_triangular(basis, n)
        assert sorted((s[0].re, s[1].re) for s in sols) == [(0, -1), (7, 1)]
        for sol in sols:
            for g in basis:
                h = g
                for i, value in enumerate(sol):
                    h = h.substitute(i, value)
                assert h.is_zero()


class TestExactRoots:
    def test_rational_roots_only(self):
        p = parse("x^3-x^2-4*x+4")  # roots 1, 2, -2
        roots = exact_univariate_roots(p)
        assert sorted(r.re for r in roots) == [-2, 1, 2]

    def test_mixed_rational_irrational(self):
        p = parse("x^2-2") * parse("x-3")
        roots = exact_univariate_roots(p)
        assert [r.re for r in roots] == [3]

    def test_repeated_roots_reported_once(self):
        p = parse("x^2-4*x+4")
        assert [r.re for r in exact_univariate_roots(p)] == [2]

    def test_zero_root_handled(self):
        roots = exact_univariate_roots(parse("x^2+x"))
        assert sorted(r.re for r in roots) == [-1, 0]
