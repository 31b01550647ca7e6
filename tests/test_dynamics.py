import contextlib
import io
import json
import random
import warnings

import pytest

from conftest import exact_subset_products
from cycres import dynamics, equivalence
from cycres.cli import main
from cycres.dynamics import (
    IntegerMatrix,
    char_poly,
    is_ergodic,
    periodic_point_count,
    periodic_point_counts,
    spectrum_determined,
    zeta_series,
)
from cycres.errors import DegreeGuardError, InternalCheckError, PreconditionError
from cycres.genfun import exp_series
from cycres.polycore import Polynomial, has_root_of_unity, parse
from cycres.resultants import abs_sequence, cyclic_resultant

DOUBLING = IntegerMatrix.of([[2]])
FIB_LIKE = IntegerMatrix.of([[2, 1], [1, 1]])
ROTATION = IntegerMatrix.of([[0, -1], [1, 0]])


def random_matrix(rng, n, bound=3):
    return IntegerMatrix.of(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    )


class TestCharPoly:
    def test_examples(self):
        assert char_poly(DOUBLING) == parse("x-2")
        assert char_poly(FIB_LIKE) == parse("x^2-3*x+1")
        assert char_poly(IntegerMatrix.of([[1, 0], [0, 1]])) == parse("x^2-2*x+1")

    def test_trace_and_determinant_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            m = random_matrix(rng, 2)
            p = char_poly(m)
            (a, b), (c, d) = m.entries
            assert p == parse(f"x^2+{-(a + d)}*x+{a * d - b * c}".replace("+-", "-"))

    def test_degree_matches_dimension(self):
        rng = random.Random(42)
        for n in (1, 2, 3, 4):
            p = char_poly(random_matrix(rng, n))
            assert p.degree == n and p.is_monic()


class TestCharPolyCheck:
    # a trace that k does not divide is a bug in the recursion: with every
    # product forced to trace 1, the k = 2 step has a remainder
    @pytest.fixture
    def odd_trace(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_mul", lambda a, b: [[1, 0], [0, 0]])

    def test_raises_internal_check(self, odd_trace):
        with pytest.raises(InternalCheckError):
            char_poly(FIB_LIKE)

    def test_cli_exits_2_with_json(self, odd_trace, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(FIB_LIKE.to_json()))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["zeta", "--matrix", str(path), "--order", "3"])
        assert code == 2
        assert json.loads(out.getvalue())["code"] == "internal_check"


class TestErgodicity:
    def test_examples(self):
        assert is_ergodic(DOUBLING)
        assert not is_ergodic(ROTATION)  # eigenvalues +-i
        assert is_ergodic(FIB_LIKE)

    def test_identity_is_not_ergodic(self):
        assert not is_ergodic(IntegerMatrix.of([[1]]))


class TestPeriodCounts:
    def test_doubling_map_mersenne(self):
        assert [periodic_point_count(DOUBLING, m) for m in range(1, 6)] == [
            1, 3, 7, 15, 31,
        ]

    def test_fib_like_values(self):
        assert periodic_point_count(FIB_LIKE, 1) == 1
        assert periodic_point_count(FIB_LIKE, 2) == 5

    def test_non_ergodic_rejected(self):
        with pytest.raises(PreconditionError):
            periodic_point_count(ROTATION, 1)

    def test_counts_match_resultants(self):
        rng = random.Random(43)
        done = 0
        while done < 30:
            n = rng.randint(1, 4)
            m = random_matrix(rng, n)
            if not is_ergodic(m):
                continue
            p = char_poly(m)
            for k in range(1, 13):
                want = cyclic_resultant(p, k)
                assert want.is_real()
                assert periodic_point_count(m, k) == abs(want.re)
            done += 1

    def test_order_zero_is_empty_and_negative_order_rejected(self):
        assert periodic_point_counts(FIB_LIKE, 0) == []
        with pytest.raises(ValueError):
            periodic_point_counts(FIB_LIKE, -1)

    def test_counts_positive_for_ergodic(self):
        rng = random.Random(44)
        done = 0
        while done < 20:
            m = random_matrix(rng, rng.randint(1, 3))
            if not is_ergodic(m):
                continue
            assert all(periodic_point_count(m, k) > 0 for k in range(1, 10))
            done += 1


class TestZetaSeries:
    def test_doubling_matches_quotient(self):
        s = zeta_series(DOUBLING, 2)
        assert [round(c.real) for c in s.coeffs] == [1, -1, -1]

    def test_order_zero(self):
        assert [c.real for c in zeta_series(DOUBLING, 0).coeffs] == [1]

    def test_cross_module_consistency(self):
        s = zeta_series(FIB_LIKE, 8)
        e = exp_series(abs_sequence(char_poly(FIB_LIKE), 8), 8)
        for a, b in zip(s.coeffs, e.coeffs):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestSpectrumRecovery:
    def test_examples(self):
        assert spectrum_determined(DOUBLING)
        assert not spectrum_determined(FIB_LIKE)  # determinant 1
        assert spectrum_determined(IntegerMatrix.of([[3, 1], [1, 1]]))

    def test_near_threshold_verdict_is_exact(self):
        # eigenvalues 2 +- sqrt(2): the subset product 2 - sqrt(2) lies near 1,
        # but no subset product is exactly +-1, and no warning is raised
        m = IntegerMatrix.of([[3, 1], [1, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectrum_determined(m) is True

    def test_matrix_json_roundtrip(self):
        data = FIB_LIKE.to_json()
        assert data == {"n": 2, "entries": [["2", "1"], ["1", "1"]]}
        assert IntegerMatrix.from_json(data) == FIB_LIKE


def _block_companion(polys):
    """Block-diagonal integer matrix of the companion matrices of monic
    integer polynomials, each given by ascending coefficients below the lead."""
    n = sum(len(p) for p in polys)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for p in polys:
        d = len(p)
        for i in range(d):
            if i:
                rows[at + i][at + i - 1] = 1
            rows[at + i][at + d - 1] = -p[i]
        at += d
    return rows


def _conjugated(rng, rows, steps=4):
    """U A U^-1 for a random unimodular U made of elementary row additions."""
    a = [list(row) for row in rows]
    n = len(a)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            a[i][k] += c * a[j][k]
        for k in range(n):
            a[k][j] -= c * a[k][i]
    return IntegerMatrix.of(a)


class TestExactSpectrumDecision:
    def test_split_matrices_agree_with_exact_oracle(self):
        # an ergodic integer matrix whose eigenvalues are Gaussian rationals
        # has Gaussian-integer eigenvalues, none a unit, so the exact subset
        # products never reach +-1 and the counts pin the spectrum down
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            diag = [rng.choice([-3, -2, 0, 2, 3, 4]) for _ in range(n)]
            upper = [
                [diag[i] if i == j else rng.randint(-2, 2) * (j > i) for j in range(n)]
                for i in range(n)
            ]
            a = _conjugated(rng, upper)
            products = exact_subset_products(char_poly(a))
            assert spectrum_determined(a) == (1 not in products and -1 not in products)

    def test_planted_products_of_minus_one_and_one(self):
        # a factor x^2 - a x - 1 has two eigenvalues of product -1, x^2 - a x + 1
        # (|a| >= 3) two of product 1, x^3 + b x^2 + c x -+ 1 three of product +-1
        rng = random.Random(12)
        for case in range(30):
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            planted = [
                [-1, -a],
                [1, -rng.choice([-4, -3, 3, 4])],
                [rng.choice([-1, 1]), rng.choice([-5, 5]), rng.randint(-2, 2)],
            ][case % 3]
            other = [rng.choice([-3, -2, 2, 3])] if case % 2 else [6, -5]
            m = _conjugated(rng, _block_companion([planted, other]))
            assert char_poly(m) == Polynomial(planted + [1]) * Polynomial(other + [1])
            assert is_ergodic(m), m
            assert not spectrum_determined(m)
        assert spectrum_determined(_conjugated(rng, _block_companion([[2, -5], [3]])))

    def test_above_the_limit_raises_before_any_determinant(self, monkeypatch):
        def no_det(m):
            raise AssertionError("determinant before the degree guard")

        monkeypatch.setattr(equivalence, "_det_bareiss", no_det)
        d = equivalence.SUBSET_SCAN_LIMIT + 1
        m = IntegerMatrix.of(_block_companion([[-2] + [0] * (d - 1)]))  # x^d - 2
        with pytest.raises(DegreeGuardError) as info:
            spectrum_determined(m)
        assert info.value.context["degree"] == d
