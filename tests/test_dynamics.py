import contextlib
import io
import json
import random
import warnings

import pytest

from cycres import dynamics
from cycres.cli import main
from cycres.dynamics import (
    IntegerMatrix,
    SpectrumToleranceWarning,
    char_poly,
    is_ergodic,
    periodic_point_count,
    periodic_point_counts,
    spectrum_determined,
    zeta_series,
)
from cycres.errors import InternalCheckError, PreconditionError
from cycres.genfun import exp_series
from cycres.polycore import has_root_of_unity, parse
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

    def test_near_threshold_warns(self):
        m = IntegerMatrix.of([[3, 1], [1, 1]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verdict = spectrum_determined(m, tol=0.55)
            assert verdict is False or any(
                isinstance(w.message, SpectrumToleranceWarning) for w in caught
            )

    def test_matrix_json_roundtrip(self):
        data = FIB_LIKE.to_json()
        assert data == {"n": 2, "entries": [["2", "1"], ["1", "1"]]}
        assert IntegerMatrix.from_json(data) == FIB_LIKE
