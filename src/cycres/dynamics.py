"""Periodic-point counting for endomorphisms of the torus.

An integer matrix A acts on the d-torus by multiplication mod 1.  When no
eigenvalue is a root of unity (the ergodic case) the number of points fixed
by the m-th iterate is |det(A^m - I)|, which is also the absolute m-th cyclic
resultant of the characteristic polynomial, so the counts are read from
:func:`cycres.resultants.sequence`.  Everything runs in exact integer
arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, PreconditionError
from .equivalence import _subset_product_in
from .genfun import PowerSeries, exp_neg_weighted_series_exact
from .polycore import Polynomial, has_root_of_unity
from .resultants import sequence


@dataclass(frozen=True)
class IntegerMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @staticmethod
    def of(rows) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    @staticmethod
    def from_json(data: dict) -> "IntegerMatrix":
        mat = IntegerMatrix.of(data["entries"])
        if mat.n != int(data["n"]):
            raise ValueError("matrix dimension does not match entries")
        return mat


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for k in range(n):
            if ai[k]:
                aik = ai[k]
                bk = b[k]
                row = out[i]
                for j in range(n):
                    row[j] += aik * bk[j]
    return out


def char_poly(a: IntegerMatrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - A), exactly.

    Faddeev-LeVerrier recursion over the integers: every coefficient is an
    integer, so each trace divides exactly; a remainder raises
    InternalCheckError.
    """
    n = a.n
    work = [list(row) for row in a.entries]
    coeffs = [1]  # descending: x^n first
    m_mat = _identity(n)
    for k in range(1, n + 1):
        am = _mul(work, m_mat)
        trace = sum(am[i][i] for i in range(n))
        if trace % k:
            raise InternalCheckError("characteristic polynomial must be integral", k=k)
        coeffs.append(-trace // k)
        for i in range(n):
            am[i][i] += coeffs[-1]
        m_mat = am
    return Polynomial(list(reversed(coeffs)))


def is_ergodic(a: IntegerMatrix) -> bool:
    """True iff no eigenvalue is a root of unity (exact cyclotomic test)."""
    if a.n == 0:
        return True
    return not has_root_of_unity(char_poly(a))


def _require_ergodic(a: IntegerMatrix):
    if not is_ergodic(a):
        raise PreconditionError("matrix has a root-of-unity eigenvalue")


def periodic_point_count(a: IntegerMatrix, m: int) -> int:
    """|det(A^m - I)|: the number of points fixed by the m-th iterate."""
    if m < 1:
        raise ValueError("iterate index must be >= 1")
    return periodic_point_counts(a, m)[-1]


def periodic_point_counts(a: IntegerMatrix, order: int) -> list[int]:
    """Counts for m = 1..order, read from the cyclic-resultant sequence of
    the characteristic polynomial after one ergodicity check."""
    if order < 0:
        raise ValueError("order must be >= 0")
    _require_ergodic(a)
    if order == 0:
        return []
    return [abs(int(v.re)) for v in sequence(char_poly(a), order).values]


def zeta_series(a: IntegerMatrix, order: int) -> PowerSeries:
    """Truncated series of exp(-sum_m count_m z^m / m) with exact counts."""
    exact = exp_neg_weighted_series_exact(periodic_point_counts(a, order), order)
    return PowerSeries(tuple(complex(b) for b in exact))


def spectrum_determined(a: IntegerMatrix) -> bool:
    """Whether the periodic-point counts pin down the eigenvalues.

    Sufficient condition: no nonempty subset of the eigenvalues has product
    +1 or -1, decided exactly on the characteristic polynomial's companion
    matrix (degree <= SUBSET_SCAN_LIMIT).
    """
    _require_ergodic(a)
    return not _subset_product_in(char_poly(a), (1, -1))
