"""Desk-scale multivariate polynomials and a Buchberger engine.

Monomials are exponent tuples ordered lexicographically with variable 0 most
significant; coefficients are exact Gaussian rationals.  The scale target is
reconstruction systems with at most four unknowns.  Buchberger's loop takes
pairs by the normal selection strategy (smallest lcm first), prunes them by
the coprime-leading-term and chain criteria (Cox, Little and O'Shea, *Ideals,
Varieties, and Algorithms*, section 2.10), reduces in place on term dicts,
and stops at once on the unit ideal.  The criteria only prune the loop: every
S-polynomial of the finished basis is still checked to reduce to zero.
"""
from __future__ import annotations

import heapq
import itertools

from .errors import InternalCheckError, UnderdeterminedError
from .gaussian import GaussianRational
from .polycore import Polynomial, poly_gcd, rationalize, roots_numeric


class MultiPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], GaussianRational] = {}
        if terms:
            for exps, coeff in terms.items():
                c = GaussianRational.of(coeff)
                if not c.is_zero():
                    self.terms[tuple(exps)] = c

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _of_terms(nvars: int, terms: dict) -> "MultiPoly":
        """Wrap a dict of nonzero GaussianRational terms without copying."""
        p = MultiPoly(nvars)
        p.terms = terms
        return p

    @staticmethod
    def const(nvars: int, value) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return MultiPoly(nvars, {tuple(exps): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        o = self._coerce(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, GaussianRational(0)) + c
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) + (-self)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        o = self._coerce(other)
        out: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e)
                out[e] = c1 * c2 if acc is None else acc + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.const(self.nvars, other)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], GaussianRational]:
        exps = max(self.terms)
        return exps, self.terms[exps]

    def monic(self) -> "MultiPoly":
        if self.is_zero():
            return self
        _, lc = self.leading()
        if lc.is_one():
            return self
        return MultiPoly(self.nvars, {e: c / lc for e, c in self.terms.items()})

    def variables_used(self) -> set[int]:
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    def substitute(self, index: int, value) -> "MultiPoly":
        """Plug an exact value into one variable."""
        v = GaussianRational.of(value)
        out: dict[tuple[int, ...], GaussianRational] = {}
        for e, c in self.terms.items():
            coeff = c * v ** e[index]
            e2 = e[:index] + (0,) + e[index + 1 :]
            acc = out.get(e2)
            out[e2] = coeff if acc is None else acc + coeff
        return MultiPoly(self.nvars, out)

    def as_univariate(self, index: int) -> Polynomial:
        """View as a univariate polynomial in one variable; all other
        variables must be absent."""
        coeffs: dict[int, GaussianRational] = {}
        for e, c in self.terms.items():
            if any(x for i, x in enumerate(e) if i != index):
                raise ValueError("polynomial is not univariate in that variable")
            coeffs[e[index]] = c
        if not coeffs:
            return Polynomial()
        out = [GaussianRational(0)] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return Polynomial(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            mono = "*".join(
                f"v{i}" + (f"^{x}" if x > 1 else "")
                for i, x in enumerate(e)
                if x
            )
            c = self.terms[e]
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def sym_det(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant of a matrix of polynomials by memoized minor expansion."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = rows[0][0].nvars
    cache: dict[tuple[int, tuple[int, ...]], MultiPoly] = {}

    def minor(i: int, cols: tuple[int, ...]) -> MultiPoly:
        if i == n:
            return MultiPoly.const(nvars, 1)
        key = (i, cols)
        got = cache.get(key)
        if got is not None:
            return got
        acc = MultiPoly(nvars)
        for pos, j in enumerate(cols):
            entry = rows[i][j]
            if entry.is_zero():
                continue
            sub = minor(i + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        cache[key] = acc
        return acc

    return minor(0, tuple(range(n)))


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def _divides(e1, e2) -> bool:
    return all(a <= b for a, b in zip(e1, e2))


def _lcm_exps(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _subtract_multiple(work: dict, q: GaussianRational, shift, g: dict, skip):
    """work -= q * x^shift * g in place, dropping keys that reach zero.  The
    term of g at exponent skip is left out: the caller cancels it."""
    neg_q = -q
    for e, c in g.items():
        if e == skip:
            continue
        e2 = tuple(a + b for a, b in zip(e, shift))
        prod = neg_q * c
        acc = work.get(e2)
        if acc is None:
            work[e2] = prod
        else:
            acc = acc + prod
            if acc.is_zero():
                del work[e2]
            else:
                work[e2] = acc


def normal_form(p: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
    """Full multivariate division remainder: no remaining term is divisible
    by any basis leading monomial."""
    leads = [g.leading() + (g.terms,) for g in basis if not g.is_zero()]
    work = dict(p.terms)
    remainder: dict[tuple[int, ...], GaussianRational] = {}
    while work:
        exps = max(work)
        coeff = work.pop(exps)
        for le, lc, g in leads:
            if _divides(le, exps):
                q = coeff if lc.is_one() else coeff / lc
                shift = tuple(a - b for a, b in zip(exps, le))
                _subtract_multiple(work, q, shift, g, le)
                break
        else:
            remainder[exps] = coeff
    return MultiPoly._of_terms(p.nvars, remainder)


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    ef, cf = f.leading()
    eg, cg = g.leading()
    lcm = _lcm_exps(ef, eg)
    out: dict[tuple[int, ...], GaussianRational] = {}
    # the two leading terms cancel, so both are skipped
    _subtract_multiple(out, -1 / cf, tuple(a - b for a, b in zip(lcm, ef)), f.terms, ef)
    _subtract_multiple(out, 1 / cg, tuple(a - b for a, b in zip(lcm, eg)), g.terms, eg)
    return MultiPoly._of_terms(f.nvars, out)


def _check_basis(basis: list[MultiPoly]) -> None:
    """Raise InternalCheckError unless every S-polynomial of every pair
    reduces to zero modulo the basis."""
    for f, g in itertools.combinations(basis, 2):
        if not normal_form(s_polynomial(f, g), basis).is_zero():
            raise InternalCheckError(
                "S-polynomial does not reduce to zero", f=str(f), g=str(g)
            )


def groebner_basis(generators) -> list[MultiPoly]:
    """Reduced lexicographic Groebner basis by Buchberger's algorithm.

    The pending pair with the smallest leading-monomial lcm (total degree,
    then lex, then index) is reduced first.  A pair is skipped when its
    leading monomials are coprime, or by Buchberger's chain criterion: some
    third member's leading monomial divides the lcm and neither of its
    pairs with the two is still pending.  A nonzero constant among the
    generators or the remainders ends the loop with the unit ideal [1].
    The finished basis is inter-reduced and every S-polynomial of every
    pair of it is checked to reduce to zero (InternalCheckError if not).
    """
    basis: list[MultiPoly] = []
    for g in generators:
        if g.is_zero():
            continue
        if g.is_constant():
            return [MultiPoly.const(g.nvars, 1)]
        basis.append(g.monic())
    if not basis:
        return []
    nvars = basis[0].nvars
    leads = [g.leading()[0] for g in basis]
    pending: set[tuple[int, int]] = set()
    queue: list[tuple[int, tuple[int, ...], int, int]] = []

    def add_pairs(j: int):
        for i in range(j):
            lcm = _lcm_exps(leads[i], leads[j])
            pending.add((i, j))
            heapq.heappush(queue, (sum(lcm), lcm, i, j))

    for j in range(1, len(basis)):
        add_pairs(j)
    while queue:
        _, lcm, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        if all(a == 0 or b == 0 for a, b in zip(leads[i], leads[j])):
            continue  # coprime leading monomials: S-poly reduces to zero
        if any(
            k != i
            and k != j
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            and _divides(lk, lcm)
            for k, lk in enumerate(leads)
        ):
            continue  # chain criterion: covered by pairs already reduced
        rem = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if rem.is_zero():
            continue
        if rem.is_constant():
            return [MultiPoly.const(nvars, 1)]
        basis.append(rem.monic())
        leads.append(basis[-1].leading()[0])
        add_pairs(len(basis) - 1)

    # inter-reduce: drop members reducing to zero modulo the rest, and fully
    # reduce the survivors for a triangular-looking output
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1 :]
        rem = normal_form(g, others)
        basis[i] = rem.monic() if not rem.is_zero() else MultiPoly(nvars)
    reduced = [g for g in basis if not g.is_zero()]
    final: list[MultiPoly] = []
    for i, g in enumerate(reduced):
        rem = normal_form(g, reduced[:i] + reduced[i + 1 :])
        if not rem.is_zero():
            final.append(rem.monic())
    _check_basis(final)
    return final


def is_unit_ideal(basis: list[MultiPoly]) -> bool:
    return any(g.is_constant() and not g.is_zero() for g in basis)


# ---------------------------------------------------------------------------
# back substitution for zero-dimensional systems
# ---------------------------------------------------------------------------


def exact_univariate_roots(p: Polynomial) -> list[GaussianRational]:
    """All Gaussian-rational roots of an exact univariate polynomial.

    Numeric roots are rationalized and kept only when they satisfy the
    polynomial exactly, so no spurious root survives and only roots with
    denominator beyond the rationalization bound can be missed.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    found: list[GaussianRational] = []
    for z in roots_numeric(p):
        cand = rationalize(z)
        if p.evaluate(cand).is_zero() and cand not in found:
            found.append(cand)
    found.sort(key=lambda g: g.sort_key())
    return found


def solve_triangular(
    basis: list[MultiPoly], nvars: int
) -> list[tuple[GaussianRational, ...]]:
    """All Gaussian-rational solutions of a zero-dimensional lex basis.

    Variables are assigned from the least significant upward; at each level
    the substituted generators that became univariate in the target variable
    are combined by gcd and their exact rational roots branch the search.
    """
    solutions: list[tuple[GaussianRational, ...]] = []

    def descend(level: int, assignment: dict[int, GaussianRational]):
        if level < 0:
            solutions.append(tuple(assignment[i] for i in range(nvars)))
            return
        constraints: list[Polynomial] = []
        pending = False
        for g in basis:
            h = g
            for idx, val in assignment.items():
                h = h.substitute(idx, val)
            if h.is_zero():
                continue
            used = h.variables_used()
            if not used:
                return  # nonzero constant: contradiction on this branch
            if used == {level}:
                constraints.append(h.as_univariate(level))
            elif level in used or min(used) < level:
                pending = True
        if not constraints:
            if pending:
                raise UnderdeterminedError(
                    "no univariate constraint for a variable; "
                    "solution set is positive-dimensional",
                    variable=level,
                )
            # variable is unconstrained: positive-dimensional as well
            raise UnderdeterminedError(
                "variable is unconstrained", variable=level
            )
        gcd_poly = constraints[0]
        for c in constraints[1:]:
            gcd_poly = poly_gcd(gcd_poly, c)
        if gcd_poly.degree == 0:
            return  # inconsistent constraints on this branch
        for root in exact_univariate_roots(gcd_poly):
            assignment[level] = root
            descend(level - 1, assignment)
            del assignment[level]

    descend(nvars - 1, {})
    return solutions


