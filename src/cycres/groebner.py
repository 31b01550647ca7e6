"""Desk-scale multivariate polynomials and a minimal Buchberger engine.

Monomials are exponent tuples ordered lexicographically with variable 0 most
significant; coefficients are exact Gaussian rationals.  The scale target is
reconstruction systems with at most four unknowns, so the implementation
favors correctness checks (every S-polynomial of a finished basis reduces to
zero) over pairing heuristics; only the coprime-leading-term criterion is
used to prune pairs.
"""
from __future__ import annotations

import itertools

from .errors import UnderdeterminedError
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


def normal_form(p: MultiPoly, basis: list[MultiPoly]) -> MultiPoly:
    """Full multivariate division remainder: no remaining term is divisible
    by any basis leading monomial."""
    leads = [(g.leading()[0], g.leading()[1], g) for g in basis if not g.is_zero()]
    remainder = MultiPoly(p.nvars)
    work = p
    while not work.is_zero():
        exps, coeff = work.leading()
        reduced = False
        for le, lc, g in leads:
            if _divides(le, exps):
                shift = tuple(a - b for a, b in zip(exps, le))
                factor = MultiPoly(p.nvars, {shift: coeff / lc})
                work = work - factor * g
                reduced = True
                break
        if not reduced:
            remainder = remainder + MultiPoly(p.nvars, {exps: coeff})
            work = work - MultiPoly(p.nvars, {exps: coeff})
    return remainder


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    ef, cf = f.leading()
    eg, cg = g.leading()
    lcm = _lcm_exps(ef, eg)
    mf = MultiPoly(f.nvars, {tuple(a - b for a, b in zip(lcm, ef)): 1 / cf})
    mg = MultiPoly(g.nvars, {tuple(a - b for a, b in zip(lcm, eg)): 1 / cg})
    return mf * f - mg * g


def groebner_basis(generators, check: bool = True) -> list[MultiPoly]:
    """Lexicographic Groebner basis by Buchberger's algorithm.

    Pairs with coprime leading monomials are skipped; everything else is
    reduced fully.  The finished basis is inter-reduced and, when check is
    set, every S-polynomial is verified to reduce to zero.
    """
    basis = [g.monic() for g in generators if not g.is_zero()]
    if not basis:
        return []
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        ei, _ = basis[i].leading()
        ej, _ = basis[j].leading()
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue  # coprime leading monomials: S-poly reduces to zero
        rem = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not rem.is_zero():
            basis.append(rem.monic())
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    # inter-reduce: drop members reducing to zero modulo the rest, and fully
    # reduce the survivors for a triangular-looking output
    reduced: list[MultiPoly] = []
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1 :]
        rem = normal_form(g, others)
        if not rem.is_zero():
            basis[i] = rem.monic()
        else:
            basis[i] = MultiPoly(g.nvars)
    reduced = [g for g in basis if not g.is_zero()]
    final: list[MultiPoly] = []
    for i, g in enumerate(reduced):
        rem = normal_form(g, reduced[:i] + reduced[i + 1 :])
        if not rem.is_zero():
            final.append(rem.monic())
    if not final:
        final = [MultiPoly.const(generators[0].nvars, 0)]

    if check:
        for f, g in itertools.combinations(final, 2):
            if not normal_form(s_polynomial(f, g), final).is_zero():
                raise AssertionError("S-polynomial does not reduce to zero")
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


