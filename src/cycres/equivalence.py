"""Enumerating the polynomials that share a cyclic-resultant sequence.

A polynomial g = x^l2 * v * u (with u(0) != 0) shares its sequence with
every f = (-1)^(deg u) * x^l1 * v * reversal(u) built by carrying a subset of
the nonzero roots into the reversal part, subject to deg(u) = l2 - l1 mod 2.
The real absolute-value variant allows any global sign but requires the
subset to be closed under conjugation so the member stays real.

Roots come from polycore.nonzero_roots, exact when the input splits over the
Gaussian rationals and floats otherwise; one path groups and multiplies out
either kind.  A float member is rationalized and kept only after exact
re-verification of the sequence.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DegreeGuardError,
    InternalCheckError,
    PreconditionError,
    RootOfUnityError,
    ZeroPolynomialError,
    ZeroResultantError,
)
from .gaussian import GaussianRational
from .polycore import (
    Polynomial,
    has_root_of_unity,
    nonzero_roots,
    rationalize,
    roots_numeric,
)
from .resultants import reproduces, sequence

DEFAULT_CHECK_LENGTH = 10
SUBSET_SCAN_LIMIT = 20


def generic_family_size(d: int) -> int:
    """Family size at a generic degree-d base: 2^(d-1)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return 2 ** (d - 1)


@dataclass(frozen=True)
class SubsetRecord:
    """Which roots were carried into the reversal part, plus the global sign."""

    reversed_roots: tuple[str, ...]
    sign: int


@dataclass(frozen=True)
class EquivalenceFamily:
    base: Polynomial
    members: tuple[Polynomial, ...]
    l1: int
    subset_log: tuple[SubsetRecord, ...]
    unverified: tuple[tuple[complex, ...], ...] = ()

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, poly: Polynomial) -> bool:
        return poly in self.members


def _split_base(g: Polynomial, check_length: int):
    """Common preconditions; returns (l2, h, base sequence)."""
    if g.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    if has_root_of_unity(g):
        raise RootOfUnityError("base polynomial has a root of unity")
    base_seq = sequence(g, check_length)
    if base_seq.has_zero():
        raise ZeroResultantError("base polynomial has a zero cyclic resultant")
    l2, h = g.strip_zero_roots()
    return l2, h, base_seq


def _member_coeffs(lead, keep, flip, l1: int, sign: int) -> list:
    """Coefficients, constant term first, of
    sign * x^l1 * lead * prod(x - a for a in keep) * prod(1 - a*x for a in flip),
    computed in whatever arithmetic lead and the roots carry."""
    zero = lead - lead
    coeffs = [lead]
    for alpha in keep:
        coeffs = [zero] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= alpha * coeffs[i + 1]
    for alpha in flip:
        new = coeffs + [zero]
        for i in range(len(coeffs)):
            new[i + 1] -= alpha * coeffs[i]
        coeffs = new
    return [sign * c for c in [zero] * l1 + coeffs]


def _member_exact(lead, keep, flip, l1: int, sign: int) -> Polynomial:
    return Polynomial(_member_coeffs(lead, keep, flip, l1, sign))


def _subset_choice(roots, subset):
    """(flip, keep, sign): the indexed roots go into the reversal part and
    the sign is (-1)^(subset size)."""
    chosen = set(subset)
    flip = [roots[i] for i in subset]
    keep = [r for i, r in enumerate(roots) if i not in chosen]
    return flip, keep, -1 if len(subset) % 2 else 1


def _parity_subsets(roots, parity: int):
    """Choices for every root subset whose size has the given parity."""
    for size in range(parity, len(roots) + 1, 2):
        for subset in itertools.combinations(range(len(roots)), size):
            yield _subset_choice(roots, subset)


def equivalent_member(
    g: Polynomial, subset: tuple[int, ...], l1: int | None = None
) -> Polynomial:
    """Single family member: carry the indexed nonzero roots of g into the
    reversal part.  Exact when g splits over the Gaussian rationals."""
    l2, h, _ = _split_base(g, 1)
    if l1 is None:
        l1 = l2
    _, _, roots, exact = nonzero_roots(h)
    if not exact:
        raise PreconditionError("base polynomial does not split exactly")
    if len(subset) % 2 != (l2 - l1) % 2:
        raise PreconditionError("subset size violates the parity constraint")
    flip, keep, sign = _subset_choice(roots, subset)
    return _member_exact(h.leading, keep, flip, l1, sign)


def equivalent_family(
    g: Polynomial,
    l1: int | None = None,
    check_length: int = DEFAULT_CHECK_LENGTH,
) -> EquivalenceFamily:
    """All polynomials sharing g's exact sequence, one per root subset.

    Subsets of the nonzero-root multiset with size = l2 - l1 (mod 2) are
    enumerated exhaustively; duplicates collapse.  Every candidate is kept
    only after its exact sequence matches g's for m <= check_length, which on
    the numeric path also closes the rationalization loop.
    """
    if l1 is not None and l1 < 0:
        raise ValueError("x-multiplicity must be >= 0")
    return _family(g, l1, check_length, use_abs=False)


def _family(
    g: Polynomial, l1: int | None, check_length: int, use_abs: bool
) -> EquivalenceFamily:
    """Build, verify and order one family.

    Every candidate must reproduce g's (absolute) prefix of length
    check_length.  An exact member that does not is a bug and raises
    InternalCheckError; a numeric one that does not is set aside, with its
    float coefficients, in `unverified`.
    """
    l2, h, base_seq = _split_base(g, check_length)
    if l1 is None:
        l1 = l2
    target = base_seq.values
    if use_abs:
        target = tuple(GaussianRational(abs(v.re)) for v in target)
    d = h.degree
    if d > SUBSET_SCAN_LIMIT:
        raise DegreeGuardError("root-subset enumeration is exponential", degree=d)

    _, _, roots, exact = nonzero_roots(h)
    if use_abs:
        choices = _orbit_choices(_conjugation_orbits(roots, exact))
    else:
        choices = _parity_subsets(roots, (l2 - l1) % 2)

    lead = h.leading if exact else complex(h.leading)
    found: dict[Polynomial, SubsetRecord] = {}
    unverified: list[tuple[complex, ...]] = []
    for flip, keep, sign in choices:
        if exact:
            member = _member_exact(lead, keep, flip, l1, sign)
        else:
            floats = _member_coeffs(lead, keep, flip, l1, sign)
            member = Polynomial([rationalize(c) for c in floats])
            if use_abs and not member.is_real():
                member = Polynomial([GaussianRational(c.re) for c in member.coeffs])
        if not reproduces(member, target, use_abs):
            if exact:
                raise InternalCheckError(
                    "constructed member fails sequence verification",
                    member=str(member),
                )
            unverified.append(tuple(floats))
            continue
        found.setdefault(member, SubsetRecord(tuple(str(r) for r in flip), sign))

    ordered = sorted(found.items(), key=lambda item: item[0].sort_key())
    return EquivalenceFamily(
        base=g,
        members=tuple(m for m, _ in ordered),
        l1=l1,
        subset_log=tuple(r for _, r in ordered),
        unverified=tuple(unverified),
    )


# ---------------------------------------------------------------------------
# real absolute-value variant
# ---------------------------------------------------------------------------


def _conjugation_orbits(roots, exact: bool, tol: float = 1e-9):
    """Group roots into conjugation orbits with multiplicity: [(orbit, mult)]
    in order of first appearance, orbit being (r,) for a real root and
    (r, its conjugate) otherwise.  Float roots compare within tol."""
    def same(a, b):
        return a == b if exact else abs(a - b) <= tol

    distinct: list[list] = []  # [root, multiplicity]
    for r in roots:
        for entry in distinct:
            if same(entry[0], r):
                entry[1] += 1
                break
        else:
            distinct.append([r, 1])
    orbits = []
    while distinct:
        r, mult = distinct.pop(0)
        if r.is_real() if exact else abs(r.imag) <= tol:
            orbits.append(((r,), mult))
            continue
        i = next((i for i, (s, _) in enumerate(distinct) if same(s, r.conjugate())), None)
        if i is None or distinct[i][1] != mult:
            raise PreconditionError(
                "complex roots of a real polynomial must pair by conjugation"
            )
        orbits.append(((r, distinct.pop(i)[0]), mult))
    return orbits


def _orbit_choices(orbits):
    """Choices that carry whole conjugation orbits, any number of copies of
    each, into the reversal part; both global signs for each."""
    for choice in itertools.product(*(range(mult + 1) for _, mult in orbits)):
        flip = []
        keep = []
        for (orbit, mult), take in zip(orbits, choice):
            flip.extend(orbit * take)
            keep.extend(orbit * (mult - take))
        for sign in (1, -1):
            yield flip, keep, sign


def real_equivalent_family(
    g: Polynomial, check_length: int = DEFAULT_CHECK_LENGTH
) -> EquivalenceFamily:
    """All real polynomials of g's degree sharing its |r_m| sequence.

    Subsets must be closed under conjugation (whole conjugate-pair orbits at
    a time) so members stay real; both global signs are tried and there is no
    parity constraint.  Each candidate is verified by exact absolute-value
    sequence equality, as in equivalent_family.
    """
    if not g.is_real():
        raise PreconditionError("real variant requires real coefficients")
    return _family(g, None, check_length, use_abs=True)


# ---------------------------------------------------------------------------
# verification-direction checks
# ---------------------------------------------------------------------------


def verify_same_resultants(
    f: Polynomial, g: Polynomial, length: int, use_abs: bool = False
) -> bool:
    """Exact equality of the (absolute) sequences up to the given length.

    The absolute comparison takes |.| entrywise on exact real values, so it
    is independent of the sign-law route in abs_sequence.
    """
    seq_f = sequence(f, length)
    seq_g = sequence(g, length)
    if not use_abs:
        return seq_f.values == seq_g.values
    for v in seq_f.values + seq_g.values:
        if not v.is_real():
            raise PreconditionError(
                "absolute comparison needs real resultant values"
            )
    return tuple(abs(v.re) for v in seq_f.values) == tuple(
        abs(v.re) for v in seq_g.values
    )


@dataclass(frozen=True)
class ReciprocalVerdict:
    sequences_equal: bool
    polynomials_equal: bool

    @property
    def counterexample(self) -> bool:
        """Equal sequences but distinct reciprocal polynomials: should never
        happen (uniqueness), so a True here flags a real finding."""
        return self.sequences_equal and not self.polynomials_equal

    @property
    def status(self) -> str:
        if self.counterexample:
            return "counterexample"
        return "consistent" if self.sequences_equal else "sequences_differ"


def reciprocal_uniqueness_check(
    f: Polynomial, g: Polynomial, length: int
) -> ReciprocalVerdict:
    """Check the uniqueness of reciprocal polynomials given their sequences."""
    if not f.is_reciprocal() or not g.is_reciprocal():
        raise PreconditionError("both inputs must be reciprocal")
    for p in (f, g):
        if sequence(p, length).has_zero():
            raise ZeroResultantError("zero cyclic resultant in the prefix")
    return ReciprocalVerdict(
        sequences_equal=verify_same_resultants(f, g, length),
        polynomials_equal=f == g,
    )


def root_subset_products(g: Polynomial) -> list[complex]:
    """Products of the numeric roots of g over all 2^d - 1 nonempty subsets
    of the root multiset, d <= SUBSET_SCAN_LIMIT."""
    if g.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    d = g.degree
    if d > SUBSET_SCAN_LIMIT:
        raise DegreeGuardError("root-subset scan is exponential", degree=d)
    products = [1 + 0j]
    for alpha in roots_numeric(g):
        products.extend([p * alpha for p in products])
    return products[1:]


def monic_degenerate(g: Polynomial, tol: float = 1e-8) -> bool:
    """Whether some nonempty subset of g's roots has product within tol of 1.

    This is the degeneracy that breaks monic uniqueness.
    """
    return any(abs(p - 1) <= tol for p in root_subset_products(g))
