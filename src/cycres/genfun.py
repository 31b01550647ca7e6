"""Rational generating functions attached to a cyclic-resultant sequence.

For f of degree d with leading coefficient a and roots alpha_i, the factor
stack root_subset_factor(f, k) collects (1 - a * alpha_{i_1}...alpha_{i_k} * z)
over all k-element index subsets (k = 0 gives the single factor 1 - a z).
The alternating quotient of these stacks is a rational function whose
logarithmic derivative generates the cyclic resultants:

    exp(-sum_m r_m z^m / m) = product over k = d, d-2, ... / k = d-1, d-3, ...

Everything here is float-valued (roots are irrational in general); the
exponential series itself is computed in exact arithmetic first and converted
at the end, so the identity tests carry no avoidable drift.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    ClusterAmbiguityError,
    PreconditionError,
    RootOfUnityError,
    ZeroPolynomialError,
)
from .gaussian import GaussianRational, gaussian_factorization
from .groupring import BinomialProduct, FgAbelianGroup, GroupElement
from .polycore import Polynomial, has_root_of_unity, nonzero_roots, roots_numeric
from .resultants import ResultantSequence, sign_data

CLUSTER_TOL = 1e-7


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series; coeffs[n] is the z^n coefficient."""

    coeffs: tuple[complex, ...]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> complex:
        return self.coeffs[n]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RationalFunctionRep:
    """Product of linear factors (1 - c z) over those in the denominator.

    scalar multiplies the whole thing; exponent -1 means the reciprocal of
    the displayed quotient is intended (used by the absolute-value variant).
    Factors are never cancelled between numerator and denominator, so the
    k-subset structure stays inspectable.
    """

    num_factors: tuple[complex, ...]
    den_factors: tuple[complex, ...] = ()
    scalar: complex = 1.0 + 0j
    exponent: int = 1

    def to_json(self) -> dict:
        return {
            "num_factors": [[c.real, c.imag] for c in self.num_factors],
            "den_factors": [[c.real, c.imag] for c in self.den_factors],
            "scalar": [complex(self.scalar).real, complex(self.scalar).imag],
            "exponent": self.exponent,
        }


def root_subset_factor(f: Polynomial, k: int) -> RationalFunctionRep:
    """Factor stack over k-subsets of the root multiset (numerator only)."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    d = f.degree
    if not 0 <= k <= d:
        raise ValueError(f"subset size {k} outside 0..{d}")
    lead = complex(f.leading)
    roots = roots_numeric(f)
    factors = []
    for subset in itertools.combinations(range(d), k):
        c = lead
        for i in subset:
            c *= roots[i]
        factors.append(c)
    return RationalFunctionRep(num_factors=tuple(factors))


def generating_function(f: Polynomial) -> RationalFunctionRep:
    """Alternating quotient of the k-subset factor stacks.

    Numerator takes k congruent to d mod 2 (k = d, d-2, ...), denominator the
    rest.  Rejects polynomials with a root of unity, where a zero and a pole
    would collide.
    """
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    if has_root_of_unity(f):
        raise RootOfUnityError("root of unity makes a zero/pole collision")
    d = f.degree
    num: list[complex] = []
    den: list[complex] = []
    for k in range(d, -1, -1):
        stack = root_subset_factor(f, k).num_factors
        if (d - k) % 2 == 0:
            num.extend(stack)
        else:
            den.extend(stack)
    return RationalFunctionRep(num_factors=tuple(num), den_factors=tuple(den))


def abs_generating_function(f: Polynomial) -> RationalFunctionRep:
    """Variant generating exp(-sum |r_m| z^m / m) for real f.

    Build the flipped polynomial alt_sign * f, take its generating function,
    and tag the result with exponent base_sign; the absolute-value series
    equals that function raised to the tagged exponent.
    """
    data = sign_data(f)
    flipped = f if data.alt_sign == 1 else -f
    rep = generating_function(flipped)
    return RationalFunctionRep(
        num_factors=rep.num_factors,
        den_factors=rep.den_factors,
        scalar=rep.scalar,
        exponent=data.base_sign,
    )


# ---------------------------------------------------------------------------
# series arithmetic
# ---------------------------------------------------------------------------


def exp_neg_weighted_series_exact(values, order: int) -> list[GaussianRational]:
    """Exact coefficients of exp(-sum_{m>=1} values[m-1] z^m / m).

    Recurrence: n * b_n = sum_{k=1..n} (-r_k) b_{n-k}, b_0 = 1.
    """
    b = [GaussianRational(1)]
    for n in range(1, order + 1):
        acc = GaussianRational(0)
        for k in range(1, n + 1):
            acc = acc + (-GaussianRational.of(values[k - 1])) * b[n - k]
        b.append(acc / n)
    return b


def exp_series(seq: ResultantSequence, order: int) -> PowerSeries:
    """Truncated series of exp(-sum r_m z^m / m) from an exact sequence."""
    if len(seq) < order:
        raise PreconditionError(
            "sequence too short for requested order",
            have=len(seq),
            need=order,
        )
    exact = exp_neg_weighted_series_exact(seq.values, order)
    return PowerSeries(tuple(complex(b) for b in exact))


def series_of(rf: RationalFunctionRep, order: int) -> PowerSeries:
    """Expand the factor product to the given order by convolution.

    Numerator factors multiply in; each denominator factor (1 - c z) divides
    by the recurrence s_n = b_n + c * s_{n-1}.  exponent -1 swaps the roles.
    """
    num = rf.num_factors
    den = rf.den_factors
    if rf.exponent == -1:
        num, den = den, num
    coeffs = [0j] * (order + 1)
    coeffs[0] = complex(rf.scalar) if rf.exponent == 1 else 1 / complex(rf.scalar)
    for c in num:
        prev = 0j
        for n in range(order + 1):
            coeffs[n], prev = coeffs[n] - c * prev, coeffs[n]
    for c in den:
        for n in range(1, order + 1):
            coeffs[n] = coeffs[n] + c * coeffs[n - 1]
    return PowerSeries(tuple(coeffs))


def log_deriv_coefficients(rf: RationalFunctionRep, order: int) -> list[complex]:
    """Coefficients of -z * d/dz log(rf) for m = 1..order: power sums of the
    factor constants, numerator minus denominator, times the exponent."""
    out = []
    for m in range(1, order + 1):
        value = sum(c**m for c in rf.num_factors) - sum(
            c**m for c in rf.den_factors
        )
        out.append(rf.exponent * value)
    return out


# ---------------------------------------------------------------------------
# divisor of the generating function as a group-ring binomial product
# ---------------------------------------------------------------------------


class DivisorContext:
    """Encodes nonzero values as elements of one abelian group.

    Exact values are factored over the Gaussian integers: the group has one
    free generator per canonical Gaussian prime seen plus a Z/4 component for
    the unit i^k, so every multiplicative relation among exact values (root
    products forming leading coefficients, inverses, signs) is represented
    faithfully.  Other values, and exact values whose norms resist trial
    division, get one free generator per cluster of numerically equal values
    (tolerance 1e-7); exact inverses share a cluster generator with opposite
    exponent, but no further cluster relations are detected.  Two exactly
    distinct values inside one cluster tolerance raise a cluster-ambiguity
    error rather than guessing.
    """

    def __init__(self):
        self._primes: list[tuple[int, int]] = []
        self._prime_index: dict[tuple[int, int], int] = {}
        self._factored: dict[GaussianRational, tuple[int, dict[int, int]]] = {}
        self._clusters: list[tuple[object, complex]] = []  # (exact-or-None, approx)
        self._entries: list[tuple[str, object]] = []

    # -- registration --------------------------------------------------

    def register(self, value) -> int:
        """Register a nonzero value, returning an opaque entry index."""
        if isinstance(value, GaussianRational):
            if value.is_zero():
                raise ValueError("cannot encode zero")
            if value in self._factored or self._try_factor(value):
                self._entries.append(("exact", value))
            else:
                idx, orientation = self._cluster_exact(value)
                self._entries.append(("cluster", (idx, orientation)))
        else:
            z = complex(value)
            idx = self._cluster_float(z)
            self._entries.append(("cluster", (idx, 1)))
        return len(self._entries) - 1

    def _try_factor(self, value: GaussianRational) -> bool:
        factored = gaussian_factorization(value)
        if factored is None:
            return False
        unit, exps = factored
        by_index: dict[int, int] = {}
        for prime, e in exps.items():
            if prime not in self._prime_index:
                self._prime_index[prime] = len(self._primes)
                self._primes.append(prime)
            by_index[self._prime_index[prime]] = e
        self._factored[value] = (unit, by_index)
        return True

    def _cluster_exact(self, value: GaussianRational) -> tuple[int, int]:
        inverse = GaussianRational(1) / value
        approx = complex(value)
        for idx, (exact, rep) in enumerate(self._clusters):
            if exact is not None:
                if value == exact:
                    return idx, 1
                if inverse == exact:
                    return idx, -1
            if abs(approx - rep) <= CLUSTER_TOL:
                if exact is not None and value != exact:
                    raise ClusterAmbiguityError(
                        "exactly distinct values inside cluster tolerance",
                        value=str(value),
                        existing=str(exact),
                    )
                return idx, 1
        self._clusters.append((value, approx))
        return len(self._clusters) - 1, 1

    def _cluster_float(self, z: complex) -> int:
        for idx, (exact, rep) in enumerate(self._clusters):
            if abs(z - rep) <= CLUSTER_TOL:
                return idx
        self._clusters.append((None, z))
        return len(self._clusters) - 1

    # -- group construction ---------------------------------------------

    def group(self) -> FgAbelianGroup:
        rank = len(self._primes) + len(self._clusters)
        torsion = (4,) if self._factored else ()
        return FgAbelianGroup(rank, torsion)

    def encode(self, entry: int, power: int = 1) -> GroupElement:
        """Element for value^power in the finished group."""
        group = self.group()
        nprimes = len(self._primes)
        free = [0] * group.rank
        tors = [0] * len(group.torsion)
        kind, payload = self._entries[entry]
        if kind == "exact":
            unit, exps = self._factored[payload]
            for pidx, e in exps.items():
                free[pidx] = e * power
            if tors:
                tors[0] = unit * power
        else:
            idx, orientation = payload
            free[nprimes + idx] = orientation * power
        return group.element(free, tors)

    def generator_values(self) -> list[str]:
        """Human-readable generator labels (Gaussian primes, then clusters)."""
        labels = []
        for x, y in self._primes:
            labels.append(str(x) if y == 0 else f"{x}+{y}i")
        for exact, rep in self._clusters:
            labels.append(str(exact) if exact is not None else repr(rep))
        return labels


def divisor(f: Polynomial, context: DivisorContext | None = None) -> BinomialProduct:
    """Divisor of the resultant generating function as a binomial product.

    For f = x^l h with h of degree d, lead a and nonzero roots alpha_i, this
    is (-1)^l [a^-1] prod ([alpha_i^-1] - [1]): the zeros and poles of the
    generating function recorded multiplicatively.  Pass a shared context to
    obtain comparable products for several polynomials (see divisor_pair).
    """
    ctx = context if context is not None else DivisorContext()
    entries = _register_divisor_values(ctx, f)
    return _encode_divisor(ctx, *entries)


def divisor_pair(
    f: Polynomial, g: Polynomial
) -> tuple[BinomialProduct, BinomialProduct]:
    """Divisors of f and g over one shared group, ready for matching."""
    ctx = DivisorContext()
    ef = _register_divisor_values(ctx, f)
    eg = _register_divisor_values(ctx, g)
    return _encode_divisor(ctx, *ef), _encode_divisor(ctx, *eg)


def _register_divisor_values(ctx: DivisorContext, f: Polynomial):
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    if has_root_of_unity(f):
        raise RootOfUnityError("divisor undefined with a root of unity")
    l, h, roots, _ = nonzero_roots(f)
    lead_entry = ctx.register(h.leading)
    root_entries = [ctx.register(r) for r in roots]
    return l, lead_entry, root_entries


def _encode_divisor(ctx: DivisorContext, l: int, lead_entry: int, root_entries):
    group = ctx.group()
    unit_coeff = GaussianRational(-1 if l % 2 else 1)
    unit_elt = ctx.encode(lead_entry, -1)
    identity = group.identity()
    factors = tuple(
        (ctx.encode(entry, -1), identity) for entry in root_entries
    )
    return BinomialProduct(
        group=group, unit_coeff=unit_coeff, unit_elt=unit_elt, factors=factors
    )
