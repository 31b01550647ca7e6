"""Group rings of finitely generated abelian groups and binomial products.

Elements of the group Z^rank + Z/m_1 + ... + Z/m_k are integer vectors; the
group ring stores finite formal sums with exact Gaussian-rational
coefficients.  The factorization-matching normal form rewrites each binomial
s^u - s^v as s^u * (1 - s^(v-u)) and matches the difference elements up to
negation; it only applies when every difference has infinite order (nonzero
free part), and the failure mode otherwise is real: over Z/2 one has
(1-s)^2 = 2(1-s) with no trivial-unit match.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import FiniteOrderError, PreconditionError
from .gaussian import GaussianRational


@dataclass(frozen=True)
class FgAbelianGroup:
    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0 or any(m < 2 for m in self.torsion):
            raise ValueError("rank must be >= 0 and torsion moduli >= 2")

    def element(self, free=(), tors=()) -> "GroupElement":
        free = tuple(int(x) for x in free)
        tors = tuple(int(x) for x in tors)
        if len(free) != self.rank or len(tors) != len(self.torsion):
            raise ValueError("component count does not match the group")
        tors = tuple(t % m for t, m in zip(tors, self.torsion))
        return GroupElement(free, tors)

    def from_vector(self, vec) -> "GroupElement":
        """Element from a flat list: free components then torsion residues."""
        vec = list(vec)
        return self.element(vec[: self.rank], vec[self.rank :])

    def identity(self) -> "GroupElement":
        return GroupElement((0,) * self.rank, (0,) * len(self.torsion))

    def add(self, a: "GroupElement", b: "GroupElement") -> "GroupElement":
        return GroupElement(
            tuple(x + y for x, y in zip(a.free, b.free)),
            tuple((x + y) % m for x, y, m in zip(a.tors, b.tors, self.torsion)),
        )

    def neg(self, a: "GroupElement") -> "GroupElement":
        return GroupElement(
            tuple(-x for x in a.free),
            tuple((-x) % m for x, m in zip(a.tors, self.torsion)),
        )

    def sub(self, a: "GroupElement", b: "GroupElement") -> "GroupElement":
        return self.add(a, self.neg(b))

    @staticmethod
    def parse_spec(spec: str) -> "FgAbelianGroup":
        """Parse "rank=N;torsion=m1,m2,..." (torsion part may be empty)."""
        rank = 0
        torsion: tuple[int, ...] = ()
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, _, value = chunk.partition("=")
            if key == "rank":
                rank = int(value)
            elif key == "torsion":
                torsion = tuple(int(v) for v in value.split(",") if v.strip())
            else:
                raise ValueError(f"unknown group spec field {key!r}")
        return FgAbelianGroup(rank, torsion)


@dataclass(frozen=True)
class GroupElement:
    free: tuple[int, ...]
    tors: tuple[int, ...]

    def as_vector(self) -> list[int]:
        return list(self.free) + list(self.tors)

    def __str__(self) -> str:
        return str(self.as_vector())


def infinite_order(group: FgAbelianGroup, g: GroupElement) -> bool:
    """True iff g generates an infinite subgroup (nonzero free part)."""
    return any(g.free)


class GroupRingElement:
    """Finite formal sum of group elements with Gaussian-rational coefficients."""

    __slots__ = ("group", "terms")

    def __init__(self, group: FgAbelianGroup, terms: dict | None = None):
        self.group = group
        self.terms: dict[GroupElement, GaussianRational] = {}
        if terms:
            for elt, coeff in terms.items():
                c = GaussianRational.of(coeff)
                if not c.is_zero():
                    self.terms[elt] = c

    @staticmethod
    def monomial(group, coeff, elt: GroupElement) -> "GroupRingElement":
        return GroupRingElement(group, {elt: coeff})

    @staticmethod
    def scalar(group, coeff) -> "GroupRingElement":
        return GroupRingElement(group, {group.identity(): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = dict(self.terms)
        for elt, c in other.terms.items():
            out[elt] = out.get(elt, GaussianRational(0)) + c
        return GroupRingElement(self.group, out)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = dict(self.terms)
        for elt, c in other.terms.items():
            out[elt] = out.get(elt, GaussianRational(0)) - c
        return GroupRingElement(self.group, out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.group, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        out: dict[GroupElement, GaussianRational] = {}
        add = self.group.add
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = add(e1, e2)
                acc = out.get(e)
                out[e] = c1 * c2 if acc is None else acc + c1 * c2
        return GroupRingElement(self.group, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.group == other.group and self.terms == other.terms

    def __hash__(self):
        return hash((self.group, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for elt in sorted(self.terms, key=lambda e: e.as_vector()):
            bits.append(f"{self.terms[elt]}*s{elt}")
        return " + ".join(bits)


def general_binomial_equal(x: GroupRingElement, y: GroupRingElement) -> bool:
    """Exact equality of expansions; the oracle for products the normal form
    does not cover (non-unit coefficients, finite-order differences)."""
    return x == y


@dataclass(frozen=True)
class BinomialProduct:
    """unit_coeff * s^unit_elt * prod (s^u_i - s^v_i)."""

    group: FgAbelianGroup
    unit_coeff: GaussianRational
    unit_elt: GroupElement
    factors: tuple[tuple[GroupElement, GroupElement], ...]

    def __post_init__(self):
        if GaussianRational.of(self.unit_coeff).is_zero():
            raise ValueError("trivial unit coefficient must be nonzero")

    def expand(self) -> GroupRingElement:
        acc = GroupRingElement.monomial(self.group, self.unit_coeff, self.unit_elt)
        for u, v in self.factors:
            binom = GroupRingElement(
                self.group, {u: GaussianRational(1)}
            ) - GroupRingElement(self.group, {v: GaussianRational(1)})
            acc = acc * binom
        return acc

    def differences(self) -> list[GroupElement]:
        """Normalized difference v_i - u_i for each factor (s^u(1 - s^(v-u)))."""
        return [self.group.sub(v, u) for u, v in self.factors]

    def to_json(self) -> dict:
        return {
            "unit": {
                "coeff": GaussianRational.of(self.unit_coeff).to_quad(),
                "elt": self.unit_elt.as_vector(),
            },
            "factors": [
                [list(u.as_vector()), list(v.as_vector())] for u, v in self.factors
            ],
        }

    @staticmethod
    def from_json(group: FgAbelianGroup, data: dict) -> "BinomialProduct":
        unit = data.get("unit") if isinstance(data, dict) else None
        if not (isinstance(unit, dict) and {"coeff", "elt"} <= unit.keys() and "factors" in data):
            raise ValueError('product JSON needs "factors" and a "unit" with "coeff" and "elt"')
        return BinomialProduct(
            group=group,
            unit_coeff=GaussianRational.from_quad(unit["coeff"]),
            unit_elt=group.from_vector(unit["elt"]),
            factors=tuple(
                (group.from_vector(u), group.from_vector(v))
                for u, v in data["factors"]
            ),
        )


def separating_hom(group: FgAbelianGroup, elements) -> tuple[int, ...]:
    """Integer homomorphism (dot product on the free part) nonzero on every
    given element.

    Tries the Vandermonde-style vectors (1, h, h^2, ...) for h = 1, 2, 3, ...;
    each failing h is a root of one of finitely many nonzero polynomials, so
    the loop terminates.
    """
    elements = list(elements)
    for i, g in enumerate(elements):
        if not infinite_order(group, g):
            raise FiniteOrderError(
                "element has finite order, no separating homomorphism exists",
                index=i,
                element=g.as_vector(),
            )
    n = group.rank
    h = 1
    while True:
        phi = tuple(h**j for j in range(n))
        if all(sum(p * x for p, x in zip(phi, g.free)) != 0 for g in elements):
            return phi
        h += 1


def phi_degree(phi, g: GroupElement) -> int:
    return sum(p * x for p, x in zip(phi, g.free))


def laurent_embed(x: GroupRingElement, phi) -> dict[int, GroupRingElement]:
    """Grade x by phi-degree; the pieces sum back to x (an embedding into the
    Laurent extension, keyed by the exponent of the auxiliary variable)."""
    out: dict[int, GroupRingElement] = {}
    for elt, coeff in x.terms.items():
        deg = phi_degree(phi, elt)
        piece = out.get(deg)
        if piece is None:
            out[deg] = GroupRingElement.monomial(x.group, coeff, elt)
        else:
            out[deg] = piece + GroupRingElement.monomial(x.group, coeff, elt)
    return out


@dataclass(frozen=True)
class FactorizationMatch:
    """Witness that two binomial products are equal.

    permutation[i] is the right-hand factor matched to left factor i;
    orientations[i] is +1 when the normalized differences agree and -1 when
    they are negatives of each other.  eta is the trivial unit relating the
    two normalized products: prod(1 - s^g_i) = eta * prod(1 - s^h_j).
    shifts[i] = (c_i, d_i) satisfy s^c_i (s^u_i - s^v_i) =
    sign_i * s^d_i (s^x_j - s^y_j) factor by factor.
    """

    p: int
    permutation: tuple[int, ...]
    orientations: tuple[int, ...]
    eta_coeff: int
    eta_elt: GroupElement
    shifts: tuple[tuple[GroupElement, GroupElement], ...]

    def to_json(self) -> dict:
        return {
            "match": True,
            "p": self.p,
            "permutation": list(self.permutation),
            "orientations": list(self.orientations),
            "eta": {"coeff": self.eta_coeff, "elt": self.eta_elt.as_vector()},
            "shifts": [
                [c.as_vector(), d.as_vector()] for c, d in self.shifts
            ],
        }


def _check_infinite_differences(product: BinomialProduct, side: str):
    for i, g in enumerate(product.differences()):
        if not infinite_order(product.group, g):
            raise FiniteOrderError(
                "factor difference has finite order; the normal form does not "
                "apply (compare (1-s)^2 = 2(1-s) over Z/2)",
                side=side,
                factor=i,
                difference=g.as_vector(),
            )


def _class_key(group: FgAbelianGroup, g: GroupElement) -> tuple:
    neg = group.neg(g)
    return max(tuple(g.as_vector()), tuple(neg.as_vector()))


def match_factorizations(
    p1: BinomialProduct, p2: BinomialProduct
) -> FactorizationMatch | None:
    """Match two binomial products up to permutation, negation and a trivial
    unit; None means provably unequal.

    Every normalized difference must have infinite order (typed error
    otherwise).  Differences are grouped into {g, -g} classes; within a class
    same-element pairs are matched greedily and the remainder is flipped,
    which leaves the resulting unit independent of the pairing.  The derived
    trivial-unit identity is then checked, and finally the full expansions
    are compared exactly as a safety net.
    """
    if p1.group != p2.group:
        raise PreconditionError("products live in different groups")
    group = p1.group
    _check_infinite_differences(p1, "left")
    _check_infinite_differences(p2, "right")
    if len(p1.factors) != len(p2.factors):
        return None
    e = len(p1.factors)
    diffs1 = p1.differences()
    diffs2 = p2.differences()

    classes1: dict[tuple, list[int]] = {}
    classes2: dict[tuple, list[int]] = {}
    for i, g in enumerate(diffs1):
        classes1.setdefault(_class_key(group, g), []).append(i)
    for j, h in enumerate(diffs2):
        classes2.setdefault(_class_key(group, h), []).append(j)
    if set(classes1) != set(classes2):
        return None

    permutation: list[int | None] = [None] * e
    orientations: list[int] = [0] * e
    for key, left in classes1.items():
        right = classes2[key]
        if len(left) != len(right):
            return None
        left_plus = [i for i in left if tuple(diffs1[i].as_vector()) == key]
        left_minus = [i for i in left if tuple(diffs1[i].as_vector()) != key]
        right_plus = [j for j in right if tuple(diffs2[j].as_vector()) == key]
        right_minus = [j for j in right if tuple(diffs2[j].as_vector()) != key]
        t = min(len(left_plus), len(right_plus))
        s = min(len(left_minus), len(right_minus))
        for i, j in zip(left_plus[:t], right_plus[:t]):
            permutation[i], orientations[i] = j, 1
        for i, j in zip(left_minus[:s], right_minus[:s]):
            permutation[i], orientations[i] = j, 1
        for i, j in zip(left_plus[t:], right_minus[s:]):
            permutation[i], orientations[i] = j, -1
        for i, j in zip(left_minus[s:], right_plus[t:]):
            permutation[i], orientations[i] = j, -1

    flipped = [i for i in range(e) if orientations[i] == -1]
    eta_coeff = -1 if len(flipped) % 2 else 1
    eta_elt = group.identity()
    for i in flipped:
        eta_elt = group.add(eta_elt, diffs1[i])

    # trivial-unit identity: alpha1 * s^(b1 + sum u_i) * eta = alpha2 * s^(b2 + sum x_j)
    c1 = p1.unit_elt
    for u, _ in p1.factors:
        c1 = group.add(c1, u)
    c2 = p2.unit_elt
    for x, _ in p2.factors:
        c2 = group.add(c2, x)
    coeff1 = GaussianRational.of(p1.unit_coeff) * eta_coeff
    if coeff1 != GaussianRational.of(p2.unit_coeff):
        return None
    if group.add(c1, eta_elt) != c2:
        return None

    if p1.expand() != p2.expand():
        return None

    shifts = []
    for i in range(e):
        j = permutation[i]
        c_i = p2.factors[j][0]
        d_i = p1.factors[i][0] if orientations[i] == 1 else p1.factors[i][1]
        shifts.append((c_i, d_i))
    return FactorizationMatch(
        p=e - len(flipped),
        permutation=tuple(permutation),
        orientations=tuple(orientations),
        eta_coeff=eta_coeff,
        eta_elt=eta_elt,
        shifts=tuple(shifts),
    )
