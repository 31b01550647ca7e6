"""Shared randomized-construction helpers for the suite."""
import os
import pathlib
import random

from cycres.gaussian import GaussianRational as G
from cycres.groupring import BinomialProduct, FgAbelianGroup
from cycres.polycore import Polynomial, has_root_of_unity, try_exact_roots

# The CLI tests also run `python -m cycres.cli` in a child process, which does
# not see pytest's `pythonpath` setting, so the source tree goes on its path.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def random_poly_without_unity(rng, max_degree, lo=-9, hi=9, monic=False):
    while True:
        d = rng.randint(1, max_degree)
        coeffs = [rng.randint(lo, hi) for _ in range(d)]
        coeffs.append(1 if monic else rng.choice([c for c in range(lo, hi + 1) if c]))
        p = Polynomial(coeffs)
        if p.degree >= 1 and not has_root_of_unity(p):
            return p


def exact_subset_products(g):
    """All 2^d - 1 nonempty subset products of the roots of g, a multiset,
    as exact Gaussian rationals; g must split over them."""
    zeros, h = g.strip_zero_roots()
    roots = try_exact_roots(h) if h.degree else []
    assert roots is not None and len(roots) == h.degree, g
    products = [G(1)]
    for r in roots + [G(0)] * zeros:
        products += [p * r for p in products]
    return products[1:]


def random_group_element(rng, group, nonzero_free=True):
    while True:
        vec = [rng.randint(-3, 3) for _ in range(group.rank)] + [
            rng.randint(0, m - 1) for m in group.torsion
        ]
        e = group.from_vector(vec)
        if not nonzero_free or any(e.free):
            return e


def random_equal_product_pair(rng, group, max_factors=4):
    """Two binomial products equal by construction: random permutation,
    per-factor shifts, and orientation flips compensated in the unit."""
    e = rng.randint(1, max_factors)
    factors = []
    for _ in range(e):
        u = random_group_element(rng, group, nonzero_free=False)
        diff = random_group_element(rng, group)
        factors.append((u, group.add(u, diff)))
    unit_elt = random_group_element(rng, group, nonzero_free=False)
    coeff = G(rng.choice([1, -1, 2, -3]))
    p1 = BinomialProduct(group, coeff, unit_elt, tuple(factors))

    order = list(range(e))
    rng.shuffle(order)
    new_factors = []
    swaps = 0
    total_shift = group.identity()
    for i in order:
        u, v = factors[i]
        shift = random_group_element(rng, group, nonzero_free=False)
        total_shift = group.add(total_shift, shift)
        if rng.random() < 0.5:
            new_factors.append((group.add(u, shift), group.add(v, shift)))
        else:
            swaps += 1
            new_factors.append((group.add(v, shift), group.add(u, shift)))
    p2 = BinomialProduct(
        group,
        coeff * (-1 if swaps % 2 else 1),
        group.sub(unit_elt, total_shift),
        tuple(new_factors),
    )
    return p1, p2


def random_product(rng, group, max_factors=4):
    e = rng.randint(1, max_factors)
    factors = []
    for _ in range(e):
        u = random_group_element(rng, group, nonzero_free=False)
        diff = random_group_element(rng, group)
        factors.append((u, group.add(u, diff)))
    return BinomialProduct(
        group,
        G(rng.choice([1, -1, 2])),
        random_group_element(rng, group, nonzero_free=False),
        tuple(factors),
    )
