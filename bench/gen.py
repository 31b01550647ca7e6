"""Seeded request streams for the three workloads.

A workload is a list of templates.  One pass builds one request per template
with fresh random inputs; the stream is pass after pass, each pass shuffled.
Degrees, prefix lengths, root sizes and request kinds are fixed by the
templates, so seeds change only signs, orders and which factors are
non-monic, and every run sees the same mix.  Every input is built from known
factors, so the oracles in oracles.py know the exact answer without asking
the program.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from oracles import (
    cyclic_from_factors,
    cyclic_from_quadratics,
    format_poly,
    poly_from_factors,
    poly_from_quadratics,
)

DEADLINE_S = 10.0
# The general (non-monic) cubic goes to Groebner with four unknowns; the
# monic cubic answers there in about 0.2 s, so 1 s is five times that.
GENERAL_CUBIC_DEADLINE_S = 1.0

# Root sizes set the size of every exact number, so they are fixed by the
# degree, and the seed picks signs, orders and which factors are non-monic:
# runs with different seeds then cost nearly the same.
INT_MAGNITUDES = (2, 3, 4, 5, 6)
GAUSS_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))  # (|re|, |im|)


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: dict
    props: dict
    deadline_s: float = DEADLINE_S
    # failure kinds that are known defects of the program, not wrong answers
    tolerate: tuple[str, ...] = ()
    ident: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# input builders
# ---------------------------------------------------------------------------


def _sign(rng) -> int:
    return rng.choice((1, -1))


def _int_roots(rng, d: int, magnitudes=INT_MAGNITUDES) -> list[int]:
    """d distinct integer roots: magnitudes taken in order from `magnitudes`,
    a second use of a magnitude with the opposite sign."""
    roots: list[int] = []
    for i in range(d):
        k = len(magnitudes)
        roots.append(_sign(rng) * magnitudes[i] if i < k else -roots[i - k])
    return roots


def _int_factors(rng, d: int, cls: str):
    """d linear factors (b, a) = b*x - a with distinct integer roots;
    "int-nonmonic" turns the smallest one or two into a/b = 5/2 or 7/3."""
    factors = [((1, 0), (a, 0)) for a in _int_roots(rng, d)]
    if cls == "int-nonmonic":
        for i, b in enumerate(rng.sample((2, 3), 1 if d < 5 else 2)):
            factors[i] = ((b, 0), (_sign(rng) * (2 * b + 1), 0))
    rng.shuffle(factors)
    return factors


def _gauss_factors(rng, d: int):
    return [((1, 0), (_sign(rng) * p, _sign(rng) * q)) for p, q in GAUSS_SHAPES[:d]]


def _factors(rng, d: int, cls: str):
    if cls == "gaussian":
        return _gauss_factors(rng, d)
    return _int_factors(rng, d, cls)


def _values_arg(values) -> str:
    return "--values=" + ",".join(str(v[0]) for v in values)


def _req(kind, argv, check, degree, cls, prefix, route, **kw) -> Request:
    props = {"degree": degree, "coeff_class": cls, "prefix_len": prefix, "route": route}
    return Request(kind, argv, check, props, **kw)


def build_seq(rng, ctx, d, n, cls, use_abs=False):
    factors = _factors(rng, d, cls)
    poly = format_poly(poly_from_factors(factors))
    argv = ["seq", "--poly", poly, "--n", str(n)] + (["--abs"] if use_abs else [])
    check = {"type": "seq", "factors": factors, "n": n, "abs": use_abs}
    route = "seq-gaussian" if cls == "gaussian" else ("seq-abs" if use_abs else "seq-int")
    return _req("seq-abs" if use_abs else "seq", argv, check, d, cls, n, route)


def _upper_triangular(rng, eigs):
    n = len(eigs)
    return [
        [eigs[i] if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
        for i in range(n)
    ]


def _conjugate_unimodular(rng, mat, steps: int):
    """E A E^-1 for random elementary E = I + c e_ij: same characteristic
    polynomial, dense integer entries."""
    n = len(mat)
    a = [row[:] for row in mat]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = _sign(rng)
        for k in range(n):  # row_i += c * row_j
            a[i][k] += c * a[j][k]
        for k in range(n):  # col_j -= c * col_i
            a[k][j] -= c * a[k][i]
    return a


def build_zeta(rng, ctx, d, n):
    eigs = _int_roots(rng, d, magnitudes=(2, 3, 4))
    rng.shuffle(eigs)
    mat = _conjugate_unimodular(rng, _upper_triangular(rng, eigs), 2 * d)
    path = ctx.write_matrix(mat)
    factors = [((1, 0), (a, 0)) for a in eigs]
    check = {"type": "zeta", "factors": factors, "n": n}
    return _req("zeta", ["zeta", "--matrix", path, "--order", str(n)], check, d, "int-monic",
                n, "zeta")


def build_zeta_nonergodic(rng, ctx):
    path = ctx.write_matrix([[0, -1], [1, 0]])
    check = {"type": "domain_error", "code": "precondition"}
    return _req("zeta-domain", ["zeta", "--matrix", path, "--order", "4"], check, 2,
                "int-monic", 4, "domain-error")


def build_equiv(rng, ctx, d, cls):
    factors = _factors(rng, d, cls)
    poly = format_poly(poly_from_factors(factors))
    check = {"type": "equiv", "factors": factors}
    return _req("equiv", ["equiv", "--poly", poly], check, d, cls, 10, "equiv-exact")


def build_equiv_numeric(rng, ctx, coeffs):
    """A fixed monic integer quartic with no rational root (so it does not
    split and the numeric path runs) whose constant term outweighs the other
    coefficients (so every root lies outside the unit circle).  Fixed, not
    seeded: the numeric path's cost moves by up to a third between sign
    patterns, and these requests hold family's 90th percentile."""
    poly = format_poly([(c, 0) for c in coeffs])
    check = {"type": "equiv_numeric", "coeffs": list(coeffs)}
    return _req("equiv-numeric", ["equiv", "--poly", poly], check, len(coeffs) - 1,
                "int-monic", 10, "equiv-numeric")


def build_equiv_real(rng, ctx, d, cls):
    factors = _int_factors(rng, d, cls)
    poly = format_poly(poly_from_factors(factors))
    check = {"type": "equiv_real", "factors": factors}
    return _req("equiv-real", ["equiv", "--poly", poly, "--real"], check, d, cls, 10,
                "equiv-real")


def build_equiv_unity(rng, ctx, d):
    factors = _int_factors(rng, d - 1, "int-monic") + [((1, 0), (-1, 0))]
    poly = format_poly(poly_from_factors(factors))
    check = {"type": "domain_error", "code": "root_of_unity"}
    return _req("equiv-domain", ["equiv", "--poly", poly], check, d, "int-monic", 10,
                "domain-error")


def build_genfun(rng, ctx, d, cls, use_abs=False, order=None):
    factors = _int_factors(rng, d, cls)
    poly = format_poly(poly_from_factors(factors))
    argv = ["genfun", "--poly", poly]
    if use_abs:
        argv.append("--abs")
    if order is not None:
        argv += ["--order", str(order)]
    check = {"type": "genfun", "factors": factors, "abs": use_abs, "order": order}
    route = "genfun-abs" if use_abs else "genfun"
    return _req("genfun", argv, check, d, cls, order or 0, route)


def build_genfun_negative_order(rng, ctx):
    factors = _int_factors(rng, 2, "int-monic")
    argv = ["genfun", "--poly", format_poly(poly_from_factors(factors)), "--order", "-1"]
    return _req("genfun-malformed", argv, {"type": "malformed"}, 2, "int-monic", 0,
                "malformed", tolerate=("exception",))


GROUPS = ("rank=1;torsion=", "rank=2;torsion=", "rank=2;torsion=3")


def _group_shape(spec: str):
    rank = int(spec.split(";")[0].split("=")[1])
    tors = spec.split("torsion=")[1]
    return rank, tuple(int(t) for t in tors.split(",") if t)


def _element(rng, rank, tors, nonzero_free):
    while True:
        free = [rng.randint(-3, 3) for _ in range(rank)]
        if not nonzero_free or any(free):
            return free + [rng.randint(0, m - 1) for m in tors]


def _add(rank, tors, u, v):
    return [
        x + y if k < rank else (x + y) % tors[k - rank]
        for k, (x, y) in enumerate(zip(u, v))
    ]


def _neg(rank, tors, u):
    return [-x if k < rank else (-x) % tors[k - rank] for k, x in enumerate(u)]


def _product_json(coeff, elt, factors):
    return {"unit": {"coeff": [str(coeff), "1", "0", "1"], "elt": elt}, "factors": factors}


def build_grcheck(rng, ctx, e, equal):
    """Two binomial products, equal by construction (permuted, shifted and
    re-oriented factors with the sign and shift moved into the unit) or made
    unequal by changing one factor's difference."""
    spec = rng.choice(GROUPS)
    rank, tors = _group_shape(spec)
    factors = []
    for _ in range(e):
        u = _element(rng, rank, tors, False)
        factors.append([u, _add(rank, tors, u, _element(rng, rank, tors, True))])
    coeff = rng.choice((1, -1, 2, -3))
    unit = _element(rng, rank, tors, False)
    right = []
    shift_total = [0] * len(unit)
    swaps = 0
    for i in rng.sample(range(e), e):
        u, v = factors[i]
        shift = _element(rng, rank, tors, False)
        shift_total = _add(rank, tors, shift_total, shift)
        pair = [_add(rank, tors, u, shift), _add(rank, tors, v, shift)]
        if rng.random() < 0.5:
            pair.reverse()
            swaps += 1
        right.append(pair)
    while not equal:
        # change one difference, keeping it of infinite order
        u, v = right[0]
        v = _add(rank, tors, v, _element(rng, rank, tors, True))
        if any(a != b for a, b in zip(u[:rank], v[:rank])):
            right[0][1] = v
            break
    left_json = _product_json(coeff, unit, factors)
    right_json = _product_json(
        -coeff if swaps % 2 else coeff,
        _add(rank, tors, unit, _neg(rank, tors, shift_total)),
        right,
    )
    argv = [
        "grcheck", "--group", spec,
        "--left", json.dumps(left_json), "--right", json.dumps(right_json),
    ]
    check = {"type": "grcheck", "rank": rank, "tors": tors, "left": left_json,
             "right": right_json}
    return _req("grcheck", argv, check, e, "group-ring", 0, "grcheck")


def build_grcheck_malformed(rng, ctx):
    argv = ["grcheck", "--group", "rank=1;torsion=", "--left", "{}", "--right", "{}"]
    return _req("grcheck-malformed", argv, {"type": "malformed"}, 0, "group-ring", 0,
                "malformed", tolerate=("exception",))


def _rec_argv(d, values, *flags):
    return ["reconstruct", "--degree", str(d), *flags, _values_arg(values)]


def build_rec(rng, ctx, d, cls, nvalues, flags=(), route="", deadline_s=DEADLINE_S,
              tolerate=()):
    factors = _int_factors(rng, d, cls)
    values = cyclic_from_factors(factors, nvalues)
    check = {"type": "reconstruct", "factors": factors, "values": values,
             "abs": False}
    return _req("reconstruct-" + route, _rec_argv(d, values, *flags), check, d, cls,
                nvalues, route, deadline_s=deadline_s, tolerate=tolerate)


# Newton's starts are seeded by the program, so whether a monic integer
# input converges with the default 16 restarts is fixed by the input.  These
# root sets (sign patterns of the usual magnitudes) converge at the seed
# commit, so the route is measured on answers; a decline on any of them is a
# failure.  Degrees 5 and 6 take one root set each, since their cost moves by
# 2x between sign patterns and they hold reconstruct's 90th percentile.
# NEWTON_DECLINES do not converge at the seed: a known defect, kept in every
# pass so it stays visible in fail_ratio.
NEWTON_CONVERGES = {
    4: ((2, 3, -4, 5), (-2, -3, 4, 5), (2, -3, -4, -5), (-2, 3, -4, -5)),
    5: ((2, -3, 4, -5, 6),),
    6: ((2, -2, -3, 4, -5, 6),),
}
NEWTON_DECLINES = ((2, -3, 4, 5), (-2, 3, 4, 5), (-2, -3, -4, -5))


def build_rec_newton(rng, ctx, pool, tolerate=()):
    roots = list(rng.choice(pool))
    rng.shuffle(roots)
    d = len(roots)
    factors = [((1, 0), (a, 0)) for a in roots]
    values = cyclic_from_factors(factors, d + 1)
    check = {"type": "reconstruct", "factors": factors, "values": values, "abs": False}
    return _req("reconstruct-newton", _rec_argv(d, values, "--monic"), check, d, "int-monic",
                d + 1, "newton", tolerate=tolerate)


def build_rec_linear(rng, ctx):
    b = rng.choice((2, 3, -2))
    a = rng.choice([a for a in range(-7, 8) if abs(a) >= 2 and abs(a) != abs(b)])
    factors = [((b, 0), (a, 0))]
    values = cyclic_from_factors(factors, 2)
    check = {"type": "reconstruct", "factors": factors, "values": values,
             "abs": False}
    return _req("reconstruct-closed", _rec_argv(1, values), check, 1, "int-nonmonic", 2,
                "closed")


def build_rec_reciprocal(rng, ctx):
    # the printed sextic formula divides by Q = r1^2 (9 r1 r4 - 16 r2 r3);
    # inputs with Q = 0 are outside its domain
    while True:
        traces = rng.sample([t for t in range(-6, 7) if abs(t) >= 3], 3)
        values = cyclic_from_quadratics(traces, 4)
        r1, r2, r3, r4 = (v[0] for v in values)
        if 9 * r1 * r4 != 16 * r2 * r3:
            break
    check = {"type": "reconstruct", "traces": traces, "values": values,
             "abs": False}
    return _req("reconstruct-closed", _rec_argv(6, values, "--reciprocal"), check, 6,
                "int-monic", 4, "closed")


def build_rec_abs(rng, ctx, d):
    factors = _int_factors(rng, d, "int-monic")
    values = [(abs(v[0]), 0) for v in cyclic_from_factors(factors, d + 1)]
    check = {"type": "reconstruct", "factors": factors, "values": values,
             "abs": True}
    return _req("reconstruct-abs", _rec_argv(d, values, "--monic", "--abs"), check, d,
                "int-monic", d + 1, "abs")


def build_rec_divide_by_zero(rng, ctx):
    argv = ["reconstruct", "--degree", "1", "--values=1/0,2"]
    return _req("reconstruct-malformed", argv, {"type": "malformed"}, 1, "rational", 2,
                "malformed", tolerate=("exception",))


def build_rec_no_solution(rng, ctx):
    argv = ["reconstruct", "--degree", "2", "--monic", "--values=-2,-24,-182",
            "--method", "groebner"]
    return _req("reconstruct-domain", argv, {"type": "domain_error", "code": "no_solution"},
                2, "int-monic", 3, "domain-error")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _t(builder, **params):
    return (builder, params)


# Template counts place each workload's median and 90th percentile inside a
# group of requests of similar cost, not in a gap between two groups, where
# they would jump from run to run: in seq-long three short-prefix requests
# put the median among the mid-sized sequences; in family the two numeric
# quartics hold the 90th percentile; in reconstruct the Groebner quadratics
# hold the median, and the Groebner cubic with the degree-5 and degree-6
# Newton inputs the 90th percentile (the general cubic, cut by its deadline,
# is left out of the percentiles).
SEQ_LONG = [
    _t(build_seq, d=3, n=64, cls="int-monic"),
    _t(build_seq, d=4, n=48, cls="int-monic"),
    _t(build_seq, d=5, n=56, cls="int-monic"),
    _t(build_seq, d=6, n=40, cls="int-monic"),
    _t(build_seq, d=7, n=32, cls="int-monic"),
    _t(build_seq, d=8, n=64, cls="int-monic"),
    _t(build_seq, d=3, n=48, cls="int-nonmonic"),
    _t(build_seq, d=4, n=40, cls="int-nonmonic"),
    _t(build_seq, d=5, n=32, cls="int-nonmonic"),
    _t(build_seq, d=6, n=56, cls="int-nonmonic"),
    _t(build_seq, d=8, n=48, cls="int-nonmonic"),
    _t(build_seq, d=3, n=32, cls="gaussian"),
    _t(build_seq, d=4, n=24, cls="gaussian"),
    _t(build_seq, d=3, n=40, cls="int-monic", use_abs=True),
    _t(build_seq, d=5, n=32, cls="int-nonmonic", use_abs=True),
    _t(build_seq, d=6, n=48, cls="int-monic", use_abs=True),
    _t(build_zeta, d=3, n=24),
    _t(build_zeta, d=4, n=36),
    _t(build_zeta, d=5, n=48),
    _t(build_zeta_nonergodic),
    # short prefixes: they also move the median off a gap between groups
    _t(build_seq, d=3, n=12, cls="int-monic"),
    _t(build_seq, d=4, n=12, cls="int-nonmonic"),
    _t(build_zeta, d=3, n=8),
]

FAMILY = [
    _t(build_equiv, d=3, cls="int-monic"),
    _t(build_equiv, d=4, cls="int-nonmonic"),
    _t(build_equiv, d=6, cls="int-monic"),
    _t(build_equiv, d=3, cls="gaussian"),
    _t(build_equiv, d=4, cls="gaussian"),
    _t(build_equiv_numeric, coeffs=(9, 1, -2, 3, 1)),
    _t(build_equiv_numeric, coeffs=(-9, -1, 2, -3, 1)),
    _t(build_equiv_real, d=3, cls="int-monic"),
    _t(build_equiv_real, d=4, cls="int-nonmonic"),
    _t(build_equiv_unity, d=3),
    _t(build_genfun, d=3, cls="int-monic"),
    _t(build_genfun, d=4, cls="int-nonmonic", use_abs=True),
    _t(build_genfun, d=5, cls="int-monic", order=12),
    _t(build_genfun, d=4, cls="int-monic", use_abs=True, order=8),
    _t(build_genfun, d=3, cls="int-nonmonic", use_abs=True),
    _t(build_genfun, d=6, cls="int-monic", order=16),
    _t(build_genfun_negative_order),
    _t(build_grcheck, e=2, equal=True),
    _t(build_grcheck, e=3, equal=True),
    _t(build_grcheck, e=4, equal=True),
    _t(build_grcheck, e=4, equal=False),
    _t(build_grcheck, e=5, equal=False),
    _t(build_grcheck_malformed),
]

_CLOSED_2 = _t(build_rec, d=2, cls="int-monic", nvalues=2, flags=("--monic",), route="closed")
_CLOSED_3 = _t(build_rec, d=3, cls="int-monic", nvalues=4, flags=("--monic",), route="closed")
_GROEBNER_2 = _t(build_rec, d=2, cls="int-monic", nvalues=3,
                 flags=("--monic", "--method", "groebner"), route="groebner")
_GROEBNER_3 = _t(build_rec, d=3, cls="int-monic", nvalues=4,
                 flags=("--monic", "--method", "groebner"), route="groebner")
_GENERAL_2 = _t(build_rec, d=2, cls="int-nonmonic", nvalues=3, route="groebner-general")

RECONSTRUCT = [
    _t(build_rec_linear),
    _t(build_rec_linear),
    _CLOSED_2,
    _CLOSED_2,
    _CLOSED_3,
    _CLOSED_3,
    _t(build_rec_reciprocal),
    _GROEBNER_2,
    _GROEBNER_2,
    _GROEBNER_2,
    _GROEBNER_2,
    _GROEBNER_3,
    _GENERAL_2,
    # four starts (the default is 16) bound a non-converging request to
    # about a second
    _t(build_rec_newton, pool=NEWTON_CONVERGES[4]),
    _t(build_rec_newton, pool=NEWTON_CONVERGES[5]),
    _t(build_rec_newton, pool=NEWTON_CONVERGES[6]),
    _t(build_rec_newton, pool=NEWTON_DECLINES, tolerate=("declined",)),
    _t(build_rec_abs, d=1),
    _t(build_rec_abs, d=1),
    _t(build_rec_abs, d=2),
    _t(build_rec_abs, d=2),
    _t(build_rec_abs, d=3),
    _t(build_rec_abs, d=3),
    _t(build_rec, d=3, cls="int-nonmonic", nvalues=4, route="groebner-general",
       deadline_s=GENERAL_CUBIC_DEADLINE_S, tolerate=("deadline",)),
    _t(build_rec_divide_by_zero),
    _t(build_rec_no_solution),
]

WORKLOADS = {"seq-long": SEQ_LONG, "family": FAMILY, "reconstruct": RECONSTRUCT}

# Cheap requests that touch every cache the timed requests use: the
# cyclotomic table up to the largest degree, and the symbolic resultants of
# every (degree, shape) the Groebner route sees.
WARMUP = {
    "seq-long": [
        _t(build_seq, d=3, n=4, cls="int-monic"),
        _t(build_seq, d=3, n=4, cls="gaussian"),
        _t(build_seq, d=6, n=4, cls="int-monic", use_abs=True),
        _t(build_zeta, d=5, n=4),
    ],
    "family": [
        _t(build_equiv, d=3, cls="int-monic"),
        _t(build_equiv_real, d=3, cls="int-monic"),
        _t(build_genfun, d=6, cls="int-monic"),
        _t(build_grcheck, e=2, equal=True),
    ],
    "reconstruct": [
        _t(build_rec_linear),
        _CLOSED_2,
        _t(build_rec_reciprocal),
        _GROEBNER_3,
        _GENERAL_2,
        _t(build_rec_abs, d=1),
        _t(build_rec_abs, d=2),
    ],
}

PASSES = 8


class InputDir:
    """Matrix files for zeta requests, in a directory of the run's own."""

    def __init__(self, path: str):
        self.path = path
        self.count = 0

    def write_matrix(self, rows) -> str:
        self.count += 1
        name = os.path.join(self.path, f"m{self.count}.json")
        with open(name, "w", encoding="utf-8") as fh:
            json.dump({"n": len(rows), "entries": [[str(x) for x in r] for r in rows]}, fh)
        return name


def _build(templates, rng, ctx, start: int) -> list[Request]:
    out = []
    for i, (builder, params) in enumerate(templates):
        req = builder(rng, ctx, **params)
        req.ident = start + i
        out.append(req)
    return out


def stream(workload: str, seed: int, ctx: InputDir) -> list[Request]:
    """PASSES shuffled passes over the workload's templates."""
    rng = random.Random(f"{workload}:{seed}")
    templates = WORKLOADS[workload]
    out: list[Request] = []
    for _ in range(PASSES):
        batch = _build(templates, rng, ctx, len(out))
        rng.shuffle(batch)
        out.extend(batch)
    return out


def warmup(workload: str, seed: int, ctx: InputDir) -> list[Request]:
    rng = random.Random(f"{workload}:warmup:{seed}")
    return _build(WARMUP[workload], rng, ctx, 0)
