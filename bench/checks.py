"""Judging one CLI outcome against the exact answer its input was built for.

judge() returns (status, reason).  status is "ok" or a failure kind:
"wrong_output", "wrong_exit", "exception", "deadline" or "declined" (a
reconstruction that gave no answer, such as Newton's no_convergence: it
neither reproduces the prefix nor returns the input).  It runs after the
timed call and uses only oracles.py, never the program.
"""
from __future__ import annotations

from fractions import Fraction

from oracles import (
    coeffs_from_json,
    cyclic_from_coeffs,
    cyclic_from_factors,
    exp_series,
    family_from_factors,
    integral_key,
    load_json,
    parse_real_poly,
    poly_from_factors,
    poly_from_quadratics,
    rep_series,
    render_value,
    series_matches,
)

FAILURES = ("wrong_output", "wrong_exit", "exception", "deadline", "declined")
GENFUN_CHECK_ORDER = 8


def judge(req, outcome) -> tuple[str, str]:
    if outcome.error is not None:
        kind = "deadline" if outcome.error == "deadline" else "exception"
        return kind, outcome.error
    check = req.check
    payload = load_json(outcome.stdout)
    if check["type"] == "malformed":
        # The fixed program answers with a usage error (exit 1) or a
        # structured domain error (exit 2); today it raises instead.
        if outcome.rc == 1 or (outcome.rc == 2 and isinstance(payload, dict) and "code" in payload):
            return "ok", ""
        return "wrong_exit", f"exit {outcome.rc}"
    if check["type"] == "domain_error":
        if outcome.rc == 2 and isinstance(payload, dict) and payload.get("code") == check["code"]:
            return "ok", ""
        return "wrong_exit", f"exit {outcome.rc}, wanted 2 with code {check['code']}"
    if check["type"] == "reconstruct" and outcome.rc == 2:
        if isinstance(payload, dict) and payload.get("code") == "no_convergence":
            return "declined", "no_convergence"
    if outcome.rc != 0 or not isinstance(payload, dict):
        return "wrong_exit", f"exit {outcome.rc}: {outcome.stdout[:200]}"
    if check["type"] == "reconstruct" and payload.get("polynomial") is None:
        return "declined", "no polynomial returned"
    reason = _CHECKS[check["type"]](check, payload)
    return ("ok", "") if reason is None else ("wrong_output", reason)


def _check_seq(check, payload):
    values = cyclic_from_factors(check["factors"], check["n"])
    if check["abs"]:
        want = [abs(v[0]) for v in values]
    else:
        want = [render_value(v) for v in values]
    if payload != {"is_abs": check["abs"], "values": want}:
        return "sequence differs from prod (a^m - b^m)"
    return None


def _check_zeta(check, payload):
    n = check["n"]
    counts = [abs(v[0]) for v in cyclic_from_factors(check["factors"], n)]
    if payload.get("order") != n or payload.get("counts") != [str(c) for c in counts]:
        return "periodic-point counts differ from |r_m| of the characteristic polynomial"
    want = exp_series(counts, n)
    bound = [abs(b) for b in exp_series([-c for c in counts], n)]
    got = [complex(re, im) for re, im in payload["coefficients"]]
    if not series_matches(got, want, [float(b) for b in bound]):
        return "zeta coefficients differ from exp(-sum N_m z^m / m)"
    return None


def _member_keys(payload):
    return {integral_key(coeffs_from_json(m["coeffs"])) for m in payload["members"]}


def _check_equiv(check, payload):
    want = family_from_factors(check["factors"])
    got = _member_keys(payload)
    if got != want:
        return f"family has {len(got)} members, construction gives {len(want)}"
    if payload["count"] != len(want) or payload["unverified_float_members"] != 0:
        return "member count or unverified count is wrong"
    return None


def _check_equiv_real(check, payload):
    want = family_from_factors(check["factors"], real_abs=True)
    got = _member_keys(payload)
    if got != want or payload["count"] != len(want):
        return f"real family has {len(got)} members, construction gives {len(want)}"
    return None


def _check_equiv_numeric(check, payload):
    base = [Fraction(c) for c in check["coeffs"]]
    d = len(base) - 1
    prefix = cyclic_from_coeffs(base, 10)
    members = [[c[0] for c in coeffs_from_json(m["coeffs"])] for m in payload["members"]]
    if base not in members:
        return "base polynomial missing from its own family"
    if payload["count"] != len(members):
        return "member count differs from the listed members"
    if payload["count"] + payload["unverified_float_members"] > 2 ** (d - 1):
        return "more candidates than even root subsets"
    for member in members:
        if cyclic_from_coeffs(member, 10) != prefix:
            return "a member does not reproduce the base prefix"
    return None


def _check_genfun(check, payload):
    values = [v[0] for v in cyclic_from_factors(check["factors"], max(GENFUN_CHECK_ORDER, check["order"] or 0))]
    if check["abs"]:
        values = [abs(v) for v in values]
    order = GENFUN_CHECK_ORDER
    got, bound = rep_series(payload["rep"], order)
    if not series_matches(got, exp_series(values, order), bound):
        return "series_of(rep) differs from exp_series(r)"
    if check["order"] is not None:
        order = check["order"]
        want = exp_series(values, order)
        _, bound = rep_series(payload["rep"], order)
        series = [complex(re, im) for re, im in payload.get("series", [])]
        if not series_matches(series, want, bound):
            return "printed series differs from exp_series(r)"
    elif "series" in payload:
        return "series printed without --order"
    return None


def _expand(check, product):
    """Group-ring expansion as {element vector: integer coefficient}."""
    rank, tors = check["rank"], check["tors"]

    def norm(vec):
        return tuple(x if k < rank else x % tors[k - rank] for k, x in enumerate(vec))

    terms = {norm(product["unit"]["elt"]): int(product["unit"]["coeff"][0])}
    for u, v in product["factors"]:
        new: dict = {}
        for elt, c in terms.items():
            for shift, sign in ((u, 1), (v, -1)):
                key = norm([a + b for a, b in zip(elt, shift)])
                new[key] = new.get(key, 0) + sign * c
        terms = {k: c for k, c in new.items() if c}
    return terms


def _check_grcheck(check, payload):
    equal = _expand(check, check["left"]) == _expand(check, check["right"])
    if payload.get("match") is True:
        return None if equal else "match reported for unequal products"
    if equal:
        return "equal products reported as no match"
    if payload != {"match": False, "expansions_equal": False}:
        return "mismatch payload is wrong"
    return None


def _check_reconstruct(check, payload):
    if payload.get("verified") is not True:
        return "answer not marked verified"
    main = [c[0] for c in coeffs_from_json(payload["coeffs"])]
    candidates = [parse_real_poly(t) for t in payload.get("candidates", [])] or [main]
    if main not in candidates:
        return "polynomial missing from candidates"
    want = [Fraction(v[0]) for v in check["values"]]
    if "traces" in check:
        targets = {tuple(c[0] for c in poly_from_quadratics(check["traces"]))}
    else:
        fam = family_from_factors(check["factors"], real_abs=check["abs"])
        fam.add(tuple(poly_from_factors(check["factors"])))
        targets = {tuple(c[0] for c in member) for member in fam}
    for cand in candidates:
        got = cyclic_from_coeffs(cand, len(want))
        if check["abs"]:
            got = [abs(v) for v in got]
        if got != want:
            return f"candidate {cand} does not reproduce the prefix"
    if not any(tuple(c) in targets for c in candidates):
        return "no candidate equals the input or a member of its family"
    return None


_CHECKS = {
    "seq": _check_seq,
    "zeta": _check_zeta,
    "equiv": _check_equiv,
    "equiv_real": _check_equiv_real,
    "equiv_numeric": _check_equiv_numeric,
    "genfun": _check_genfun,
    "grcheck": _check_grcheck,
    "reconstruct": _check_reconstruct,
}
