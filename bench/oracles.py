"""Exact reference arithmetic for checking CLI outputs.

Nothing here imports cycres: every expected value is computed from the way
an input was built (its linear factors, its quadratic factors or its
coefficients), with plain Python integers and Fractions.

Gaussian integers are (re, im) tuples of ints.  Polynomials are ascending
coefficient lists.  A linear factor (b, a) stands for b*x - a with Gaussian
integers a, b; its m-th cyclic resultant is a^m - b^m, so a product of such
factors has r_m = prod (a^m - b^m), the paper's lead^m * prod (alpha^m - 1).
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction

ZERO = (0, 0)
ONE = (1, 0)


# ---------------------------------------------------------------------------
# Gaussian integers and polynomials over them
# ---------------------------------------------------------------------------


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def gneg(x):
    return (-x[0], -x[1])


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gpow(x, n: int):
    out = ONE
    for _ in range(n):
        out = gmul(out, x)
    return out


def poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = gadd(out[i + j], gmul(a, b))
    return out


def poly_from_factors(factors):
    """prod (b*x - a) as ascending Gaussian-integer coefficients."""
    out = [ONE]
    for b, a in factors:
        out = poly_mul(out, [gneg(a), b])
    return out


def poly_from_quadratics(traces):
    """prod (x^2 - t*x + 1): a monic reciprocal polynomial with integer t."""
    out = [ONE]
    for t in traces:
        out = poly_mul(out, [ONE, (-t, 0), ONE])
    return out


def format_poly(coeffs) -> str:
    """The CLI's input grammar: descending terms, '(a+bi)' for complex."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        re, im = coeffs[k]
        if re == 0 and im == 0:
            continue
        xpart = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if im == 0:
            sign = "-" if re < 0 else "+"
            mag = abs(re)
            if k == 0:
                body = str(mag)
            else:
                body = xpart if mag == 1 else f"{mag}*{xpart}"
        else:
            sign = "+"
            inner = f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)"
            body = inner if k == 0 else f"{inner}*{xpart}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    return text + "".join(s + b for s, b in parts[1:])


# ---------------------------------------------------------------------------
# cyclic resultants from the construction
# ---------------------------------------------------------------------------


def cyclic_from_factors(factors, n: int):
    """r_1..r_n of prod (b*x - a), exactly: prod (a^m - b^m)."""
    out = []
    for m in range(1, n + 1):
        value = ONE
        for b, a in factors:
            value = gmul(value, gsub(gpow(a, m), gpow(b, m)))
        out.append(value)
    return out


def cyclic_from_quadratics(traces, n: int):
    """r_m of prod (x^2 - t x + 1) = prod (2 - L_m(t)), L_m the Lucas sequence
    L_0 = 2, L_1 = t, L_m = t L_(m-1) - L_(m-2) (L_m = alpha^m + alpha^-m)."""
    out = [1] * n
    for t in traces:
        prev, cur = 2, t
        for m in range(1, n + 1):
            out[m - 1] *= 2 - cur
            prev, cur = cur, t * cur - prev
    return [(v, 0) for v in out]


def _frac_poly_mod(a, f):
    """Remainder of a mod f over Fractions (ascending, trailing zeros cut)."""
    a = list(a)
    lead = f[-1]
    while len(a) >= len(f):
        t = a[-1] / lead
        k = len(a) - len(f)
        for j, c in enumerate(f):
            a[k + j] -= t * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _resultant(f, g) -> Fraction:
    """Res(f, g) = lead(f)^deg g * prod g(alpha), by the Euclidean scheme
    Res(f, g) = lead(f)^(deg g - deg r) * (-1)^(deg f deg r) * Res(r, f) with
    r = g mod f.  Independent of the Sylvester and companion routes."""
    n, k = len(f) - 1, len(g) - 1
    if k == 0:
        return g[0] ** n
    if n == 0:
        return f[0] ** k
    r = _frac_poly_mod(g, f)
    if not r:
        return Fraction(0)
    s = len(r) - 1
    sign = -1 if (n * s) % 2 else 1
    return f[-1] ** (k - s) * sign * _resultant(r, f)


def cyclic_from_coeffs(coeffs, n: int) -> list[Fraction]:
    """r_1..r_n of a polynomial with rational coefficients (ascending)."""
    f = [Fraction(c) for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    out = []
    for m in range(1, n + 1):
        g = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
        out.append(_resultant(f, g))
    return out


# ---------------------------------------------------------------------------
# families from the construction
# ---------------------------------------------------------------------------


def family_from_factors(factors, real_abs: bool = False):
    """Every polynomial built by carrying a subset of roots into the reversal.

    Carrying the root a/b of b*x - a turns the factor into b - a*x.  The exact
    family takes even subsets and keeps the sign; the real absolute-value
    family takes every subset and both global signs (real roots only).
    """
    d = len(factors)
    out = set()
    for size in range(d + 1):
        if not real_abs and size % 2:
            continue
        for subset in itertools.combinations(range(d), size):
            poly = [ONE]
            for i, (b, a) in enumerate(factors):
                lin = [b, gneg(a)] if i in subset else [gneg(a), b]
                poly = poly_mul(poly, lin)
            key = tuple(poly)
            out.add(key)
            if real_abs:
                out.add(tuple(gneg(c) for c in poly))
    return out


# ---------------------------------------------------------------------------
# reading CLI output
# ---------------------------------------------------------------------------


def quad_to_gaussian(quad):
    """[re_num, re_den, im_num, im_den] -> (Fraction, Fraction)."""
    rn, rd, im, idn = (int(x) for x in quad)
    return (Fraction(rn, rd), Fraction(im, idn))


def coeffs_from_json(coeffs):
    return [quad_to_gaussian(q) for q in coeffs]


def integral_key(coeffs):
    """Exact Gaussian-integer tuple of parsed coefficients, or None."""
    out = []
    for re, im in coeffs:
        if re.denominator != 1 or im.denominator != 1:
            return None
        out.append((int(re), int(im)))
    return tuple(out)


def render_value(v):
    """A cyclic resultant as the CLI prints it in compact mode."""
    re, im = v
    if im == 0:
        return re
    return [str(re), "1", str(im), "1"]


def exp_series(values, order: int) -> list[Fraction]:
    """Exact b_0..b_order of exp(-sum values[m-1] z^m / m) (real values)."""
    b = [Fraction(1)]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc -= Fraction(values[k - 1]) * b[n - k]
        b.append(acc / n)
    return b


def rep_series(rep: dict, order: int) -> tuple[list[complex], list[float]]:
    """Series of a printed rational-function rep and a majorant bound per
    coefficient: the same product with every factor replaced by |c|, so
    float rounding in coefficient n is at most a small multiple of bound n."""
    num = [complex(*c) for c in rep["num_factors"]]
    den = [complex(*c) for c in rep["den_factors"]]
    scalar = complex(*rep["scalar"])
    if rep["exponent"] == -1:
        num, den = den, num
        scalar = 1 / scalar
    coeffs = [0j] * (order + 1)
    bound = [0.0] * (order + 1)
    coeffs[0] = scalar
    bound[0] = abs(scalar)
    for c in num:
        for n in range(order, 0, -1):
            coeffs[n] -= c * coeffs[n - 1]
            bound[n] += abs(c) * bound[n - 1]
    for c in den:
        for n in range(1, order + 1):
            coeffs[n] += c * coeffs[n - 1]
            bound[n] += abs(c) * bound[n - 1]
    return coeffs, bound


def series_matches(got: list[complex], want: list[Fraction], bound: list[float]) -> bool:
    for g, w, s in zip(got, want, bound):
        if abs(g - float(w)) > 1e-9 * max(1.0, s):
            return False
    return len(got) == len(want)


def load_json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def parse_real_poly(text: str) -> list[Fraction]:
    """Ascending Fraction coefficients of a real polynomial as the CLI prints
    it, e.g. "-6*x^2+x+2" or "3/2*x-5"."""
    coeffs: dict[int, Fraction] = {}
    body = text.replace(" ", "")
    terms = []
    start = 0
    for i in range(1, len(body) + 1):
        if i == len(body) or body[i] in "+-":
            terms.append(body[start:i])
            start = i
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        if "x" in term:
            coeff_text, _, power_text = term.partition("x")
            coeff_text = coeff_text.rstrip("*") or "1"
            power = int(power_text[1:]) if power_text.startswith("^") else 1
        else:
            coeff_text, power = term, 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * Fraction(coeff_text)
    degree = max(coeffs) if coeffs else 0
    return [coeffs.get(k, Fraction(0)) for k in range(degree + 1)]
