"""Property fuzz of the parser and the CLI: every input ends in exit 0, 1 or
2, never a traceback, and a domain error (exit 2) is JSON on stdout.

Sizes stay desk-scale (degree <= 3, short prefixes, few Newton restarts) so
the whole module runs in seconds, and the examples are derandomized so the
suite is repeatable; raise max_examples and drop derandomize for a longer
hunt.
"""
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cycres.cli import main
from cycres.errors import CycResError
from cycres.polycore import Polynomial, parse

FUZZ = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


rationals = st.builds(
    lambda p, q: f"{p}/{q}" if q != 1 else str(p),
    st.integers(-9, 9),
    st.integers(1, 4),
)
coeffs = st.one_of(
    rationals,
    st.builds(lambda a, b: f"({a}{b:+d}i)", st.integers(-5, 5), st.integers(-5, 5)),
)
terms = st.builds(
    lambda c, k: c if k == 0 else f"{c}*x^{k}", coeffs, st.integers(0, 3)
)
polys = st.one_of(
    st.lists(terms, min_size=1, max_size=4).map("+".join),
    # short text over the grammar's alphabet, without '^' so degree <= 1
    st.text(alphabet="x*+-/()0123456789i ", max_size=8),
)
small = st.integers(-1, 6)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert isinstance(json.loads(out.getvalue()), dict), argv
    elif code == 1:
        assert err.getvalue().startswith("usage error:"), argv
    return code


def flags(*names):
    return st.lists(st.sampled_from(names), unique=True)


@FUZZ
@given(st.text(alphabet="x^*+-/()0123456789i. ", max_size=24))
def test_parse_returns_a_polynomial_or_a_domain_error(text):
    try:
        assert isinstance(parse(text), Polynomial)
    except CycResError:
        pass


@FUZZ
@given(polys, small, flags("--abs", "--exact-json"))
def test_seq(poly, n, extra):
    run(["seq", f"--poly={poly}", "--n", str(n), *extra])


@FUZZ
@given(polys, st.one_of(st.none(), st.integers(-1, 3)), small, st.booleans())
def test_equiv(poly, l1, check, real):
    argv = ["equiv", f"--poly={poly}", "--check", str(check)]
    if l1 is not None:
        argv += ["--l1", str(l1)]
    run(argv + (["--real"] if real else []))


@FUZZ
@given(polys, st.one_of(st.none(), small), st.booleans())
def test_genfun(poly, order, use_abs):
    argv = ["genfun", f"--poly={poly}"]
    if order is not None:
        argv += ["--order", str(order)]
    run(argv + (["--abs"] if use_abs else []))


@FUZZ
@given(
    st.integers(-1, 3),
    st.lists(rationals, min_size=1, max_size=5).map(",".join),
    st.booleans(),
    flags("--abs", "--monic", "--reciprocal"),
    st.sampled_from(["auto", "closed", "groebner", "newton"]),
)
def test_reconstruct(degree, values, glued, extra, method):
    value_args = [f"--values={values}"] if glued else ["--values", values]
    run(
        ["reconstruct", "--degree", str(degree), *value_args, *extra,
         "--method", method, "--restarts", "2"]
    )


def output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    return code, out.getvalue()


@FUZZ
@given(
    st.lists(terms, min_size=1, max_size=4).map("+".join),
    st.sampled_from([["seq", "--n", "3"], ["equiv"], ["genfun", "--order", "2"]]),
)
def test_dash_led_poly_after_a_space(poly, command):
    # a value that starts with a dash reads the same after a space as after "="
    poly = poly if poly.startswith("-") else "-" + poly
    name, *rest = command
    assert output([name, "--poly", poly, *rest]) == output([name, f"--poly={poly}", *rest])


# Lower bounds of the integer flags drawn below; a value under its bound is
# a usage error, any other value must not be.
BOUNDS = {"--degree": 0, "--trials": 0, "--seed": 0, "--order": 0}
bounded = st.one_of(
    st.builds(
        lambda d, t, s: ["conjecture", "--degree", str(d), "--trials", str(t)]
        + ([] if s is None else ["--seed", str(s)]),
        st.integers(-1, 3),
        st.integers(-1, 2),
        st.one_of(st.none(), st.integers(-1, 3)),
    ),
    st.builds(lambda o: ["genfun", "--poly", "x^2-5*x+6", "--order", str(o)], small),
    st.builds(lambda o: ["zeta", "--order", str(o)], small),
)


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("zeta") / "matrix.json"
    path.write_text(json.dumps({"n": 2, "entries": [["2", "1"], ["1", "1"]]}))
    return str(path)


@FUZZ
@given(bounded)
def test_flag_bounds(matrix, argv):
    if argv[0] == "zeta":
        argv = argv + ["--matrix", matrix]
    below = any(
        flag in BOUNDS and int(value) < BOUNDS[flag]
        for flag, value in zip(argv, argv[1:])
    )
    assert (run(argv) == 1) == below, argv
