"""Tests of the benchmark's own machinery: oracles, span arithmetic, deadline."""
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import checks
import client
import gen
import oracles
import run
import spans


def _outcome(payload, rc=0):
    return client.Outcome(rc=rc, stdout=json.dumps(payload), wall=0.0, cpu=0.0, error=None)


def _seq_payload(req):
    values = oracles.cyclic_from_factors(req.check["factors"], req.check["n"])
    return {"is_abs": False, "values": [oracles.render_value(v) for v in values]}


def test_oracle_accepts_exact_sequence_and_rejects_perturbed_value():
    req = gen.build_seq(random.Random(0), None, d=3, n=6, cls="int-nonmonic")
    payload = _seq_payload(req)
    assert checks.judge(req, _outcome(payload))[0] == "ok"
    payload["values"][4] += 1
    assert checks.judge(req, _outcome(payload))[0] == "wrong_output"


def test_gaussian_sequence_matches_coefficient_route():
    req = gen.build_seq(random.Random(1), None, d=3, n=5, cls="gaussian")
    coeffs = oracles.poly_from_factors(req.check["factors"])
    assert any(c[1] for c in coeffs)
    payload = _seq_payload(req)
    assert any(isinstance(v, list) for v in payload["values"])
    assert checks.judge(req, _outcome(payload))[0] == "ok"


def test_factor_and_coefficient_resultants_agree():
    factors = [((1, 0), (3, 0)), ((2, 0), (-5, 0)), ((1, 0), (-2, 0))]
    coeffs = [c[0] for c in oracles.poly_from_factors(factors)]
    by_factors = [v[0] for v in oracles.cyclic_from_factors(factors, 7)]
    assert oracles.cyclic_from_coeffs(coeffs, 7) == by_factors
    traces = [3, -4]
    quad = [c[0] for c in oracles.poly_from_quadratics(traces)]
    assert oracles.cyclic_from_coeffs(quad, 6) == [v[0] for v in oracles.cyclic_from_quadratics(traces, 6)]


def test_format_and_parse_round_trip():
    coeffs = [(-6, 0), (1, 0), (0, 0), (-3, 0)]
    text = oracles.format_poly(coeffs)
    assert text == "-3*x^3+x-6"
    assert oracles.parse_real_poly(text) == [Fraction(c[0]) for c in coeffs]


def test_oracle_rejects_non_member_in_family():
    req = gen.build_equiv(random.Random(2), None, d=3, cls="int-monic")
    family = sorted(oracles.family_from_factors(req.check["factors"]))
    members = [{"coeffs": [[str(c[0]), "1", "0", "1"] for c in m]} for m in family]
    payload = {"count": len(members), "members": members, "unverified_float_members": 0}
    assert checks.judge(req, _outcome(payload))[0] == "ok"
    members[0]["coeffs"][0][0] = str(int(members[0]["coeffs"][0][0]) + 1)
    assert checks.judge(req, _outcome(payload))[0] == "wrong_output"


def test_oracle_rejects_non_member_reconstruction():
    req = gen.build_rec(random.Random(3), None, d=2, cls="int-monic", nvalues=2,
                        flags=("--monic",), route="closed")
    base = oracles.poly_from_factors(req.check["factors"])
    good = {"polynomial": "p", "verified": True,
            "coeffs": [[str(c[0]), "1", "0", "1"] for c in base]}
    assert checks.judge(req, _outcome(good))[0] == "ok"
    wrong = dict(good, coeffs=[["1", "1", "0", "1"], ["1", "1", "0", "1"], ["1", "1", "0", "1"]])
    assert checks.judge(req, _outcome(wrong))[0] == "wrong_output"


def test_known_defect_is_tolerated_but_counted():
    req = gen.build_rec_divide_by_zero(None, None)
    failed = client.Outcome(rc=None, stdout="", wall=0.0, cpu=0.0, error="ZeroDivisionError: x")
    assert checks.judge(req, failed)[0] == "exception"
    assert "exception" in req.tolerate
    fixed = _outcome({"code": "invalid_input", "message": "", "context": {}}, rc=2)
    assert checks.judge(req, fixed)[0] == "ok"


def test_newton_decline_is_a_failure_known_only_where_it_declines_today():
    declined = _outcome({"code": "no_convergence", "message": "", "context": {}}, rc=2)
    null = _outcome({"polynomial": None, "verified": False})
    for pool, known in ((gen.NEWTON_CONVERGES[5], False), (gen.NEWTON_DECLINES, True)):
        tolerate = ("declined",) if known else ()
        req = gen.build_rec_newton(random.Random(4), None, pool=pool, tolerate=tolerate)
        for outcome in (declined, null):
            assert checks.judge(req, outcome)[0] == "declined"
            assert ("declined" in req.tolerate) == known


def test_self_time_on_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["f", 1.0, 4.0, 0, 0, None],
        ["f", 2.0, 3.0, 1, 0, None],
        ["g", 5.0, 9.0, 0, 0, None],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert spans.outermost(tree) == [True, True, False, True]
    totals = spans.layer_totals([tree])
    assert totals["f.calls"] == 2
    assert totals["f.s"] == 3.0  # the nested call is inside the outer one
    assert totals["f.self_s"] == 3.0
    assert totals["root.self_s"] == 3.0


def test_tracer_drops_requests_cut_by_deadline():
    tracer = spans.Tracer()
    wrapped = tracer.wrap("layer", lambda x: x + 1)
    tracer.begin(0)
    assert wrapped(1) == 2
    tracer.end(True)
    tracer.begin(1)
    wrapped(2)
    tracer.end(False)
    assert len(tracer.requests) == 1 and tracer.deadline_hits == 1
    assert tracer.requests[0][0][0] == "layer"


def test_deadline_fires_on_busy_loop_that_swallows_exceptions():
    def busy(argv):
        while True:
            try:
                sum(range(1000))
            except Exception:
                pass

    t0 = time.perf_counter()
    outcome = client.call(busy, [], 0.05)
    assert outcome.error == "deadline"
    assert time.perf_counter() - t0 < 2.0


def test_benchmark_json_matches_spec():
    path = Path(run.ROOT) / "BENCHMARK.json"
    assert json.loads(path.read_text()) == run.spec()
