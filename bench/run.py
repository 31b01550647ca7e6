"""Closed-loop benchmark of the cycres CLI.

One client in one process sends its next request only after the previous
one has completed.  A request is an in-process call of cycres.cli.main(argv)
with stdout captured (argv parse, library, JSON render), checked against an
exact answer that oracles.py derives from how the input was built.

    python3 bench/run.py --workload seq-long --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics for --seconds of request time,
scaled to a reference machine speed (see REFERENCE_S).
--trace 1 runs one fixed pass of the workload, each request untraced and
with layer spans, then once more with GaussianRational operations counted,
and reports the per-layer metrics.  The last line of stdout is one JSON object; details go
to .bench_out/ in the checkout.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import client  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402

RUN_SECONDS = 30
SETUP_PROBES = 5
MIN_REQUESTS = 100
COUNT_PASS_DEADLINE_FACTOR = 10

# The CPU of a shared machine switches between a fast and a slow state, up
# to 2x apart, within seconds or for tens of seconds, which moves every
# timing of a 30 s run by as much.  So a fixed piece of exact arithmetic outside the program (Euclidean cyclic
# resultants of a cubic, from oracles.py) is timed after every request, and
# each request's times are scaled by REFERENCE_S over the mean of the
# reference times just before and just after it: they read as on this
# machine when the reference takes REFERENCE_S.  Raw times stay in the
# results file.
REFERENCE_POLY = (-30, 31, -10, 1)
REFERENCE_TERMS = 14
REFERENCE_S = 0.002

WORKLOAD_WHY = {
    "seq-long": "long exact sequences (N 32-64, degree 3-8, integer, non-monic and Gaussian) "
                "plus |r_m| and zeta: the Sylvester determinant and companion cross-check",
    "family": "equivalence families (exact, numeric, real), generating functions and "
              "group-ring matches: many short sequences of non-monic members",
    "reconstruct": "prefix inversion by closed forms, Groebner, Newton and |r_m| lifts, "
                   "with general cubics that miss their deadline",
}

# (name, unit, better, bound)
# Each bound is about three times the largest spread (IQR over median) the
# scaled metric showed over ten seeds on any workload: ops_per_s 0.069,
# op_p50_ms 0.070, op_p90_ms 0.079, op_cpu_ms_mean 0.070, peak_rss_mb 0.013.
# setup_s spread by up to 0.19 and takes the largest bound allowed.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.22),
    ("op_p50_ms", "ms", "lower", 0.22),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("op_cpu_ms_mean", "ms", "lower", 0.22),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

_S = "s"
PER_LAYER = [
    ("resultants.sequence.calls", "count"),
    ("resultants.sequence.terms", "count"),
    ("resultants.sequence.self_s", _S),
    ("resultants.sequence.int_share", "ratio"),
    ("resultants.cyclic_resultant.direct.calls", "count"),
    ("resultants.cyclic_resultant.direct.s", _S),
    ("resultants.cyclic_resultant.companion.calls", "count"),
    ("resultants.cyclic_resultant.companion.s", _S),
    ("resultants.resultant.calls", "count"),
    ("resultants.resultant.s", _S),
    ("resultants.abs_sequence.s", _S),
    ("resultants.sign_data.s", _S),
    ("gaussian.add.calls", "count"),
    ("gaussian.sub.calls", "count"),
    ("gaussian.mul.calls", "count"),
    ("gaussian.neg.calls", "count"),
    ("gaussian.div.calls", "count"),
    ("dynamics.zeta_series.s", _S),
    ("dynamics.periodic_point_count.calls", "count"),
    ("dynamics.periodic_point_count.s", _S),
    ("dynamics.is_ergodic.calls", "count"),
    ("dynamics.char_poly.calls", "count"),
    ("polycore.parse.s", _S),
    ("polycore.has_root_of_unity.calls", "count"),
    ("polycore.has_root_of_unity.s", _S),
    ("polycore.roots_numeric.calls", "count"),
    ("polycore.roots_numeric.s", _S),
    ("polycore.try_exact_roots.calls", "count"),
    ("polycore.try_exact_roots.s", _S),
    ("polycore.try_exact_roots.hit_ratio", "ratio"),
    ("equivalence.equivalent_family.s", _S),
    ("equivalence.equivalent_family.self_s", _S),
    ("equivalence.real_equivalent_family.s", _S),
    ("equivalence.members", "count"),
    ("equivalence.unverified", "count"),
    ("equivalence.verified_ratio", "ratio"),
    ("genfun.generating_function.s", _S),
    ("genfun.abs_generating_function.s", _S),
    ("genfun.series_of.s", _S),
    ("groupring.match_factorizations.calls", "count"),
    ("groupring.match_factorizations.s", _S),
    ("groupring.match_factorizations.match_ratio", "ratio"),
    ("groupring.BinomialProduct.expand.s", _S),
    ("groebner.groebner_basis.calls", "count"),
    ("groebner.groebner_basis.s", _S),
    ("groebner.s_polynomial.calls", "count"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.s", _S),
    ("groebner.basis_size", "count"),
    ("groebner.solve_triangular.s", _S),
    ("reconstruct.reconstruct.calls", "count"),
    ("reconstruct.attempts_per_request", "count"),
    ("reconstruct.invert_closed.s", _S),
    ("reconstruct.invert_groebner.s", _S),
    ("reconstruct.invert_newton.calls", "count"),
    ("reconstruct.invert_newton.s", _S),
    ("reconstruct.invert_newton.verified_ratio", "ratio"),
    ("reconstruct.disambiguate_abs.s", _S),
    ("reconstruct.deadline_hits", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", _S),
    ("trace.overhead_ratio", "ratio"),
]

HIGHER_IS_BETTER = {
    "polycore.try_exact_roots.hit_ratio",
    "equivalence.members",
    "equivalence.verified_ratio",
    "groupring.match_factorizations.match_ratio",
    "reconstruct.invert_newton.verified_ratio",
}


def spec() -> dict:
    """The BENCHMARK.json this script implements."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in gen.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
            for n, u in PER_LAYER
        ],
    }


# ---------------------------------------------------------------------------
# program and inputs
# ---------------------------------------------------------------------------


def load_program():
    """Import cycres from src/ of this checkout, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cycres" / "__init__.py").is_file():
        sys.exit(f"bench: no cycres package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import cycres.cli

    if Path(cycres.cli.__file__).resolve().parent != (src / "cycres").resolve():
        sys.exit("bench: imported cycres from outside this checkout")
    return cycres.cli.main


def reference_time() -> float:
    """Fastest of three runs, so a garbage collection or cold caches left by
    the previous request do not read as a slow machine."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        oracles.cyclic_from_coeffs(REFERENCE_POLY, REFERENCE_TERMS)
        best = min(best, time.perf_counter() - t0)
    return best


def pin_to_one_cpu():
    """Keep the benchmark and its set-up probes on one CPU, so a request and
    the reference timed next to it run on the same core."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


def speed_scales(refs: list[float]) -> list[float]:
    """REFERENCE_S over the mean of the reference times that bracket each
    request; refs[i] is taken just after request i."""
    return [2 * REFERENCE_S / (refs[max(i - 1, 0)] + ref) for i, ref in enumerate(refs)]


def out_dir() -> Path:
    path = ROOT / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def set_up(workload: str, seed: int, main, input_dir: str):
    """Generate the inputs and run one warm-up pass: the work setup_s times."""
    ctx = gen.InputDir(input_dir)
    requests = gen.stream(workload, seed, ctx)
    for req in gen.warmup(workload, seed, ctx):
        outcome = client.call(main, req.argv, req.deadline_s)
        status, reason = checks.judge(req, outcome)
        if status != "ok":
            sys.exit(f"bench: warm-up request failed ({status}: {reason}): {req.argv}")
    return requests


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import cycres, build the inputs
    and run the warm-up pass, one after another, with the speed scale of
    reference times taken just before and after each."""
    times, scales = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        refs = [reference_time() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed: {proc.stderr.strip()}")
        refs += [reference_time() for _ in range(3)]
        scales.append(REFERENCE_S / statistics.median(refs))
    return times, scales


# ---------------------------------------------------------------------------
# running requests
# ---------------------------------------------------------------------------


class Log:
    """Per-request results of one pass or timed run."""

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, req, outcome, status, reason, pass_no):
        self.rows.append({
            "id": req.ident, "pass": pass_no, "kind": req.kind, "status": status, "reason": reason,
            "wall": outcome.wall, "cpu": outcome.cpu, "argv": req.argv,
            "tolerated": status in req.tolerate, "props": req.props,
        })

    @property
    def attempted(self) -> int:
        return len(self.rows)

    def failures(self) -> list[dict]:
        return [r for r in self.rows if r["status"] in checks.FAILURES]

    def correct(self) -> bool:
        return all(r["tolerated"] for r in self.failures())

    def count(self, status) -> int:
        return sum(r["status"] == status for r in self.rows)

    def wall(self) -> float:
        return sum(r["wall"] for r in self.rows)


def run_one(main, req, log: Log, limit=None, hooks=None, pass_no=0):
    if hooks:
        hooks[0](req.ident)
    outcome = client.call(main, req.argv, limit or req.deadline_s)
    if hooks:
        hooks[1](outcome.error != "deadline")
    status, reason = checks.judge(req, outcome)
    log.add(req, outcome, status, reason, pass_no)
    return outcome


def timed_run(main, requests, pass_len: int, seconds: float) -> Log:
    """Run whole passes of the stream until `seconds` of request time have
    passed and MIN_REQUESTS have been made, so every run holds the same mix
    of request kinds and at least ten requests beyond its 90th percentile."""
    log = Log()
    busy = 0.0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < 2 * seconds + 30:
        if i % pass_len == 0 and busy >= seconds and i >= MIN_REQUESTS:
            break
        busy += run_one(main, requests[i % len(requests)], log, pass_no=i // pass_len).wall
        log.rows[-1]["ref"] = reference_time()
        i += 1
    return log


def percentile(values, q: float) -> float:
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """The highest quantile up to 0.9 with at least ten samples beyond it."""
    return min(0.9, 1 - 10 / n) if n > 10 else 0.5


def finished(log: Log) -> list[bool]:
    return [r["status"] != "deadline" for r in log.rows]


def request_metrics(log: Log, scales) -> dict:
    """ops_per_s counts every request's time; the latency percentiles leave
    out requests cut by their deadline, whose time is the deadline, not the
    program's."""
    walls = [r["wall"] * k for r, k in zip(log.rows, scales)]
    done = [w for w, keep in zip(walls, finished(log)) if keep]
    return {
        "ops_per_s": log.count("ok") / sum(walls),
        "op_p50_ms": 1000 * statistics.median(done),
        "op_p90_ms": 1000 * percentile(done, tail_quantile(len(done))),
        "op_cpu_ms_mean": 1000 * statistics.fmean(r["cpu"] * k for r, k in zip(log.rows, scales)),
    }


def reference_scales(log: Log) -> list[float]:
    """Each request's speed scale; a request cut by its deadline lasted the
    deadline by the clock, whatever the machine's speed, so it is not scaled."""
    return [
        k if keep else 1.0
        for k, keep in zip(speed_scales([r["ref"] for r in log.rows]), finished(log))
    ]


def end_to_end(log: Log, setup) -> tuple[dict, dict, dict]:
    """Metrics scaled to the reference speed, the same unscaled, and the
    sample counts."""
    setup_times, setup_scales = setup
    n = log.attempted
    done = sum(finished(log))
    values = request_metrics(log, reference_scales(log))
    raw = request_metrics(log, [1.0] * n)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["peak_rss_mb"] = raw["peak_rss_mb"] = rss
    values["setup_s"] = statistics.median(t * k for t, k in zip(setup_times, setup_scales))
    raw["setup_s"] = statistics.median(setup_times)
    passes = len({r["pass"] for r in log.rows})
    samples = {"op_cpu_ms_mean": f"n={n} in {passes} passes"}
    samples["ops_per_s"] = f"{log.count('ok')} ok of {n} requests in {log.wall():.2f} s"
    samples["op_p50_ms"] = f"n={done} finished in {passes} passes"
    samples["op_p90_ms"] = f"n={done} finished, quantile {tail_quantile(done):.3f}"
    samples["peak_rss_mb"] = "1 process"
    samples["setup_s"] = f"median of {len(setup_times)} fresh interpreters"
    for key in ("ops_per_s", "op_p50_ms", "op_p90_ms", "op_cpu_ms_mean", "setup_s"):
        samples[key] += f"; unscaled {raw[key]:.6g}"
    return values, raw, samples


def traced_run(main, requests):
    """One pass with each request run untraced and with spans, then once
    more with operation counts.  Returns the per-layer values, the three logs
    and the tracer."""
    import cycres.gaussian

    tracer = spans.Tracer()
    plain, traced = Log(), Log()
    for n, req in enumerate(requests):
        # each request runs untraced and traced back to back, in alternating
        # order, so warm caches and the machine's speed favour neither pass
        for with_spans in (n % 2, 1 - n % 2):
            if with_spans:
                binder = spans.install_spans(tracer)
                try:
                    run_one(sys.modules["cycres.cli"].main, req, traced,
                            hooks=(tracer.begin, tracer.end))
                finally:
                    binder.restore()
                traced.rows[-1]["ref"] = reference_time()
            else:
                run_one(main, req, plain)
                plain.rows[-1]["ref"] = reference_time()

    # only requests that finished with spans are counted, with a deadline
    # far above their traced time
    traced_done = {r["id"] for r in traced.rows if r["status"] != "deadline"}
    counter = spans.OpCounter()
    counted = Log()
    binder = counter.install(cycres.gaussian.GaussianRational)
    try:
        for req in requests:
            if req.ident in traced_done:
                run_one(main, req, counted, limit=COUNT_PASS_DEADLINE_FACTOR * req.deadline_s,
                        hooks=(lambda rid: counter.begin(), counter.end))
    finally:
        binder.restore()

    both = traced_done & {r["id"] for r in plain.rows if r["status"] != "deadline"}
    plain_wall, traced_wall = (
        sum(r["wall"] for r in log.rows if r["id"] in both) for log in (plain, traced)
    )
    layer = spans.layer_totals(tracer.requests)
    for op in ("add", "sub", "mul", "neg", "div"):
        layer[f"gaussian.{op}.calls"] = counter.totals[op]
    layer["reconstruct.deadline_hits"] = tracer.deadline_hits
    layer["trace.overhead_ratio"] = traced_wall / plain_wall if plain_wall else 0.0
    return layer, (plain, traced, counted), tracer


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def by_kind(log: Log) -> dict:
    """Latency of each request kind, for attributing a change to inputs."""
    walls: dict[str, list[float]] = {}
    for row in log.rows:
        walls.setdefault(row["kind"], []).append(1000 * row["wall"])
    return {
        kind: {"n": len(w), "mean_ms": statistics.fmean(w), "p50_ms": statistics.median(w),
               "max_ms": max(w)}
        for kind, w in sorted(walls.items())
    }


def input_record(log: Log) -> dict:
    hist = {key: Counter() for key in ("degree", "coeff_class", "prefix_len", "route")}
    for row in log.rows:
        for key in hist:
            hist[key][str(row["props"][key])] += 1
    return {key: dict(sorted(c.items())) for key, c in hist.items()}


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "platform": platform.platform(),
    }


def report(args, log: Log, metrics: dict, units: dict, samples: dict, extra: dict, correct: bool):
    status = Counter(r["status"] for r in log.rows)
    failures = log.failures()
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": log.attempted,
        "outcomes": dict(status),
        "fail_ratio": len(failures) / log.attempted,
        "failures": [
            {"argv": r["argv"], "status": r["status"], "reason": r["reason"], "known": r["tolerated"]}
            for r in failures
        ],
        "inputs": input_record(log),
        "by_kind": by_kind(log),
        "requests": [
            [r["pass"], r["kind"], r["status"], round(1000 * r["wall"], 3), round(1000 * r["cpu"], 3),
             round(1000 * r.get("ref", 0.0), 4)]
            for r in log.rows
        ],
        "metrics": {k: {"value": v, "unit": units[k], "samples": samples.get(k, "")} for k, v in metrics.items()},
        **extra,
    }
    name = f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'e2e'}.json"
    (out_dir() / name).write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{log.attempted} requests, outcomes {dict(status)}, "
          f"fail_ratio {result['fail_ratio']:.4f}")
    for r in failures:
        known = "known" if r["tolerated"] else "UNEXPECTED"
        print(f"  failed ({known}) {r['status']}: {r['reason'][:100]} :: {' '.join(r['argv'])[:160]}")
    for key, value in metrics.items():
        print(f"  {key:48s} {value:14.6g} {units[key]:6s} {samples.get(key, '')}")
    print(f"  details: .bench_out/{name}")
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true",
                        help="print the BENCHMARK.json this script implements")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(json.dumps(spec(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    pin_to_one_cpu()
    cli_main = load_program()
    input_dir = tempfile.mkdtemp(prefix="inputs-", dir=out_dir())
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, cli_main, input_dir)
            return 0
        setup = None if args.trace else measure_setup(args.workload, args.seed)
        requests = set_up(args.workload, args.seed, cli_main, input_dir)
        if args.trace == 0:
            log = timed_run(cli_main, requests, len(gen.WORKLOADS[args.workload]), args.seconds)
            metrics, raw, samples = end_to_end(log, setup)
            units = {n: u for n, u, _, _ in END_TO_END}
            extra = {"raw_metrics": raw, "setup_probes_s": setup[0], "setup_scales": setup[1]}
            report(args, log, metrics, units, samples, extra, log.correct())
        else:
            one_pass = requests[: len(gen.WORKLOADS[args.workload])]
            layer, (plain, traced, counted), tracer = traced_run(cli_main, one_pass)
            tracer.dump(str(out_dir() / f"{args.workload}-seed{args.seed}-spans.jsonl"))
            units = dict(PER_LAYER)
            metrics = {n: float(layer.get(n, 0.0)) for n, _ in PER_LAYER}
            extra = {
                "all_layers": layer,
                "instrumented_failures": [
                    {"argv": r["argv"], "status": r["status"], "reason": r["reason"]}
                    for r in traced.failures() + counted.failures() if not r["tolerated"]
                ],
            }
            correct = plain.correct() and traced.correct() and counted.correct()
            report(args, plain, metrics, units, {}, extra, correct)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
