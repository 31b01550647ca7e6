"""Command-line front end: JSON in, JSON out, deterministic bytes.

Exit codes: 0 success, 1 usage error, 2 domain error (structured
{code, message, context} JSON on stdout, never a stack trace).
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .config import Config
from .dynamics import IntegerMatrix, periodic_point_counts
from .equivalence import DEFAULT_CHECK_LENGTH, equivalent_family, real_equivalent_family
from .errors import CycResError
from .gaussian import GaussianRational
from .genfun import (
    abs_generating_function,
    exp_neg_weighted_series_exact,
    generating_function,
    series_of,
)
from .groupring import BinomialProduct, FgAbelianGroup, match_factorizations
from .polycore import Polynomial, format_poly, parse
from .reconstruct import (
    Disambiguation,
    ReconstructionSpec,
    conjecture_harness,
    disambiguate_abs,
    reconstruct,
)
from .resultants import ResultantSequence, abs_sequence, sequence


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise _UsageError(message)


def _render_value(v: GaussianRational):
    """Compact JSON value: int when integral, "p/q" string when real, quad
    strings otherwise."""
    if v.is_integer():
        return int(v.re)
    if v.is_real():
        return str(v.re)
    return v.to_quad()


def _render_series(coeffs) -> list[list[float]]:
    return [[complex(c).real, complex(c).imag] for c in coeffs]


def _parse_rational_values(text: str) -> list[GaussianRational]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise _UsageError("empty value in --values")
        try:
            out.append(GaussianRational(Fraction(chunk)))
        except ZeroDivisionError:
            raise _UsageError(f"zero denominator in --values: {chunk}") from None
    return out


# Value options whose value may start with a dash, and what may follow it.
_DASH_VALUES = {"--values": r"-[\d.]", "--poly": r"-[\dx(]"}


def _glue_dash_values(argv: list[str]) -> list[str]:
    """`--values -3,5` -> `--values=-3,5`, `--poly -x+2` -> `--poly=-x+2`:
    argparse reads a dash-led token that is not a plain negative number as
    an option, not as the value."""
    out: list[str] = []
    for arg in argv:
        pattern = _DASH_VALUES.get(out[-1]) if out else None
        if pattern and re.match(pattern, arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _emit(payload: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _load_json_arg(value: str) -> dict:
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(value)


def build_parser() -> _Parser:
    parser = _Parser(prog="cycres", description=__doc__)
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="cyclic-resultant sequence of a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--abs", action="store_true", dest="use_abs")
    p.add_argument(
        "--exact-json",
        action="store_true",
        help="emit the full quad-string wire schema instead of compact values",
    )

    p = sub.add_parser("equiv", help="family sharing the (absolute) sequence")
    p.add_argument("--poly", required=True)
    p.add_argument("--real", action="store_true")
    p.add_argument("--l1", type=int, default=None)
    p.add_argument("--check", type=int, default=DEFAULT_CHECK_LENGTH)

    p = sub.add_parser("reconstruct", help="invert a resultant prefix")
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--values", required=True)
    p.add_argument("--abs", action="store_true", dest="use_abs")
    p.add_argument("--monic", action="store_true")
    p.add_argument("--reciprocal", action="store_true")
    p.add_argument(
        "--method",
        choices=["closed", "groebner", "newton", "auto"],
        default="auto",
    )
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("zeta", help="periodic-point zeta series of an integer matrix")
    p.add_argument("--matrix", required=True, help="path to matrix JSON")
    p.add_argument("--order", required=True, type=int)

    p = sub.add_parser("grcheck", help="match two group-ring binomial products")
    p.add_argument("--group", required=True, help='e.g. "rank=2;torsion=3"')
    p.add_argument("--left", required=True, help="product JSON or @file")
    p.add_argument("--right", required=True, help="product JSON or @file")

    p = sub.add_parser("genfun", help="generating function of the sequence")
    p.add_argument("--poly", required=True)
    p.add_argument("--abs", action="store_true", dest="use_abs")
    p.add_argument("--order", type=int, default=None)

    p = sub.add_parser("conjecture", help="empirical d+1-prefix reconstruction harness")
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _poly_payload(p: Polynomial) -> dict:
    return {"poly": format_poly(p), "coeffs": p.to_json()["coeffs"]}


def _cmd_seq(args) -> dict:
    f = parse(args.poly)
    seq = abs_sequence(f, args.n) if args.use_abs else sequence(f, args.n)
    if args.exact_json:
        return seq.to_json()
    return {
        "is_abs": seq.is_abs,
        "values": [_render_value(v) for v in seq.values],
    }


def _cmd_equiv(args) -> dict:
    g = parse(args.poly)
    if args.real:
        family = real_equivalent_family(g, check_length=args.check)
    else:
        family = equivalent_family(g, l1=args.l1, check_length=args.check)
    members = []
    for member, record in zip(family.members, family.subset_log):
        entry = _poly_payload(member)
        entry["reversed_roots"] = list(record.reversed_roots)
        entry["sign"] = record.sign
        members.append(entry)
    return {
        "base": format_poly(g),
        "l1": family.l1,
        "count": len(family),
        "members": members,
        "unverified_float_members": len(family.unverified),
    }


def _reconstruct_plain(args, cfg: Config, values) -> dict:
    shape = (
        "monic-reciprocal"
        if args.reciprocal
        else ("monic" if args.monic else "general")
    )
    spec = ReconstructionSpec(
        degree=args.degree,
        shape=shape,
        values=ResultantSequence(tuple(values)),
        method=args.method,
    )
    outcome = reconstruct(
        spec,
        restarts=cfg.newton_restarts if args.restarts is None else args.restarts,
        seed=cfg.seed if args.seed is None else args.seed,
    )
    if outcome.polynomial is None:
        return {
            "polynomial": None,
            "float_coeffs": list(outcome.float_coeffs),
            "method": outcome.method,
            "verified": False,
            "warning": "rationalization failed; float-only candidate",
        }
    out = {
        "polynomial": format_poly(outcome.polynomial),
        "coeffs": outcome.polynomial.to_json()["coeffs"],
        "method": outcome.method,
        "verified": outcome.verified,
    }
    if len(outcome.candidates) > 1:
        out["candidates"] = [format_poly(c) for c in outcome.candidates]
    return out


def _cmd_reconstruct(args, cfg: Config) -> dict:
    if args.degree < 0:
        raise _UsageError("--degree must be >= 0")
    if args.restarts is not None and args.restarts < 1:
        raise _UsageError("--restarts must be >= 1")
    if args.seed is not None and args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    values = _parse_rational_values(args.values)
    if args.use_abs:
        seq = ResultantSequence(tuple(values), is_abs=True)
        result: Disambiguation = disambiguate_abs(
            seq, args.degree, monic=args.monic or args.reciprocal
        )
        return {
            "polynomial": format_poly(result.polynomial),
            "coeffs": result.polynomial.to_json()["coeffs"],
            "method": "abs-disambiguation",
            "verified": True,
            "base_sign": result.base_sign,
            "alt_sign": result.alt_sign,
            "attempts": [list(a) for a in result.attempts],
        }
    return _reconstruct_plain(args, cfg, values)


def _cmd_zeta(args) -> dict:
    if args.order < 0:
        raise _UsageError("--order must be >= 0")
    with open(args.matrix, "r", encoding="utf-8") as fh:
        matrix = IntegerMatrix.from_json(json.load(fh))
    counts = periodic_point_counts(matrix, args.order)
    return {
        "order": args.order,
        "counts": [str(c) for c in counts],
        "coefficients": _render_series(exp_neg_weighted_series_exact(counts, args.order)),
    }


def _cmd_grcheck(args) -> dict:
    group = FgAbelianGroup.parse_spec(args.group)
    left = BinomialProduct.from_json(group, _load_json_arg(args.left))
    right = BinomialProduct.from_json(group, _load_json_arg(args.right))
    match = match_factorizations(left, right)
    if match is None:
        return {"match": False, "expansions_equal": left.expand() == right.expand()}
    return match.to_json()


def _cmd_genfun(args) -> dict:
    if args.order is not None and args.order < 0:
        raise _UsageError("--order must be >= 0")
    f = parse(args.poly)
    rep = abs_generating_function(f) if args.use_abs else generating_function(f)
    payload = {"rep": rep.to_json()}
    if args.order is not None:
        payload["series"] = _render_series(series_of(rep, args.order).coeffs)
    return payload


def _cmd_conjecture(args, cfg: Config) -> dict:
    if args.degree < 0:
        raise _UsageError("--degree must be >= 0")
    if args.trials < 0:
        raise _UsageError("--trials must be >= 0")
    if args.seed is not None and args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    if args.seed is not None:
        seed = args.seed
    elif "CYCRES_SEED" in os.environ:
        seed = int(os.environ["CYCRES_SEED"])
    else:
        seed = cfg.seed
    report = conjecture_harness(args.degree, args.trials, seed=seed)
    payload = report.to_json()
    payload["seed"] = seed
    return payload


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _glue_dash_values(sys.argv[1:] if argv is None else list(argv))
        )
        # argparse reads "--opt=--" as an empty list, not as a missing value
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise _UsageError(f"argument {name}: expected one argument")
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    try:
        cfg = Config.load(args.config) if args.config else Config()
        if args.command == "seq":
            payload = _cmd_seq(args)
        elif args.command == "equiv":
            payload = _cmd_equiv(args)
        elif args.command == "reconstruct":
            payload = _cmd_reconstruct(args, cfg)
        elif args.command == "zeta":
            payload = _cmd_zeta(args)
        elif args.command == "grcheck":
            payload = _cmd_grcheck(args)
        elif args.command == "genfun":
            payload = _cmd_genfun(args)
        elif args.command == "conjecture":
            payload = _cmd_conjecture(args, cfg)
        else:  # pragma: no cover
            raise _UsageError(f"unknown command {args.command}")
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except CycResError as exc:
        sys.stdout.write(_emit(exc.to_json(), args.pretty))
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stdout.write(
            _emit({"code": "invalid_input", "message": str(exc), "context": {}}, args.pretty)
        )
        return 2
    sys.stdout.write(_emit(payload, args.pretty))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
