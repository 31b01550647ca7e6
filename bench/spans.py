"""Layer spans and operation counts, recorded from outside the program.

install_spans() wraps the public functions listed in LAYERS and rebinds each
wrapper in every cycres module namespace that holds the original: modules
import with `from .x import f`, so `sequence` lives in resultants,
equivalence, reconstruct, cli and the package itself, and a call between
layers goes through whichever name the caller holds.

Spans stay in memory, one record per span, [name, start, end, parent,
request, attrs]; parent is the index of the enclosing span within the same
request, or -1.  Only requests that finished are kept, so counts repeat
exactly; a request cut by its deadline is tallied on its own.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _is_integral(poly) -> bool:
    return all(c.is_integer() for c in poly.coeffs)


def _cyclic_name(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "direct")
    return f"resultants.cyclic_resultant.{method}"


def _reconstruct_method(args, kwargs, result):
    return {"method": args[0].method}


def _family_sizes(args, kwargs, result):
    if result is None:
        return {"members": 0, "unverified": 0}
    return {"members": len(result.members), "unverified": len(result.unverified)}


# (module, attribute, span name or name function, attrs function).  An attrs
# function sees the call's arguments and its result, None when it raised.
LAYERS = [
    ("cli", "main", "cli.main", None),
    ("polycore", "parse", "polycore.parse", None),
    ("polycore", "has_root_of_unity", "polycore.has_root_of_unity", None),
    ("polycore", "roots_numeric", "polycore.roots_numeric", None),
    ("polycore", "try_exact_roots", "polycore.try_exact_roots",
     lambda a, k, r: {"hit": r is not None}),
    ("resultants", "sequence", "resultants.sequence",
     lambda a, k, r: {"terms": a[1] if len(a) > 1 else k["length"], "int": _is_integral(a[0])}),
    ("resultants", "cyclic_resultant", _cyclic_name, None),
    ("resultants", "resultant", "resultants.resultant", None),
    ("resultants", "abs_sequence", "resultants.abs_sequence", None),
    ("resultants", "sign_data", "resultants.sign_data", None),
    ("dynamics", "zeta_series", "dynamics.zeta_series", None),
    ("dynamics", "periodic_point_count", "dynamics.periodic_point_count", None),
    ("dynamics", "is_ergodic", "dynamics.is_ergodic", None),
    ("dynamics", "char_poly", "dynamics.char_poly", None),
    ("equivalence", "equivalent_family", "equivalence.equivalent_family",
     _family_sizes),
    ("equivalence", "real_equivalent_family", "equivalence.real_equivalent_family",
     _family_sizes),
    ("genfun", "generating_function", "genfun.generating_function", None),
    ("genfun", "abs_generating_function", "genfun.abs_generating_function", None),
    ("genfun", "series_of", "genfun.series_of", None),
    ("groupring", "match_factorizations", "groupring.match_factorizations",
     lambda a, k, r: {"match": r is not None}),
    ("groupring", "BinomialProduct.expand", "groupring.BinomialProduct.expand", None),
    ("groebner", "groebner_basis", "groebner.groebner_basis", lambda a, k, r: {"size": len(r or ())}),
    ("groebner", "s_polynomial", "groebner.s_polynomial", None),
    ("groebner", "normal_form", "groebner.normal_form", None),
    ("groebner", "solve_triangular", "groebner.solve_triangular", None),
    ("reconstruct", "reconstruct", "reconstruct.reconstruct", _reconstruct_method),
    ("reconstruct", "invert_closed", "reconstruct.invert_closed", None),
    ("reconstruct", "invert_groebner", "reconstruct.invert_groebner", None),
    ("reconstruct", "invert_newton", "reconstruct.invert_newton",
     lambda a, k, r: {"verified": r is not None and r.verified}),
    ("reconstruct", "disambiguate_abs", "reconstruct.disambiguate_abs", None),
]

# GaussianRational dunders, counted one by one: __radd__ and __rmul__ are
# aliases bound when the class was made, so each name is replaced alone.
GAUSSIAN_OPS = {
    "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul",
    "__neg__": "neg",
    "__truediv__": "div",
}


class Tracer:
    def __init__(self):
        self.requests: list[list[list]] = []  # spans of each finished request
        self.deadline_hits = 0
        self._open: list[list] = []
        self._stack: list[int] = []
        self._rid = -1

    def begin(self, rid: int):
        self._rid = rid
        self._open = []
        self._stack = []

    def end(self, finished: bool):
        if finished:
            self.requests.append(self._open)
        else:
            self.deadline_hits += 1
        self._open = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [span_name, time.perf_counter(), 0.0, parent, tracer._rid, None]
            tracer._stack.append(len(tracer._open))
            tracer._open.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
                if attrs is not None:
                    rec[5] = attrs(args, kwargs, result)

        return wrapper

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for spans in self.requests:
                for rec in spans:
                    fh.write(json.dumps(rec) + "\n")


class Rebinder:
    """Replaces attributes and puts every original back on restore()."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def _cycres_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "cycres" or name.startswith("cycres.")]


def install_spans(tracer: Tracer) -> Rebinder:
    binder = Rebinder()
    modules = _cycres_modules()
    for modname, attr, name, attrs in LAYERS:
        module = sys.modules[f"cycres.{modname}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            binder.replace(cls, method, tracer.wrap(name, vars(cls)[method], attrs))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, attrs)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    binder.replace(mod, key, wrapper)
    return binder


class OpCounter:
    """Counts GaussianRational arithmetic per request; keeps finished ones."""

    def __init__(self):
        self.totals: Counter = Counter()
        self._pending: Counter = Counter()

    def begin(self):
        self._pending = Counter()

    def end(self, finished: bool):
        if finished:
            self.totals.update(self._pending)
        self._pending = Counter()

    def install(self, cls) -> Rebinder:
        binder = Rebinder()
        for dunder, op in GAUSSIAN_OPS.items():
            original = vars(cls)[dunder]
            binder.replace(cls, dunder, self._counting(original, op))
        return binder

    def _counting(self, original, op):
        counter = self

        def wrapper(*args):
            counter._pending[op] += 1
            return original(*args)

        return wrapper


# ---------------------------------------------------------------------------
# per-layer arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.  One
    request runs on one thread, so children are disjoint intervals."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no enclosing span of the same name, so inclusive
    times of recursive layers are not counted twice."""
    ancestors: list[frozenset] = []
    out = []
    for rec in spans:
        parent = rec[3]
        above = frozenset() if parent < 0 else ancestors[parent] | {spans[parent][0]}
        ancestors.append(above)
        out.append(rec[0] not in above)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_totals(requests) -> dict[str, float]:
    """calls, inclusive seconds and self seconds for every span name, plus
    the attribute tallies the per-layer metrics need."""
    calls: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    tally: defaultdict = defaultdict(float)
    reconstruct_requests = 0
    for spans in requests:
        selfs = self_times(spans)
        outer = outermost(spans)
        touched_reconstruct = False
        for rec, own, top in zip(spans, selfs, outer):
            name, start, end, _, _, attrs = rec
            calls[name] += 1
            self_s[name] += own
            if top:
                incl[name] += end - start
            attrs = attrs or {}
            if name == "resultants.sequence":
                tally["seq.terms"] += attrs["terms"]
                if attrs["int"]:
                    tally["seq.int_s"] += end - start
            elif name in ("equivalence.equivalent_family", "equivalence.real_equivalent_family"):
                tally["members"] += attrs["members"]
                tally["unverified"] += attrs["unverified"]
            elif name == "polycore.try_exact_roots":
                tally["exact_hits"] += attrs["hit"]
            elif name == "groupring.match_factorizations":
                tally["matches"] += attrs["match"]
            elif name == "groebner.groebner_basis":
                tally["basis_size"] += attrs["size"]
            elif name == "reconstruct.invert_newton":
                tally["newton_verified"] += attrs["verified"]
            elif name == "reconstruct.reconstruct":
                touched_reconstruct = True
                tally["route_attempts"] += attrs["method"] != "auto"
        reconstruct_requests += touched_reconstruct

    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = self_s[name]
    members, unverified = tally["members"], tally["unverified"]
    out.update({
        "resultants.sequence.terms": tally["seq.terms"],
        "resultants.sequence.int_share": _ratio(tally["seq.int_s"], incl["resultants.sequence"]),
        "polycore.try_exact_roots.hit_ratio": _ratio(tally["exact_hits"], calls["polycore.try_exact_roots"]),
        "equivalence.members": members,
        "equivalence.unverified": unverified,
        "equivalence.verified_ratio": _ratio(members, members + unverified),
        "groupring.match_factorizations.match_ratio": _ratio(tally["matches"], calls["groupring.match_factorizations"]),
        "groebner.basis_size": _ratio(tally["basis_size"], calls["groebner.groebner_basis"]),
        "reconstruct.invert_newton.verified_ratio": _ratio(tally["newton_verified"], calls["reconstruct.invert_newton"]),
        "reconstruct.attempts_per_request": _ratio(tally["route_attempts"], reconstruct_requests),
    })
    return out
