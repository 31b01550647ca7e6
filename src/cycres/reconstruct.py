"""Recovering a polynomial from a prefix of its cyclic resultants.

Three routes, in increasing generality:

* printed closed forms for degree 1 (general), degrees 2 and 3 (monic) and
  the degree-6 monic reciprocal (CLOSED_FORMS);
* a lexicographic Groebner basis of the system { r_m - Res(f, x^m - 1) } with
  symbolic coefficients, solved by back substitution (monic degree <= 4,
  general degree <= 3: groebner_degree_limit);
* a damped Gauss-Newton iteration on the float map coefficients -> r_m, each
  r_m a product of f over the m-th roots of unity, with continued-fraction
  rationalization and exact verification.

Every successful answer has reproduced the input values exactly; a numeric
candidate that fails rationalization is handed back unverified and flagged.
"""
from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass

from .errors import (
    ConvergenceError,
    CycResError,
    DegenerateInputError,
    DegreeGuardError,
    NoSolutionError,
    PreconditionError,
    UnitIdealError,
    VerificationError,
    ZeroResultantError,
)
from .gaussian import GaussianRational
from .groebner import (
    MultiPoly,
    groebner_basis,
    is_unit_ideal,
    solve_triangular,
    sym_det,
)
from .polycore import (
    RATIONALIZE_DENOMINATOR_BOUND,
    Polynomial,
    has_root_of_unity,
    rationalize,
)
from .resultants import ResultantSequence, _sylvester, reproduces, sequence

NEWTON_MAX_ITER = 60
DEFAULT_RESTARTS = 16
DEFAULT_SEED = 0
AUTO = "auto"


def _values_list(values) -> list[GaussianRational]:
    if isinstance(values, ResultantSequence):
        return list(values.values)
    return [GaussianRational.of(v) for v in values]


def _require(values, count: int, **context) -> list[GaussianRational]:
    vals = _values_list(values)
    if len(vals) < count:
        raise PreconditionError(
            "not enough resultant values", needed=count, got=len(vals), **context
        )
    return vals


# ---------------------------------------------------------------------------
# printed closed forms
# ---------------------------------------------------------------------------


def _linear_lead(r1, r2):
    """Leading coefficient of a linear polynomial from r_1, r_2, derived from
    the identity r_m = (-a_1)^m - a_0^m."""
    return (r2 - r1 * r1) / (2 * r1)


def _linear_lead_squared_variant(r1, r2):
    """Transcribed alternative (r_2^2 - r_1) / (2 r_1); fails the round-trip
    oracle on essentially every input and is retained only for the
    regression audit."""
    return (r2 * r2 - r1) / (2 * r1)


def _linear(r1, r2) -> Polynomial:
    if r1.is_zero():
        raise DegenerateInputError("denominator 2*r_1 vanishes", denominator="2*r_1")
    a0 = _linear_lead(r1, r2)
    a1 = (-r1 * r1 - r2) / (2 * r1)
    if a0.is_zero():
        raise DegenerateInputError(
            "recovered leading coefficient is zero", denominator="lead"
        )
    return Polynomial([a1, a0])


def _quadratic(r1, r2) -> Polynomial:
    if r1.is_zero():
        raise DegenerateInputError("denominator 2*r_1 vanishes", denominator="2*r_1")
    a1 = (r1 * r1 - r2) / (2 * r1)
    a2 = (r1 * r1 - 2 * r1 + r2) / (2 * r1)
    return Polynomial([a2, a1, 1])


def _cubic(r1, r2, r3, r4) -> Polynomial:
    if r1.is_zero() or r2.is_zero():
        raise DegenerateInputError(
            "denominator 24*r_2*r_1^2 vanishes", denominator="24*r_2*r_1^2"
        )
    a1 = (
        -12 * r2 * r1**3
        - 12 * r1 * r2**2
        + 3 * r2**3
        - r2 * r1**4
        - 8 * r2 * r1 * r3
        + 6 * r1**2 * r4
    ) / (24 * r2 * r1**2)
    a2 = (-r1 * r1 - 2 * r1 + r2) / (2 * r1)
    a3 = (
        -3 * r2**3 + r2 * r1**4 + 8 * r2 * r1 * r3 - 6 * r1**2 * r4
    ) / (24 * r1**2 * r2)
    return Polynomial([a3, a2, a1, 1])


def _sextic_reciprocal(r1, r2, r3, r4) -> Polynomial:
    if r1.is_zero():
        raise DegenerateInputError("denominator 4*r_1 vanishes", denominator="4*r_1")
    p_num = (
        -540 * r1**2 * r2 * r4
        - 13824 * r1**3 * r2
        + r1**6 * r2
        + 27 * r2**3 * r1**2
        + 9 * r1**4 * r2**2
        + 27 * r2**4
        - 432 * r1**3 * r2**2
        - 648 * r1 * r2**3
        - 72 * r1**5 * r2
        - 448 * r3 * r1**3 * r2
        + 192 * r3 * r1 * r2**2
        + 108 * r1**4 * r4
        + 1536 * r1**2 * r2 * r3
        + 2592 * r1**3 * r4
        + 1728 * r1**4 * r2
        + 5184 * r1**2 * r2**2
    )
    q_den = r1**2 * (-16 * r3 * r2 + 9 * r4 * r1)
    r_num = (
        -648 * r1 * r2**3
        + 27 * r2**3 * r1**2
        + 27 * r2**4
        - 576 * r3 * r1 * r2**2
        + 2592 * r1**3 * r4
        + r1**6 * r2
        - 72 * r1**5 * r2
        + 9 * r1**4 * r2**2
        + 1728 * r1**4 * r2
        - 432 * r1**3 * r2**2
        + 320 * r3 * r1**3 * r2
        - 324 * r1**4 * r4
        - 13824 * r1**3 * r2
        + 5184 * r1**2 * r2**2
        + 1536 * r1**2 * r2 * r3
        - 108 * r1**2 * r2 * r4
    )
    if q_den.is_zero():
        raise DegenerateInputError("denominator Q vanishes", denominator="Q")
    a1 = p_num / (192 * q_den)
    a2 = (-4 * r1 + r1 * r1 + r2) / (4 * r1)
    a3 = -r_num / (96 * q_den)
    return Polynomial([1, a1, a2, a3, a2, a1, 1])


# (shape, degree) -> (values read, formula, name in errors)
CLOSED_FORMS = {
    ("general", 1): (2, _linear, "linear closed form"),
    ("monic", 2): (2, _quadratic, "quadratic closed form"),
    ("monic", 3): (4, _cubic, "cubic closed form"),
    ("monic-reciprocal", 6): (4, _sextic_reciprocal, "sextic reciprocal closed form"),
}


def invert_closed(values, d: int, shape: str = "monic") -> Polynomial:
    """Closed-form inversion for the printed small cases in CLOSED_FORMS:
    d=1 general, d=2 and d=3 monic, and d=6 monic reciprocal.

    A vanishing formula denominator raises a degenerate-input error naming
    it; an answer that does not reproduce every given value raises
    VerificationError.
    """
    entry = CLOSED_FORMS.get((shape, d))
    if entry is None:
        raise PreconditionError(
            "no closed form for this degree/shape", degree=d, shape=shape
        )
    count, formula, name = entry
    vals = _require(values, count, degree=d)
    candidate = formula(*vals[:count])
    if not reproduces(candidate, vals):
        raise VerificationError(
            f"{name} reproduced different resultants",
            candidate=str(candidate),
            expected=[str(v) for v in vals],
            got=[str(v) for v in sequence(candidate, len(vals)).values],
        )
    return candidate


# ---------------------------------------------------------------------------
# symbolic resultants and the Groebner route
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def symbolic_cyclic_resultant(d: int, m: int, monic: bool) -> MultiPoly:
    """Res(f, x^m - 1) with unknown coefficients, as an exact polynomial.

    Variables are a_1..a_d (monic) or a_0..a_d, descending-coefficient
    notation, most significant first under lex.  The Sylvester determinant is
    expanded once per (d, m, monic) and cached.
    """
    nvars = d if monic else d + 1

    def coeff_var(k: int) -> MultiPoly:
        # a_k in descending notation
        if monic:
            if k == 0:
                return MultiPoly.const(nvars, 1)
            return MultiPoly.variable(nvars, k - 1)
        return MultiPoly.variable(nvars, k)

    f_desc = [coeff_var(k) for k in range(d + 1)]
    g_desc = (
        [MultiPoly.const(nvars, 1)]
        + [MultiPoly.const(nvars, 0)] * (m - 1)
        + [MultiPoly.const(nvars, -1)]
    )
    return sym_det(_sylvester(f_desc, g_desc, MultiPoly.const(nvars, 0)))


GROEBNER_EQUATION_LIMIT = 5


def groebner_degree_limit(monic: bool) -> int:
    """Highest degree the Groebner route admits for a coefficient shape.

    Measured: a monic quartic solves in 30-60 ms, while a monic quintic and
    a general quartic each ran past 120 s.  Monic-reciprocal counts as monic.
    """
    return 4 if monic else 3


def invert_groebner(values, d: int, monic: bool = True) -> list[Polynomial]:
    """All exactly-verified polynomials fitting the given resultant prefix.

    Builds the ideal of the defining equations with symbolic coefficients,
    takes its lex Groebner basis, and back-substitutes.  The unit ideal
    raises UnitIdealError (a NoSolutionError), which is the working signal
    for the wrong branch of an absolute-value lift.  At most the first five
    values feed the ideal (desk-scale guard); every solution is still
    verified against the full input, so extra values tighten the answer
    without growing the system.
    """
    limit = groebner_degree_limit(monic)
    if d > limit:
        raise DegreeGuardError("symbolic route is desk-scale only", degree=d, limit=limit)
    nvars = d if monic else d + 1
    vals = _require(values, nvars)
    gens = [
        symbolic_cyclic_resultant(d, m, monic) - vals[m - 1]
        for m in range(1, min(len(vals), GROEBNER_EQUATION_LIMIT) + 1)
    ]
    basis = groebner_basis(gens)
    if is_unit_ideal(basis):
        raise UnitIdealError(
            "the system has no solution (unit ideal)", degree=d, monic=monic
        )
    out = []
    for sol in solve_triangular(basis, nvars):
        if monic:
            ascending = [sol[d - 1 - i] for i in range(d)] + [GaussianRational(1)]
        else:
            ascending = [sol[d - i] for i in range(d + 1)]
        candidate = Polynomial(ascending)
        if candidate.degree != d:
            continue  # leading coefficient vanished: not a degree-d answer
        if reproduces(candidate, vals):
            out.append(candidate)
    return sorted(set(out), key=Polynomial.sort_key)


# ---------------------------------------------------------------------------
# numeric route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonResult:
    polynomial: Polynomial | None
    float_coeffs: tuple[float, ...]
    verified: bool
    residual: float
    starts_used: int


def _float_resultants(asc: list[float], count: int) -> list[float] | None:
    """r_1..r_count of the float polynomial asc, or None when its leading
    coefficient is (near) zero or a value overflows.

    r_m = Res(f, x^m - 1) = (-1)^(dm) * prod over zeta^m = 1 of f(zeta), with
    f evaluated by Horner at the m-th roots of unity: no roots of f needed.
    """
    if abs(asc[-1]) < 1e-12:
        return None
    d = len(asc) - 1
    desc = asc[::-1]
    out = []
    for m in range(1, count + 1):
        value = complex(1.0)
        for k in range(m):
            zeta = cmath.exp(2j * math.pi * k / m)
            f_zeta = 0j
            for c in desc:
                f_zeta = f_zeta * zeta + c
            value *= f_zeta
        real = -value.real if d * m % 2 else value.real
        if not math.isfinite(real):
            return None
        out.append(real)
    return out


def _solve_normal_equations(cols, resid):
    """Least-squares step from the columns of J and the residual via the
    normal equations."""
    k = len(cols)
    ata = [[sum(a * b for a, b in zip(cols[i], cols[j])) for j in range(k)] for i in range(k)]
    atb = [-sum(a * r for a, r in zip(cols[i], resid)) for i in range(k)]
    for i in range(k):
        ata[i][i] += 1e-12
    # gaussian elimination with partial pivoting
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(ata[r][col]))
        if abs(ata[pivot][col]) < 1e-300:
            return None
        if pivot != col:
            ata[col], ata[pivot] = ata[pivot], ata[col]
            atb[col], atb[pivot] = atb[pivot], atb[col]
        inv = ata[col][col]
        for r in range(col + 1, k):
            factor = ata[r][col] / inv
            if factor:
                for c in range(col, k):
                    ata[r][c] -= factor * ata[col][c]
                atb[r] -= factor * atb[col]
    step = [0.0] * k
    for i in range(k - 1, -1, -1):
        s = atb[i] - sum(ata[i][j] * step[j] for j in range(i + 1, k))
        step[i] = s / ata[i][i]
    return step


def invert_newton(
    values,
    d: int,
    monic: bool = True,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> NewtonResult:
    """Damped Gauss-Newton on the coefficient -> resultant-prefix map.

    The residual evaluates each r_m as a product of f over the m-th roots of
    unity (_float_resultants), with no root finding.  An iterate whose values
    overflow has no residual: the start, Jacobian or damped trial that needed
    it is dropped.

    Multi-start from deterministic pseudo-random points; the Jacobian comes
    from central finite differences with relative step 1e-6.  A converged
    float vector is rationalized by continued fractions (denominators up to
    1e6) and accepted only when the exact sequence reproduces the input;
    otherwise the best float candidate is returned with verified=False.
    """
    if restarts < 1:
        raise PreconditionError("restarts must be positive", restarts=restarts)
    k = d if monic else d + 1
    vals = _require(values, k + 1)
    for v in vals:
        if not v.is_real():
            raise PreconditionError("numeric route expects real resultant values")
    targets = [float(v.re) for v in vals]
    weights = [max(1.0, abs(t)) for t in targets]
    rng = random.Random(seed)

    def assemble(vec: list[float]) -> list[float]:
        return list(vec) + [1.0] if monic else list(vec)

    def residual(vec):
        rs = _float_resultants(assemble(vec), len(targets))
        if rs is None:
            return None
        return [(a - b) / w for a, b, w in zip(rs, targets, weights)]

    best_float: tuple[float, list[float]] | None = None
    for start in range(restarts):
        vec = [rng.uniform(-10, 10) for _ in range(k)]
        f_val = residual(vec)
        if f_val is None:
            continue
        norm = max(abs(x) for x in f_val)
        for _ in range(NEWTON_MAX_ITER):
            cols = []
            for j in range(k):
                h = 1e-6 * max(1.0, abs(vec[j]))
                up = vec[:]
                down = vec[:]
                up[j] += h
                down[j] -= h
                fu = residual(up)
                fd = residual(down)
                if fu is None or fd is None:
                    break
                cols.append([(a - b) / (2 * h) for a, b in zip(fu, fd)])
            if len(cols) < k:
                break
            step = _solve_normal_equations(cols, f_val)
            if step is None:
                break
            damping = 1.0
            improved = False
            for _ in range(10):
                trial = [v + damping * s for v, s in zip(vec, step)]
                f_trial = residual(trial)
                if f_trial is not None:
                    trial_norm = max(abs(x) for x in f_trial)
                    if trial_norm < norm:
                        vec, f_val, norm = trial, f_trial, trial_norm
                        improved = True
                        break
                damping /= 2
            if not improved:
                break
            if norm <= 1e-9:
                break
        if norm <= 1e-7:
            coeffs = assemble(vec)
            # coarse-to-fine rationalization: exact resequencing is the gate,
            # and a coarse bound absorbs the slow convergence at double roots
            # (reciprocal inputs make the system Jacobian singular)
            for bound in (10, 1000, RATIONALIZE_DENOMINATOR_BOUND):
                exact = Polynomial([rationalize(c, bound) for c in coeffs])
                if exact.degree == d and reproduces(exact, vals):
                    return NewtonResult(
                        polynomial=exact,
                        float_coeffs=tuple(coeffs),
                        verified=True,
                        residual=norm,
                        starts_used=start + 1,
                    )
            if best_float is None or norm < best_float[0]:
                best_float = (norm, coeffs)
    if best_float is not None:
        return NewtonResult(
            polynomial=None,
            float_coeffs=tuple(best_float[1]),
            verified=False,
            residual=best_float[0],
            starts_used=restarts,
        )
    raise ConvergenceError(
        "no start converged", degree=d, restarts=restarts
    )


# ---------------------------------------------------------------------------
# absolute-value disambiguation
# ---------------------------------------------------------------------------

SIGN_PATTERNS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


def _exact_answers(
    values, d: int, monic: bool, restarts=DEFAULT_RESTARTS, seed=DEFAULT_SEED
) -> list[Polynomial]:
    """Exactly verified answers: every Groebner solution up to
    groebner_degree_limit(monic), above it Newton's answer when it verified."""
    if d <= groebner_degree_limit(monic):
        return invert_groebner(values, d, monic)
    result = invert_newton(values, d, monic, restarts=restarts, seed=seed)
    return [result.polynomial] if result.verified else []


@dataclass(frozen=True)
class Disambiguation:
    polynomial: Polynomial
    base_sign: int
    alt_sign: int
    attempts: tuple[tuple[int, int, int], ...]  # (base, alt, candidate count)


def disambiguate_abs(
    values, d: int, monic: bool = True, restarts=DEFAULT_RESTARTS, seed=DEFAULT_SEED
) -> Disambiguation:
    """Recover a polynomial from absolute resultant values.

    All four sign patterns base * alt^m are lifted to candidate exact
    sequences, inverted, and verified by comparing absolute sequences with
    the input; the attempts field reports every pattern's candidate count.
    The two constant-sign patterns are the classical lifts and take priority;
    the alternating patterns are consulted only when neither constant-sign
    lift admits an answer (they do fire: |r_m| of x+2 comes from an
    alternating true sequence).  Several answers inside one priority tier
    mean non-generic input and raise rather than guess.  restarts and seed
    reach Newton, which inverts each lift above groebner_degree_limit(monic):
    monic degree 5 and up, general degree 4 and up.
    """
    vals = _values_list(values)
    if any(not v.is_real() or v.re <= 0 for v in vals):
        raise PreconditionError("absolute values must be positive reals")
    by_pattern: dict[tuple[int, int], list[Polynomial]] = {}
    attempts = []
    for base, alt in SIGN_PATTERNS:
        lifted = [
            v * (base * (alt if m % 2 else 1))
            for m, v in zip(range(1, len(vals) + 1), vals)
        ]
        try:
            candidates = _exact_answers(lifted, d, monic, restarts, seed)
        except (NoSolutionError, ConvergenceError, PreconditionError):
            candidates = []
        verified = [c for c in candidates if reproduces(c, vals, use_abs=True)]
        attempts.append((base, alt, len(verified)))
        by_pattern[(base, alt)] = verified

    for tier in (((1, 1), (-1, 1)), ((1, -1), (-1, -1))):
        tier_hits = [
            (cand, base, alt)
            for (base, alt) in tier
            for cand in by_pattern[(base, alt)]
        ]
        if not tier_hits:
            continue
        if len(tier_hits) > 1:
            raise PreconditionError(
                "multiple sign lifts admit polynomials (non-generic input)",
                candidates=[str(c) for c, _, _ in tier_hits],
                attempts=attempts,
            )
        cand, base, alt = tier_hits[0]
        return Disambiguation(
            polynomial=cand,
            base_sign=base,
            alt_sign=alt,
            attempts=tuple(attempts),
        )
    raise NoSolutionError("no sign lift admits a polynomial", attempts=attempts)


# ---------------------------------------------------------------------------
# one-stop dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionSpec:
    """What to invert: degree, coefficient shape, values, preferred route."""

    degree: int
    shape: str  # "monic" | "general" | "monic-reciprocal"
    values: ResultantSequence
    method: str = AUTO  # one of METHODS

    def __post_init__(self):
        if self.shape not in ("monic", "general", "monic-reciprocal"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.values.has_zero():
            raise ZeroResultantError("reconstruction input contains a zero value")

    @property
    def monic(self) -> bool:
        return self.shape != "general"


@dataclass(frozen=True)
class ReconstructionOutcome:
    polynomial: Polynomial | None
    method: str
    verified: bool
    float_coeffs: tuple[float, ...] = ()
    candidates: tuple[Polynomial, ...] = ()


# Each route returns (polynomial, verified, further ReconstructionOutcome
# fields) or raises.


def _closed_route(spec: ReconstructionSpec, restarts: int, seed: int):
    return invert_closed(spec.values, spec.degree, spec.shape), True, {}


def _groebner_route(spec: ReconstructionSpec, restarts: int, seed: int):
    answers = invert_groebner(spec.values, spec.degree, spec.monic)
    if not answers:
        raise NoSolutionError("no exactly verified candidate", degree=spec.degree)
    return answers[0], True, {"candidates": tuple(answers)}


def _newton_route(spec: ReconstructionSpec, restarts: int, seed: int):
    result = invert_newton(
        spec.values, spec.degree, spec.monic, restarts=restarts, seed=seed
    )
    return result.polynomial, result.verified, {"float_coeffs": result.float_coeffs}


# method -> (whether AUTO tries it on a spec, route); AUTO tries them in order
ROUTES = {
    "closed": (lambda spec: (spec.shape, spec.degree) in CLOSED_FORMS, _closed_route),
    "groebner": (
        lambda spec: spec.degree <= groebner_degree_limit(spec.monic), _groebner_route
    ),
    "newton": (lambda spec: True, _newton_route),
}
METHODS = (*ROUTES, AUTO)


def reconstruct(
    spec: ReconstructionSpec,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> ReconstructionOutcome:
    """Route a reconstruction request; AUTO falls through closed form,
    Groebner (up to groebner_degree_limit: monic degree 4, general degree 3),
    then the numeric solver, and raises the first route's failure when none
    answers.  A unit ideal proves that nothing fits, so AUTO stops there."""
    if spec.method == AUTO:
        methods = [m for m, (applies, _) in ROUTES.items() if applies(spec)]
    else:
        methods = [spec.method]
    first_failure = None
    for method in methods:
        try:
            polynomial, verified, fields = ROUTES[method][1](spec, restarts, seed)
        except CycResError as exc:
            first_failure = first_failure or exc
            if isinstance(exc, UnitIdealError):
                break
            continue
        return ReconstructionOutcome(polynomial, method, verified, **fields)
    raise first_failure


# ---------------------------------------------------------------------------
# empirical prefix-length harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureReport:
    degree: int
    trials: int
    successes: int
    failures: tuple[str, ...]
    collisions: tuple[tuple[str, ...], ...]

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "trials": self.trials,
            "successes": self.successes,
            "failures": list(self.failures),
            "collisions": [list(c) for c in self.collisions],
        }


def conjecture_harness(d: int, trials: int, seed: int = DEFAULT_SEED) -> ConjectureReport:
    """Empirically test reconstruction from exactly d+1 resultants.

    Samples monic integer polynomials (no root of unity, nonzero constant
    term), reconstructs from the first d+1 values by Groebner, which returns
    every exact answer, and records failures and any prefix collisions
    (several polynomials fitting one prefix).  Degrees above
    groebner_degree_limit(True) are refused.  Never raises on a failed
    trial; the report is the deliverable.
    """
    limit = groebner_degree_limit(True)
    if d > limit:
        raise DegreeGuardError("harness is desk-scale only", degree=d, limit=limit)
    rng = random.Random(seed)
    successes = 0
    failures: list[str] = []
    collisions: list[tuple[str, ...]] = []
    for _ in range(trials):
        while True:
            coeffs = [rng.randint(-9, 9) for _ in range(d)] + [1]
            f = Polynomial(coeffs)
            if f.degree != d or f.constant_term.is_zero():
                continue
            if not has_root_of_unity(f):
                break
        vals = sequence(f, d + 1)
        try:
            answers = invert_groebner(vals, d, monic=True)
        except Exception as exc:  # a failed trial is a finding, not a crash
            failures.append(f"{f}: {exc}")
            continue
        if len(answers) == 1 and answers[0] == f:
            successes += 1
        elif len(answers) > 1:
            collisions.append(tuple(str(a) for a in answers))
        else:
            failures.append(f"{f}: reconstruction returned {len(answers)} answers")
    return ConjectureReport(
        degree=d,
        trials=trials,
        successes=successes,
        failures=tuple(failures),
        collisions=tuple(collisions),
    )
