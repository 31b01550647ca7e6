"""Recovering a polynomial from a prefix of its cyclic resultants.

Three routes, in increasing generality:

* printed closed forms for degree 1 (general), degrees 2 and 3 (monic) and
  the degree-6 monic reciprocal, verified by exact resequencing;
* a lexicographic Groebner basis of the system { r_m - Res(f, x^m - 1) } with
  symbolic coefficients, solved by back substitution (degree <= 3);
* a damped Gauss-Newton iteration on the numeric root-product map, with
  continued-fraction rationalization and exact verification.

Every successful answer has reproduced the input values exactly; a numeric
candidate that fails rationalization is handed back unverified and flagged.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .errors import (
    ConvergenceError,
    CycResError,
    DegenerateInputError,
    DegreeGuardError,
    NoSolutionError,
    PreconditionError,
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
    _aberth,
    has_root_of_unity,
    rationalize,
)
from .resultants import ResultantSequence, _sylvester, reproduces, sequence

GROEBNER_DEGREE_LIMIT = 3
NEWTON_MAX_ITER = 60
DEFAULT_RESTARTS = 16
DEFAULT_SEED = 0


def _values_list(values) -> list[GaussianRational]:
    if isinstance(values, ResultantSequence):
        return list(values.values)
    return [GaussianRational.of(v) for v in values]


def _verify_resequence(candidate: Polynomial, values, what: str):
    vals = _values_list(values)
    got = sequence(candidate, len(vals)).values
    if tuple(got) != tuple(vals):
        raise VerificationError(
            f"{what} reproduced different resultants",
            candidate=str(candidate),
            expected=[str(v) for v in vals],
            got=[str(v) for v in got],
        )


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


def _require(values, count: int, d: int):
    vals = _values_list(values)
    if len(vals) < count:
        raise PreconditionError(
            "not enough resultant values", needed=count, got=len(vals), degree=d
        )
    return vals


def invert_closed(values, d: int, shape: str = "monic") -> Polynomial:
    """Closed-form inversion for the printed small cases.

    Supported: d=1 general (2 values), d=2 monic (2), d=3 monic (4), and
    d=6 monic reciprocal (4).  A vanishing formula denominator raises a
    degenerate-input error naming it; every answer is re-sequenced exactly
    before being returned.
    """
    if shape == "general" and d == 1:
        r1, r2 = _require(values, 2, d)[:2]
        if r1.is_zero():
            raise DegenerateInputError("denominator 2*r_1 vanishes", denominator="2*r_1")
        a0 = _linear_lead(r1, r2)
        a1 = (-r1 * r1 - r2) / (2 * r1)
        if a0.is_zero():
            raise DegenerateInputError(
                "recovered leading coefficient is zero", denominator="lead"
            )
        candidate = Polynomial([a1, a0])
        _verify_resequence(candidate, values, "linear closed form")
        return candidate
    if shape == "monic" and d == 2:
        r1, r2 = _require(values, 2, d)[:2]
        if r1.is_zero():
            raise DegenerateInputError("denominator 2*r_1 vanishes", denominator="2*r_1")
        a1 = (r1 * r1 - r2) / (2 * r1)
        a2 = (r1 * r1 - 2 * r1 + r2) / (2 * r1)
        candidate = Polynomial([a2, a1, 1])
        _verify_resequence(candidate, values, "quadratic closed form")
        return candidate
    if shape == "monic" and d == 3:
        r1, r2, r3, r4 = _require(values, 4, d)[:4]
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
        candidate = Polynomial([a3, a2, a1, 1])
        _verify_resequence(candidate, values, "cubic closed form")
        return candidate
    if shape == "monic-reciprocal" and d == 6:
        return _invert_sextic_reciprocal(values)
    raise PreconditionError(
        "no closed form for this degree/shape", degree=d, shape=shape
    )


def _invert_sextic_reciprocal(values) -> Polynomial:
    r1, r2, r3, r4 = _require(values, 4, 6)[:4]
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
    candidate = Polynomial([1, a1, a2, a3, a2, a1, 1])
    _verify_resequence(candidate, values, "sextic reciprocal closed form")
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


def invert_groebner(values, d: int, monic: bool = True) -> list[Polynomial]:
    """All exactly-verified polynomials fitting the given resultant prefix.

    Builds the ideal of the defining equations with symbolic coefficients,
    takes its lex Groebner basis, and back-substitutes.  The unit ideal
    raises NoSolutionError, which is the working signal for the wrong branch
    of an absolute-value lift.  At most the first five values feed the ideal
    (desk-scale guard); every solution is still verified against the full
    input, so extra values tighten the answer without growing the system.
    """
    if d > GROEBNER_DEGREE_LIMIT:
        raise DegreeGuardError(
            "symbolic route is desk-scale only", degree=d, limit=GROEBNER_DEGREE_LIMIT
        )
    vals = _values_list(values)
    minimum = d if monic else d + 1
    if len(vals) < minimum:
        raise PreconditionError(
            "not enough resultant values", needed=minimum, got=len(vals)
        )
    nvars = d if monic else d + 1
    gens = [
        symbolic_cyclic_resultant(d, m, monic) - vals[m - 1]
        for m in range(1, min(len(vals), GROEBNER_EQUATION_LIMIT) + 1)
    ]
    basis = groebner_basis(gens)
    if is_unit_ideal(basis):
        raise NoSolutionError(
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
    if abs(asc[-1]) < 1e-12:
        return None
    try:
        roots = _aberth([complex(c) for c in asc], 1e-12)
    except Exception:
        return None
    lead = asc[-1]
    out = []
    for m in range(1, count + 1):
        value = complex(lead) ** m
        for alpha in roots:
            value *= alpha**m - 1
        out.append(value.real)
    return out


def _solve_normal_equations(jac, resid):
    """Least-squares step from J and residual via the normal equations."""
    k = len(jac[0])
    ata = [[sum(jac[r][i] * jac[r][j] for r in range(len(jac))) for j in range(k)] for i in range(k)]
    atb = [-sum(jac[r][i] * resid[r] for r in range(len(jac))) for i in range(k)]
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

    Multi-start from deterministic pseudo-random points; the Jacobian comes
    from central finite differences with relative step 1e-6.  A converged
    float vector is rationalized by continued fractions (denominators up to
    1e6) and accepted only when the exact sequence reproduces the input;
    otherwise the best float candidate is returned with verified=False.
    """
    vals = _values_list(values)
    minimum = d + 1 if monic else d + 2
    if len(vals) < minimum:
        raise PreconditionError(
            "not enough resultant values", needed=minimum, got=len(vals)
        )
    for v in vals:
        if not v.is_real():
            raise PreconditionError("numeric route expects real resultant values")
    targets = [float(v.re) for v in vals]
    weights = [max(1.0, abs(t)) for t in targets]
    k = d if monic else d + 1
    rng = random.Random(seed)

    def assemble(vec: list[float]) -> list[float]:
        return list(vec) + [1.0] if monic else list(vec)

    def residual(vec):
        rs = _float_resultants(assemble(vec), len(targets))
        if rs is None:
            return None
        return [(a - b) / w for a, b, w in zip(rs, targets, weights)]

    best_float: tuple[float, list[float]] | None = None
    for start in range(max(1, restarts)):
        vec = [rng.uniform(-10, 10) for _ in range(k)]
        f_val = residual(vec)
        if f_val is None:
            continue
        norm = max(abs(x) for x in f_val)
        for _ in range(NEWTON_MAX_ITER):
            jac = []
            ok = True
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
                    ok = False
                    break
                cols.append([(a - b) / (2 * h) for a, b in zip(fu, fd)])
            if not ok:
                break
            jac = [[cols[j][r] for j in range(k)] for r in range(len(targets))]
            step = _solve_normal_equations(jac, f_val)
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
            starts_used=max(1, restarts),
        )
    raise ConvergenceError(
        "no start converged", degree=d, restarts=restarts
    )


# ---------------------------------------------------------------------------
# absolute-value disambiguation
# ---------------------------------------------------------------------------

SIGN_PATTERNS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


def _exact_answers(
    values, d: int, monic: bool, restarts: int = DEFAULT_RESTARTS, rng=None
) -> list[Polynomial]:
    """Exactly verified answers: every Groebner solution up to
    GROEBNER_DEGREE_LIMIT, above it Newton's answer when it verified.

    Given rng, Newton's seed is drawn from it, and only when Newton runs.
    """
    if d <= GROEBNER_DEGREE_LIMIT:
        return invert_groebner(values, d, monic)
    seed = DEFAULT_SEED if rng is None else rng.randrange(2**30)
    result = invert_newton(values, d, monic, restarts=restarts, seed=seed)
    return [result.polynomial] if result.verified else []


@dataclass(frozen=True)
class Disambiguation:
    polynomial: Polynomial
    base_sign: int
    alt_sign: int
    attempts: tuple[tuple[int, int, int], ...]  # (base, alt, candidate count)


def disambiguate_abs(values, d: int, monic: bool = True) -> Disambiguation:
    """Recover a polynomial from absolute resultant values.

    All four sign patterns base * alt^m are lifted to candidate exact
    sequences, inverted, and verified by comparing absolute sequences with
    the input; the attempts field reports every pattern's candidate count.
    The two constant-sign patterns are the classical lifts and take priority;
    the alternating patterns are consulted only when neither constant-sign
    lift admits an answer (they do fire: |r_m| of x+2 comes from an
    alternating true sequence).  Several answers inside one priority tier
    mean non-generic input and raise rather than guess.
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
            candidates = _exact_answers(lifted, d, monic)
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
    method: str = "auto"  # "closed" | "groebner" | "newton" | "auto"

    def __post_init__(self):
        if self.shape not in ("monic", "general", "monic-reciprocal"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.method not in ("closed", "groebner", "newton", "auto"):
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


def _closed_form_applies(spec: ReconstructionSpec) -> bool:
    return (
        (spec.shape == "general" and spec.degree == 1)
        or (spec.shape == "monic" and spec.degree in (2, 3))
        or (spec.shape == "monic-reciprocal" and spec.degree == 6)
    )


def reconstruct(
    spec: ReconstructionSpec,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> ReconstructionOutcome:
    """Route a reconstruction request; "auto" falls through closed form,
    Groebner (degree <= 3), then the numeric solver, and raises the first
    route's failure when none answers."""
    if spec.method == "closed":
        poly = invert_closed(spec.values, spec.degree, spec.shape)
        return ReconstructionOutcome(poly, "closed", True)
    if spec.method == "groebner":
        answers = invert_groebner(spec.values, spec.degree, spec.monic)
        if not answers:
            raise NoSolutionError(
                "no exactly verified candidate", degree=spec.degree
            )
        return ReconstructionOutcome(
            answers[0], "groebner", True, candidates=tuple(answers)
        )
    if spec.method == "newton":
        result = invert_newton(
            spec.values, spec.degree, spec.monic, restarts=restarts, seed=seed
        )
        return ReconstructionOutcome(
            result.polynomial,
            "newton",
            result.verified,
            float_coeffs=result.float_coeffs,
        )
    routes = ["closed"] if _closed_form_applies(spec) else []
    if spec.degree <= GROEBNER_DEGREE_LIMIT:
        routes.append("groebner")
    routes.append("newton")
    first_failure = None
    for method in routes:
        try:
            return reconstruct(
                ReconstructionSpec(spec.degree, spec.shape, spec.values, method),
                restarts,
                seed,
            )
        except CycResError as exc:
            if first_failure is None:
                first_failure = exc
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
    term), reconstructs from the first d+1 values, and records failures and
    any prefix collisions (several polynomials fitting one prefix).  Never
    raises on a failed trial; the report is the deliverable.
    """
    if d > 4:
        raise DegreeGuardError("harness is desk-scale only", degree=d, limit=4)
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
            answers = _exact_answers(vals, d, monic=True, restarts=64, rng=rng)
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
