"""Typed domain errors shared by all modules.

Every error carries a stable machine-readable ``code`` plus a ``context``
dict so the CLI can emit structured JSON instead of stack traces.
"""
from __future__ import annotations


class CycResError(Exception):
    """Base class for domain errors."""

    code = "domain_error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def to_json(self) -> dict:
        return {"code": self.code, "message": self.message, "context": self.context}


class PolyParseError(CycResError):
    code = "parse_error"

    def __init__(self, message: str, position: int, text: str = ""):
        super().__init__(message, position=position, text=text)
        self.position = position


class ZeroPolynomialError(CycResError):
    code = "zero_polynomial"


class RootOfUnityError(CycResError):
    code = "root_of_unity"


class ZeroResultantError(CycResError):
    code = "zero_resultant"


class PreconditionError(CycResError):
    """Input violates a documented precondition (non-real coefficients, ...)."""

    code = "precondition"


class FiniteOrderError(CycResError):
    """A group element required to have infinite order is torsion."""

    code = "finite_order"


class DegreeGuardError(CycResError):
    """Input exceeds a desk-scale exhaustive-search bound."""

    code = "degree_guard"


class ConvergenceError(CycResError):
    code = "no_convergence"


class NoSolutionError(CycResError):
    """No polynomial fits the given resultant values."""

    code = "no_solution"


class UnitIdealError(NoSolutionError):
    """Groebner proved the defining equations inconsistent: no polynomial of
    any kind fits, so no other route needs to try."""


class UnderdeterminedError(CycResError):
    """Solution set is positive-dimensional: not enough resultants given."""

    code = "underdetermined"


class DegenerateInputError(CycResError):
    """A printed-formula denominator vanishes on this input."""

    code = "degenerate_input"


class VerificationError(CycResError):
    """A reconstructed candidate failed exact re-verification."""

    code = "verification_failed"


class ClusterAmbiguityError(CycResError):
    """Two exactly-distinct roots are numerically closer than the cluster tolerance."""

    code = "cluster_ambiguity"


class InternalCheckError(CycResError):
    """An internal cross-check failed; indicates a bug, not bad input."""

    code = "internal_check"
