"""Exception types shared by the whole package.

Every operation raises one of these instead of a bare ValueError so the
CLI can map failures onto exit codes: resource limits (exit 3) are kept
apart from bad input (exit 2) and verification mismatches (exit 1).
"""


class LehmerFFError(Exception):
    """Base class for all package errors."""


class InvalidPrime(LehmerFFError):
    """The characteristic passed to a field constructor is not prime."""


class InvalidDegree(LehmerFFError):
    """Extension degree < 1, or the requested field exceeds the size cap."""


class DivisionByZero(LehmerFFError, ZeroDivisionError):
    """Inversion or division by the zero element / zero polynomial."""


class FieldMismatch(LehmerFFError):
    """Two operands belong to different fields."""


class UndefinedGcd(LehmerFFError):
    """gcd(0, 0) requested."""


class InvalidModulus(LehmerFFError):
    """Modular exponentiation with a modulus of degree < 1."""


class InvalidInput(LehmerFFError):
    """An argument violates an operation's precondition."""


class ParseError(InvalidInput):
    """A polynomial or field-element text form could not be parsed."""


class CannotFactorZero(LehmerFFError):
    """Factorization of the zero polynomial requested."""


class OracleOverflow(LehmerFFError):
    """A brute-force oracle was asked to enumerate more than its cap."""


class UndefinedValuation(LehmerFFError):
    """p-adic valuation of zero requested."""


class FactoringBudgetExceeded(LehmerFFError):
    """An integer to be factored exceeds the configured budget."""


class SizeCapExceeded(LehmerFFError):
    """A request exceeds a fixed size cap; raised before any work starts."""


class PrecisionAlert(LehmerFFError):
    """A numeric comparison was decided by a margin below the safety gap."""


class VerificationError(LehmerFFError):
    """An internal invariant that should hold unconditionally was violated."""


#: Errors that signal a resource/limit problem rather than bad input (exit 3);
#: a comparison too close to call counts as one.
RESOURCE_ERRORS = (
    OracleOverflow, FactoringBudgetExceeded, SizeCapExceeded, PrecisionAlert
)
