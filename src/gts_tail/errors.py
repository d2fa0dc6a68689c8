"""Exception hierarchy shared across the package.

Two root branches matter to callers: `ValidationError` covers bad inputs and
domain violations (CLI exit code 2), `NumericalError` covers failures of the
numerics themselves (CLI exit code 3). I/O problems surface as plain OSError
(exit code 4).
"""


class GtsError(Exception):
    """Base class for all package errors."""


class ValidationError(GtsError):
    """Invalid input: parameter domain, malformed data, unusable config."""


class NumericalError(GtsError):
    """A numerical procedure failed or produced an inconsistent result."""


# ---------------------------------------------------------------- validation

class OutOfDomain(ValidationError):
    """A parameter violates its domain constraint."""

    def __init__(self, field, message=""):
        self.field = field
        super().__init__(message or f"parameter out of domain: {field}")


class NonFinite(ValidationError):
    """NaN or infinity where a finite value is required."""


class DomainError(ValidationError):
    """Function argument outside the mathematical domain."""


class ConfigError(ValidationError):
    """Grid or solver configuration cannot satisfy its contract."""


class SizeError(ValidationError):
    """Sequence length violates a structural precondition."""


class OutOfRange(ValidationError):
    """Requested probability level outside the tabulated mass."""


class OutOfGrid(ValidationError):
    """Observations fall outside the evaluation grid."""

    def __init__(self, offenders, message=""):
        self.offenders = list(offenders)
        shown = ", ".join(f"{v:.6g}" for v in self.offenders[:8])
        more = "" if len(self.offenders) <= 8 else f" (+{len(self.offenders) - 8} more)"
        super().__init__(message or f"observations outside grid: {shown}{more}")


class TooShort(ValidationError):
    """Not enough observations for the requested operation."""


class DegenerateData(ValidationError):
    """Data carries no usable variation (e.g. zero sample variance)."""


class ParseError(ValidationError):
    """Malformed input text."""

    def __init__(self, line, message=""):
        self.line = line
        super().__init__(message or f"parse error at line {line}")


class NonPositivePrice(ValidationError):
    def __init__(self, line, message=""):
        self.line = line
        super().__init__(message or f"non-positive price at line {line}")


class DuplicateDate(ValidationError):
    def __init__(self, line, message=""):
        self.line = line
        super().__init__(message or f"duplicate date at line {line}")


class BinUnderflow(ValidationError):
    """Expected count per chi-squared bin below the minimum of 5."""


class BoundaryObservation(ValidationError):
    """An observation maps to a CDF value numerically at 0 or 1."""


# ----------------------------------------------------------------- numerical

class NumericalFailure(NumericalError):
    """A constructed table violates its invariants (grid misconfiguration)."""


class ConvergenceFailure(NumericalError):
    """Adaptive quadrature or iteration exceeded its budget."""


class BracketFailure(NumericalError):
    """Tabulated CDF is not monotone at the bracketing interval."""


class NoBracket(NumericalError):
    """Root solver called without a sign change over the unit interval."""


class PenaltyWall(NumericalError):
    """Finite-difference probes of the likelihood hit its infeasibility penalty.

    ``coordinates`` names the free coordinates whose probes hit it; a
    difference across the penalty is meaningless, so no Hessian is formed.
    """

    def __init__(self, coordinates):
        self.coordinates = tuple(coordinates)
        super().__init__("Hessian probes hit the likelihood penalty along: " + ", ".join(self.coordinates))


class BoundaryEstimate(NumericalError):
    """A free stability index sits at its bilateral-gamma limit 0.

    The fit takes a stability index below 1e-7 as 0, so the likelihood is
    flat in its coordinate there.  ``coordinates`` names the free
    coordinates whose limit 0 lowers the likelihood by less than 1e-4 nats;
    the observed information says nothing about them and gives no Wald
    standard error.
    """

    def __init__(self, coordinates):
        self.coordinates = tuple(coordinates)
        super().__init__(
            "the likelihood is flat along " + ", ".join(self.coordinates)
            + ": the estimate sits at the bilateral-gamma limit beta = 0"
        )


# ------------------------------------------------------------------ warnings

class MultipleRootsWarning(UserWarning):
    """Quartic had several candidate roots in (0,1); nearest to seed chosen."""


class SingularHessianWarning(UserWarning):
    """Standard errors fall back to a pseudo-inverse of the Hessian, or are
    omitted because its probes hit the likelihood penalty or a stability
    index's limit 0."""
