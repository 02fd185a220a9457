"""Exception types shared across the package.

Every error raised on a contract violation derives from CircuitKitError so
callers (and the CLI) can distinguish input problems from genuine bugs.
"""


class CircuitKitError(Exception):
    """Base class for all package-level errors."""


class DimensionMismatch(CircuitKitError):
    pass


class NotSquare(CircuitKitError):
    pass


class SingularBasis(CircuitKitError):
    pass


class NonIntegerMatrix(CircuitKitError):
    pass


class ZeroVector(CircuitKitError):
    pass


class DeskScaleExceeded(CircuitKitError):
    """Enumeration width exceeds the fixed cap `ratmat.MAX_ENUM_COLS`."""


class NotInSubspace(CircuitKitError):
    pass


class EmptyIndexSet(CircuitKitError):
    pass


class NotInProjection(CircuitKitError):
    pass


class SeparableInput(CircuitKitError):
    """Raised when an operation needs a non-separable subspace."""


class RankDeficient(CircuitKitError):
    pass


class UnboundedRegion(CircuitKitError):
    pass


class InfeasibleSystem(CircuitKitError):
    """Infeasible linear system; carries a Farkas certificate when available."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class AlreadyOptimal(CircuitKitError):
    pass


class AlreadyBasic(CircuitKitError):
    pass


class UnboundedDirection(CircuitKitError):
    """A feasible direction with unbounded step; carries the ray when known."""

    def __init__(self, message, ray=None):
        super().__init__(message)
        self.ray = ray


class TargetNotBasic(CircuitKitError):
    pass


class UnbalancedDemands(CircuitKitError):
    pass


class NegativeCost(CircuitKitError):
    pass


class NotOptimalPair(CircuitKitError):
    pass


class OracleInfeasible(CircuitKitError):
    pass


class NotIntegerKernelVector(CircuitKitError):
    pass


class BoxTooLarge(CircuitKitError):
    """Graver enumeration box exceeds the configured point budget."""


class BadParameters(CircuitKitError):
    pass


class AuditFailure(CircuitKitError):
    """A trace violated one of the audited inequalities.

    Carries the name of the violated property, the step index, and an
    optional human-readable detail string.
    """

    def __init__(self, prop, step=None, detail=None):
        msg = prop if step is None else f"{prop} at step {step}"
        if detail is not None:
            msg = f"{msg}: {detail}"
        super().__init__(msg)
        self.prop = prop
        self.step = step
        self.detail = detail


class InputFormatError(CircuitKitError):
    """Malformed external input (JSON/CSV)."""


class InternalError(CircuitKitError):
    """A broken internal invariant: a bug in circuitkit, never a bad input."""
