"""Exception taxonomy shared across the package.

Everything raised on purpose derives from LiquidationGameError so callers can
catch one base type. Configuration problems and solver breakdowns are kept
distinct because the command line maps them to different exit codes.
"""


class LiquidationGameError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParam(LiquidationGameError):
    """A parameter value is outside its admissible range."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"invalid parameter '{field}': {reason}")


class UnsupportedCase(LiquidationGameError):
    """The parameter combination is valid but outside the solvable cases."""


class OutOfDomain(LiquidationGameError):
    """A strategy was evaluated outside its time domain."""


class DriftNotZero(LiquidationGameError):
    """A closed form that requires vanishing drift was called with drift."""


class GammaZero(LiquidationGameError):
    """The mean-field strategy needs strictly positive permanent impact."""


class RootFindingFailed(LiquidationGameError):
    """The characteristic quartic did not yield two distinct negative roots."""


class DegenerateEigenbasis(LiquidationGameError):
    """Stable eigenvectors are too close to parallel to expand x0."""


class SingularShootingMatrix(LiquidationGameError):
    """The finite-horizon boundary solve is singular or not finite.

    Raised by both routes of the grid solver: the shooting route when its
    n x n shooting matrix cannot be solved, and the global route when the
    sparse system over every node is singular.
    """


class QuadratureUnderResolved(LiquidationGameError):
    """The drift quadrature error estimate exceeds its tolerance."""


class HorizonMismatch(LiquidationGameError):
    """Strategies passed to an evaluation do not share a horizon."""


class GridMismatch(LiquidationGameError):
    """Grid strategies passed to an evaluation do not share their grid."""


class IndefiniteHessian(LiquidationGameError):
    """The discrete best-response objective is not strictly concave."""


class NeverReached(LiquidationGameError):
    """The requested liquidation fraction is never attained."""
