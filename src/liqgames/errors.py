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


class RootFindingFailed(LiquidationGameError):
    """The characteristic quartic did not yield two distinct negative roots."""


class DegenerateEigenbasis(LiquidationGameError):
    """Stable eigenvectors are too close to parallel to expand x0."""


class SingularShootingMatrix(LiquidationGameError):
    """The finite-horizon boundary solve is singular or not finite.

    Raised by the grid solver, and by residual_report's check of a grid
    profile, when the split of M's spectrum fails or a matrix exponential
    overflows; and by the solver when the 2n x 2n system that joins its
    forward and backward marches is singular or its nodes are not finite
    (inventories near the float limit overflow there).
    """


class MomentOverflow(LiquidationGameError):
    """An agent's revenue moments overflow the float range (inventories near 1e154 and up)."""


class HorizonMismatch(LiquidationGameError):
    """Strategies passed to an evaluation do not share a horizon."""


class GridMismatch(LiquidationGameError):
    """Grid strategies passed to an evaluation do not share their grid."""


class IndefiniteHessian(LiquidationGameError):
    """The discrete best-response objective is not strictly concave."""


class SingularNashSystem(LiquidationGameError):
    """The discrete oracle's stacked first-order system is singular."""


class NeverReached(LiquidationGameError):
    """The requested liquidation fraction is never attained."""
