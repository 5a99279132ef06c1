"""Nash equilibria for multi-agent optimal liquidation.

n agents trade a single asset whose price carries permanent (gamma) and
temporary (lambda) linear impact. Each agent liquidates an initial position
under a mean-variance (equivalently CARA) objective; the open-loop Nash
equilibrium solves a coupled linear two-point boundary value problem.
The package provides closed forms where they exist, stationary solutions on
the infinite horizon, a grid boundary solver for the general finite-horizon
game (forward and backward marches on Schur bases, forced by the exact
integral of the piecewise-linear drift over each interval), an independent
discrete-game oracle (one banded solve of the stacked first-order conditions
of the time-stepped game), and tools for evaluating (every agent's exact
revenue moments from one Gram matrix of the profile's exponential modes),
simulating, classifying and scanning equilibria.
"""

from .errors import (
    DegenerateEigenbasis,
    DriftNotZero,
    GammaZero,
    GridMismatch,
    HorizonMismatch,
    IndefiniteHessian,
    InvalidParam,
    LiquidationGameError,
    NeverReached,
    OutOfDomain,
    RootFindingFailed,
    SingularNashSystem,
    SingularShootingMatrix,
    UnsupportedCase,
)
from .model import (
    AgentSpec,
    DriftSpec,
    ExpSumStrategy,
    GridStrategy,
    Horizon,
    MarketParams,
    Problem,
    SpectralData,
    Strategy,
    alphas_equal,
    dump_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    system_matrix,
    validate_problem,
)
from .closed_form import (
    equal_alpha_finite,
    equal_alpha_infinite,
    finite_to_infinite_convergence,
    mean_field_strategy,
    negative_quartic_roots,
    single_agent_finite,
    sinh_ratio,
    spectral,
    two_player_finite,
    two_player_infinite,
)
from .bvp import (
    BvpSolution,
    ResidualReport,
    assemble,
    residual_report,
    solve_finite,
)
from .analysis import (
    DeviationReport,
    EvaluationResult,
    MonteCarloConfig,
    MonteCarloResult,
    RoleClassification,
    ScanResult,
    classify_role,
    compute_equilibrium,
    deviation_report,
    effective_liquidation_time,
    mean_variance,
    mean_variance_profile,
    mean_variance_sampled,
    monte_carlo_revenues,
    non_monotone,
    parameter_scan,
)
from .oracle import DiscreteGame, FixedPointReport, compare, iterate_nash

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "BvpSolution",
    "DegenerateEigenbasis",
    "DeviationReport",
    "DiscreteGame",
    "DriftNotZero",
    "DriftSpec",
    "EvaluationResult",
    "ExpSumStrategy",
    "FixedPointReport",
    "GammaZero",
    "GridMismatch",
    "GridStrategy",
    "Horizon",
    "HorizonMismatch",
    "IndefiniteHessian",
    "InvalidParam",
    "LiquidationGameError",
    "MarketParams",
    "MonteCarloConfig",
    "MonteCarloResult",
    "NeverReached",
    "OutOfDomain",
    "Problem",
    "ResidualReport",
    "RoleClassification",
    "RootFindingFailed",
    "ScanResult",
    "SingularNashSystem",
    "SingularShootingMatrix",
    "SpectralData",
    "Strategy",
    "UnsupportedCase",
    "alphas_equal",
    "assemble",
    "classify_role",
    "compare",
    "compute_equilibrium",
    "deviation_report",
    "dump_problem",
    "effective_liquidation_time",
    "equal_alpha_finite",
    "equal_alpha_infinite",
    "finite_to_infinite_convergence",
    "iterate_nash",
    "load_problem",
    "mean_field_strategy",
    "mean_variance",
    "mean_variance_profile",
    "mean_variance_sampled",
    "monte_carlo_revenues",
    "negative_quartic_roots",
    "non_monotone",
    "parameter_scan",
    "problem_from_dict",
    "problem_to_dict",
    "residual_report",
    "single_agent_finite",
    "sinh_ratio",
    "solve_finite",
    "spectral",
    "system_matrix",
    "two_player_finite",
    "two_player_infinite",
    "validate_problem",
]
