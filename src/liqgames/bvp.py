"""Two-point boundary value solvers for the equilibrium ODE system.

The coupled optimality conditions of the n-agent game form a linear system
dZ/dt = M Z + f(t) for Z = (inventories, trading rates), with inventories
pinned at both ends. The finite-horizon solver uses the fundamental matrix:
one matrix exponential per step (computed once, the grid being uniform),
variation of constants with per-step Simpson quadrature for the drift, and a
single n x n linear solve for the unknown initial rates. When the fastest
growth mode would overflow double precision over the horizon, shooting is
replaced by one sparse solve coupling all nodes, which conditions like the
underlying boundary problem rather than like e^{growth T}; its block-banded
matrix is written straight into CSC arrays from index arithmetic and
factored once with SuperLU. No eigen
decomposition is used on the solve path; M is nonsymmetric and its
eigenvectors can be poorly conditioned for nearby risk aversions.

The infinite-horizon solver expands x0 in the decaying eigendirections of M
(analytic for a common risk aversion, quartic roots for two heterogeneous
players) and returns exponential sums.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import splu

from . import closed_form
from .errors import (
    GridMismatch,
    InvalidParam,
    QuadratureUnderResolved,
    SingularShootingMatrix,
    StableSubspaceDeficient,
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
    system_matrix,
)

__all__ = [
    "FirstOrderSystem",
    "BvpSolution",
    "ResidualReport",
    "assemble",
    "solve_finite",
    "solve_scalar",
    "solve_finite_by_reduction",
    "solve_infinite",
    "residual_report",
]

# Growth-mode budget for single shooting: its forward error scales like
# eps * e^{growth T}, which crosses the 1e-8 accuracy contract near
# growth T ~ 18. Beyond e^16 the boundary solve therefore switches to a
# global block-banded system over every grid node, which conditions like
# the boundary problem itself instead of like the unstable mode.
_BALANCE_THRESHOLD = 16.0
_QUAD_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class FirstOrderSystem:
    """First-order form dZ/dt = M Z + f(t) of the equilibrium conditions."""

    matrix: np.ndarray
    n_agents: int
    lam: float
    drift: DriftSpec

    def forcing(self, t):
        """f(t): zeros in the inventory block, -b(t)/(lam (n+1)) in the rate block."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n = self.n_agents
        out = np.zeros((t.size, 2 * n))
        if not self.drift.is_zero:
            out[:, n:] = (-np.asarray(self.drift(t)) / (self.lam * (n + 1)))[:, None]
        return out


def assemble(problem: Problem) -> FirstOrderSystem:
    """Build the first-order system for a validated problem.

    Cross-checks the analytic inverse used in the reduction, namely
    (I + J)(I - J/(n+1)) = I, before trusting the block formula.
    """
    n = problem.n
    J = np.ones((n, n))
    eye = np.eye(n)
    residual = (eye + J) @ (eye - J / (n + 1)) - eye
    if not np.allclose(residual, 0.0, atol=1e-12):
        raise ArithmeticError("block inverse identity failed; matrix assembly is wrong")
    M = system_matrix(problem.market, problem.alphas)
    return FirstOrderSystem(
        matrix=M, n_agents=n, lam=problem.market.lam, drift=problem.market.drift
    )


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Optimality-condition residuals of a strategy profile.

    max_residual is the largest absolute Euler-Lagrange defect over the
    probe times; scale is the largest magnitude among the equation's
    individual terms at those probes, so relative = max_residual / scale is
    a dimensionless quality measure. Boundary errors are absolute.
    """

    max_residual: float
    scale: float
    relative: float
    boundary_start: float
    boundary_end: float
    n_probes: int

    def to_dict(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "scale": self.scale,
            "relative": self.relative,
            "boundary_start": self.boundary_start,
            "boundary_end": self.boundary_end,
            "n_probes": self.n_probes,
        }


@dataclass(frozen=True, eq=False)
class BvpSolution:
    """Finite-horizon numerical equilibrium on a uniform grid."""

    strategies: Tuple[GridStrategy, ...]
    derivatives: np.ndarray
    residuals: ResidualReport
    quadrature_error: Optional[float]
    terminal_defect: float


def _simpson_steps(E: np.ndarray, Eh: np.ndarray, dt: float, f_nodes, f_mids) -> np.ndarray:
    """Per-step variation-of-constants integrals, Simpson in the kernel."""
    return (dt / 6.0) * (f_nodes[:-1] @ E.T + 4.0 * (f_mids @ Eh.T) + f_nodes[1:])


def _particular_end(M: np.ndarray, T: float, n_steps: int, f_call, shift: float = 0.0) -> np.ndarray:
    """Accumulated forced response at t = T, optionally in a damped frame.

    With shift = c the recursion integrates dP/dt = (M - cI) P + e^{-ct} f(t),
    whose exact endpoint is e^{-cT} times the true forced response. Choosing c
    as the top growth rate keeps every intermediate finite on stiff horizons
    while preserving the half-step Richardson comparison.
    """
    dt = T / n_steps
    Ms = M - shift * np.eye(M.shape[0]) if shift else M
    Eh = expm(Ms * (dt / 2.0))
    E = Eh @ Eh
    t_nodes = np.linspace(0.0, T, n_steps + 1)
    t_mids = t_nodes[:-1] + dt / 2.0
    f_nodes = f_call(t_nodes)
    f_mids = f_call(t_mids)
    if shift:
        f_nodes = f_nodes * np.exp(-shift * t_nodes)[:, None]
        f_mids = f_mids * np.exp(-shift * t_mids)[:, None]
    steps = _simpson_steps(E, Eh, dt, f_nodes, f_mids)
    P = np.zeros(M.shape[0])
    for k in range(n_steps):
        P = E @ P + steps[k]
    return P


def _global_system(E: np.ndarray, steps, x_left: np.ndarray, n_steps: int):
    """CSC matrix and right-hand side of the discretized two-point problem.

    Unknowns are the full state Z_k at every node k = 0..N, stacked node by
    node. Rows 0..n-1 pin the inventory block of Z_0 to x_left, interval k
    contributes the m rows Z_{k+1} - E Z_k = step_k starting at row n + k m,
    and the last n rows pin the inventory block of Z_N to zero.

    The CSC arrays are written directly. Column k m + c has up to m + 1
    slots in row order: a 1 that pins Z_0 (k = 0) or closes interval k - 1,
    then -E[:, c] in the rows of interval k, or at k = N the 1 that pins
    Z_N. Zero slots are dropped, which also leaves out exact zeros of E, so
    the sparsity pattern seen by splu's ordering depends only on E.
    """
    m = E.shape[0]
    n = m // 2
    size = (n_steps + 1) * m
    comp = np.arange(m)
    first = n + m * np.arange(n_steps + 1)  # first row of interval k; the end pins at k = N
    rows = np.empty((n_steps + 1, m, m + 1), dtype=np.int64)
    rows[:, :, 0] = first[:, None] - m + comp
    rows[0, :, 0] = comp
    rows[:, :, 1:] = first[:, None, None] + comp
    vals = np.zeros((n_steps + 1, m, m + 1))
    vals[:, :, 0] = 1.0
    vals[0, n:, 0] = 0.0  # rate entries of Z_0 are free
    vals[:-1, :, 1:] = -E.T
    vals[-1, comp[:n], 1 + comp[:n]] = 1.0
    keep = vals != 0.0
    indptr = np.zeros(size + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(keep.sum(axis=2))
    A = sparse.csc_matrix((vals[keep], rows[keep], indptr), shape=(size, size))
    rhs = np.zeros(size)
    rhs[:n] = x_left
    if steps is not None:
        rhs[n:size - n] = steps.ravel()
    return A, rhs


def _global_solve(E: np.ndarray, steps, x_left: np.ndarray, n_steps: int) -> np.ndarray:
    """Block-banded solve of the discretized two-point problem.

    Factors the system of _global_system once with splu and its default
    COLAMD column ordering. Entries stay O(e^{growth dt}) so the system is
    representable for horizons where single shooting overflows, and the
    factorization splits stable from unstable modes implicitly.
    """
    A, rhs = _global_system(E, steps, x_left, n_steps)
    try:
        Z = splu(A).solve(rhs)
    except RuntimeError as exc:  # splu reports exact singularity this way
        raise SingularShootingMatrix(
            f"global boundary system is singular ({exc})"
        ) from exc
    if not np.all(np.isfinite(Z)):
        raise SingularShootingMatrix("global boundary solve produced non-finite values")
    return Z.reshape(n_steps + 1, E.shape[0])


def _fundamental_solve(
    M: np.ndarray,
    x_left: np.ndarray,
    T: float,
    n_steps: int,
    f_call: Optional[Callable] = None,
    f_nodes: Optional[np.ndarray] = None,
    f_mids: Optional[np.ndarray] = None,
    method: str = "solve",
):
    """Boundary solve of dZ/dt = M Z + f with X(0) = x_left, X(T) = 0.

    Shoots for the unknown initial rates while the growth budget allows it;
    past the budget the whole trajectory is solved at once (see
    _global_solve) and `method` is ignored. Returns node values of the
    inventory and rate blocks, the pre-snap terminal defect, and the drift
    quadrature error estimate (None without a forcing callable).
    """
    m = M.shape[0]
    n = m // 2
    dt = T / n_steps
    Eh = expm(M * (dt / 2.0))
    E = Eh @ Eh
    growth = float(np.max(np.linalg.eigvals(M).real))
    stiff = growth * T > _BALANCE_THRESHOLD

    quad_err = None
    if f_call is not None:
        t_nodes = np.linspace(0.0, T, n_steps + 1)
        t_mids = t_nodes[:-1] + dt / 2.0
        f_nodes = f_call(t_nodes)
        f_mids = f_call(t_mids)
    steps = _simpson_steps(E, Eh, dt, f_nodes, f_mids) if f_nodes is not None else None
    if f_call is not None:
        shift = growth if stiff else 0.0
        P_coarse = _particular_end(M, T, n_steps, f_call, shift=shift)
        P_fine = _particular_end(M, T, 2 * n_steps, f_call, shift=shift)
        scale = max(1.0, float(np.max(np.abs(P_fine))))
        quad_err = float(np.max(np.abs(P_coarse - P_fine))) / scale
        if quad_err > _QUAD_RTOL:
            raise QuadratureUnderResolved(
                f"drift quadrature error {quad_err:.2e} exceeds {_QUAD_RTOL:.0e};"
                " increase n_steps"
            )

    if stiff:
        Z = _global_solve(E, steps, x_left, n_steps)
        X = Z[:, :n].copy()
        Y = Z[:, n:].copy()
        return X, Y, float(np.max(np.abs(X[-1]))), quad_err

    P_end = np.zeros(m)
    if steps is not None:
        for k in range(n_steps):
            P_end = E @ P_end + steps[k]
    Phi = expm(M * T)
    S = Phi[:n, n:]
    rhs = -Phi[:n, :n] @ x_left - P_end[:n]
    if not np.all(np.isfinite(S)) or not np.all(np.isfinite(rhs)):
        raise SingularShootingMatrix("shooting matrix is not finite")
    try:
        if method == "solve":
            y_left = np.linalg.solve(S, rhs)
        elif method == "lstsq":
            y_left = np.linalg.lstsq(S, rhs, rcond=None)[0]
        else:
            raise InvalidParam("method", "must be 'solve' or 'lstsq'")
    except np.linalg.LinAlgError as exc:
        raise SingularShootingMatrix(f"boundary solve failed ({exc})") from exc
    if not np.all(np.isfinite(y_left)):
        raise SingularShootingMatrix("boundary solve produced non-finite rates")

    Z = np.empty((n_steps + 1, m))
    Z[0] = np.concatenate([x_left, y_left])
    for k in range(n_steps):
        Z[k + 1] = E @ Z[k] + (steps[k] if steps is not None else 0.0)
    X = Z[:, :n].copy()
    Y = Z[:, n:].copy()
    defect = float(np.max(np.abs(X[-1])))
    return X, Y, defect, quad_err


def solve_finite(
    system: FirstOrderSystem,
    x0: Sequence[float],
    T: float,
    n_steps: int = 400,
    method: str = "solve",
    problem: Optional[Problem] = None,
) -> BvpSolution:
    """Numerical equilibrium over [0, T] on a uniform grid of n_steps intervals.

    After the solve, terminal inventories are snapped to exactly zero (the
    defect is recorded first) and the terminal rate entry is recomputed from
    the snapped positions with the one-sided difference rule. Passing the
    originating problem attaches an optimality residual report.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.size != system.n_agents:
        raise InvalidParam("x0", "one initial inventory per agent required")
    if T <= 0:
        raise InvalidParam("T", "horizon length must be > 0")
    if n_steps < 8:
        raise InvalidParam("n_steps", "need at least 8 intervals")
    f_call = None if system.drift.is_zero else system.forcing
    X, Y, defect, quad_err = _fundamental_solve(
        system.matrix, x0, T, n_steps, f_call=f_call, method=method
    )
    X[-1, :] = 0.0
    dt = T / n_steps
    Y[-1, :] = (3.0 * X[-1] - 4.0 * X[-2] + X[-3]) / (2.0 * dt)
    grid = np.linspace(0.0, T, n_steps + 1)
    strategies = tuple(GridStrategy(grid=grid, positions=X[:, i]) for i in range(system.n_agents))
    if problem is not None:
        report = residual_report(strategies, problem)
    else:
        report = ResidualReport(
            max_residual=float("nan"),
            scale=float("nan"),
            relative=float("nan"),
            boundary_start=0.0,
            boundary_end=defect,
            n_probes=0,
        )
    return BvpSolution(
        strategies=strategies,
        derivatives=Y,
        residuals=report,
        quadrature_error=quad_err,
        terminal_defect=defect,
    )


def _scalar_system(
    bvp_kind: str, market: MarketParams, alpha: float, n_agents: int
) -> Tuple[np.ndarray, float]:
    """2x2 first-order matrix and forcing scale for the scalar reductions."""
    as2 = alpha * market.sigma**2
    lam, gamma = market.lam, market.gamma
    if bvp_kind == "aggregate":
        denom = (n_agents + 1) * lam
        M = np.array([[0.0, 1.0], [as2 / denom, -(n_agents - 1) * gamma / denom]])
    elif bvp_kind == "single":
        denom = lam
        M = np.array([[0.0, 1.0], [as2 / lam, gamma / lam]])
    else:
        raise InvalidParam("bvp_kind", "must be 'aggregate' or 'single'")
    return M, -1.0 / denom


RhsSpec = Union[Callable, Tuple[np.ndarray, np.ndarray], None]


def solve_scalar(
    bvp_kind: str,
    market: MarketParams,
    alpha: float,
    n_agents: int,
    rhs: RhsSpec,
    left: float,
    T: float,
    n_steps: int = 400,
):
    """Solve one of the two scalar reductions of the equal-alpha game.

    bvp_kind "aggregate" solves the total-inventory equation
        alpha sigma^2 S - (n-1) gamma S' - (n+1) lam S'' = rhs(t),
    bvp_kind "single" solves the per-agent equation
        alpha sigma^2 X + gamma X' - lam X'' = rhs(t),
    both with value `left` at t = 0 and zero at t = T. rhs may be a callable
    (quadrature is then error-checked against a half-step grid) or a pair of
    arrays sampled at the nodes and interval midpoints (assumed resolved).
    Returns (positions, derivatives) at the n_steps + 1 nodes.
    """
    M, f_scale = _scalar_system(bvp_kind, market, alpha, n_agents)
    f_call = f_nodes = f_mids = None
    if callable(rhs):
        def f_call(t, _r=rhs, _s=f_scale):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            out = np.zeros((t.size, 2))
            out[:, 1] = _s * np.asarray(_r(t), dtype=float)
            return out

    elif rhs is not None:
        nodes, mids = rhs
        nodes = np.asarray(nodes, dtype=float)
        mids = np.asarray(mids, dtype=float)
        if nodes.size != n_steps + 1 or mids.size != n_steps:
            raise GridMismatch("rhs samples do not match the grid")
        f_nodes = np.zeros((n_steps + 1, 2))
        f_nodes[:, 1] = f_scale * nodes
        f_mids = np.zeros((n_steps, 2))
        f_mids[:, 1] = f_scale * mids
    X, Y, defect, _ = _fundamental_solve(
        M,
        np.array([float(left)]),
        T,
        n_steps,
        f_call=f_call,
        f_nodes=f_nodes,
        f_mids=f_mids,
    )
    X[-1, 0] = 0.0
    return X[:, 0], Y[:, 0]


def solve_finite_by_reduction(problem: Problem, n_steps: int = 400) -> BvpSolution:
    """Equal-alpha finite-horizon equilibrium via the scalar reductions.

    Solves the aggregate equation at doubled resolution, reconstructs its
    second derivative from the equation itself, and feeds the resulting
    right-hand side b + gamma S' + lam S'' to each agent's scalar problem
    sampled exactly at the agent grid's nodes and midpoints. A consistency
    route for cross-checking solve_finite; results agree to solver accuracy.
    """
    if not problem.horizon.is_finite:
        raise UnsupportedCase("reduction route is finite-horizon only")
    if not problem.equal_alpha:
        raise UnsupportedCase("reduction route needs a common risk aversion")
    market = problem.market
    alpha = float(problem.alphas[0])
    n = problem.n
    T = problem.T
    b = market.drift
    total = float(np.sum(problem.x0))

    fine_S, fine_dS = solve_scalar(
        "aggregate",
        market,
        alpha,
        n,
        lambda t: n * np.asarray(b(t), dtype=float),
        total,
        T,
        2 * n_steps,
    )
    t_fine = np.linspace(0.0, T, 2 * n_steps + 1)
    as2 = alpha * market.sigma**2
    b_fine = np.asarray(b(t_fine), dtype=float) * np.ones_like(t_fine)
    fine_ddS = (as2 * fine_S - (n - 1) * market.gamma * fine_dS - n * b_fine) / (
        (n + 1) * market.lam
    )
    rhs_fine = b_fine + market.gamma * fine_dS + market.lam * fine_ddS
    rhs_nodes = rhs_fine[::2]
    rhs_mids = rhs_fine[1::2]

    grid = np.linspace(0.0, T, n_steps + 1)
    X = np.empty((n_steps + 1, n))
    Y = np.empty((n_steps + 1, n))
    for i in range(n):
        xi, yi = solve_scalar(
            "single", market, alpha, n, (rhs_nodes, rhs_mids), problem.x0[i], T, n_steps
        )
        X[:, i] = xi
        Y[:, i] = yi
    defect = float(np.max(np.abs(X[-1])))
    X[-1, :] = 0.0
    dt = T / n_steps
    Y[-1, :] = (3.0 * X[-1] - 4.0 * X[-2] + X[-3]) / (2.0 * dt)
    strategies = tuple(GridStrategy(grid=grid, positions=X[:, i]) for i in range(n))
    return BvpSolution(
        strategies=strategies,
        derivatives=Y,
        residuals=residual_report(strategies, problem),
        quadrature_error=None,
        terminal_defect=defect,
    )


def solve_infinite(
    system: FirstOrderSystem, x0: Sequence[float], problem: Problem
) -> list:
    """Infinite-horizon equilibrium via the decaying eigendirections of M.

    Equal risk aversions use the analytic eigenpairs (the all-ones direction
    for the aggregate, its complement for deviations); two heterogeneous
    players use the quartic's negative roots with eigenvectors recovered from
    the system matrix blocks. Every returned direction is verified to be an
    eigenvector of M before use.
    """
    x0 = np.asarray(x0, dtype=float)
    n = system.n_agents
    if x0.size != n:
        raise InvalidParam("x0", "one initial inventory per agent required")
    market = problem.market
    alphas = problem.alphas

    if problem.equal_alpha:
        spec = closed_form.spectral(market, float(alphas[0]), n)
        rates = np.array([spec.theta_minus, spec.rho_minus])
        if np.any(rates >= 0):
            raise StableSubspaceDeficient("non-decaying mode; needs alpha > 0 and sigma > 0")
        x_bar = float(np.mean(x0))
        modes = [
            (x0 - x_bar, spec.theta_minus),  # deviation block, orthogonal to ones
            (np.full(n, x_bar), spec.rho_minus),  # aggregate block along ones
        ]
        found = 0
        for vec, rate in modes:
            z = np.concatenate([vec, rate * vec])
            norm = np.linalg.norm(z)
            if norm == 0.0:
                found += 1  # zero component carries no constraint
                continue
            if np.linalg.norm(system.matrix @ z - rate * z) <= 1e-8 * norm * max(1.0, abs(rate)):
                found += 1
        if found < 2:
            raise StableSubspaceDeficient("analytic eigenpairs fail on the system matrix")
        strategies = []
        horizon = Horizon.infinite()
        for i in range(n):
            strategies.append(
                ExpSumStrategy(
                    coefs=[x0[i] - x_bar, x_bar],
                    rates=[spec.theta_minus, spec.rho_minus],
                    anchors=[0.0, 0.0],
                    horizon=horizon,
                )
            )
        return strategies

    if n != 2:
        raise UnsupportedCase("heterogeneous risk aversion solved for two agents only")
    first, second, _ = closed_form.two_player_infinite(
        market,
        AgentSpec(x0=float(x0[0]), alpha=problem.agents[0].alpha),
        AgentSpec(x0=float(x0[1]), alpha=problem.agents[1].alpha),
    )
    return [first, second]


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def _strategy_derivatives_on_grid(strategy: GridStrategy, idx: np.ndarray):
    """Fourth-order finite-difference rates and curvatures at interior nodes."""
    p = strategy.positions
    h = strategy.dt
    d1 = (p[idx - 2] - 8.0 * p[idx - 1] + 8.0 * p[idx + 1] - p[idx + 2]) / (12.0 * h)
    d2 = (
        -p[idx - 2] + 16.0 * p[idx - 1] - 30.0 * p[idx] + 16.0 * p[idx + 1] - p[idx + 2]
    ) / (12.0 * h**2)
    return p[idx], d1, d2


def residual_report(
    strategies: Sequence, problem: Problem, n_probes: int = 100
) -> ResidualReport:
    """Euler-Lagrange residuals of a profile at interior probe times.

    For each agent the defect of
        alpha_i sigma^2 X_i - 2 lam X_i'' - b - gamma sum_{j!=i} X_j'
        - lam sum_{j!=i} X_j''
    is evaluated: analytically for exponential sums, with fourth-order
    centered differences for grid strategies. The report's scale is the
    largest magnitude among the equation's terms over the probes.
    """
    strategies = list(strategies)
    if len(strategies) != problem.n:
        raise InvalidParam("strategies", "one strategy per agent required")
    market = problem.market
    grids = [s for s in strategies if isinstance(s, GridStrategy)]
    if grids:
        g0 = grids[0].grid
        for s in grids[1:]:
            if s.grid.shape != g0.shape or not np.array_equal(s.grid, g0):
                raise GridMismatch("grid strategies must share one grid")
        n_nodes = g0.size
        lo, hi = 2, n_nodes - 3
        count = min(n_probes, hi - lo + 1)
        idx = np.unique(np.round(np.linspace(lo, hi, count)).astype(int))
        t = g0[idx]
    else:
        if problem.horizon.is_finite:
            t_end = problem.T
        else:
            slowest = max(float(np.max(s.rates)) for s in strategies)
            t_end = np.log(1e6) / abs(slowest)
        t = np.linspace(0.0, t_end, n_probes + 2)[1:-1]
        idx = None

    pos = np.empty((len(strategies), t.size))
    d1 = np.empty_like(pos)
    d2 = np.empty_like(pos)
    for i, s in enumerate(strategies):
        if isinstance(s, GridStrategy):
            pos[i], d1[i], d2[i] = _strategy_derivatives_on_grid(s, idx)
        else:
            pos[i] = s.position(t)
            d1[i] = s.rate(t)
            d2[i] = s.accel(t)

    b = np.asarray(market.drift(t), dtype=float) * np.ones_like(t)
    sig2 = market.sigma**2
    lam, gamma = market.lam, market.gamma
    sum_d1 = d1.sum(axis=0)
    sum_d2 = d2.sum(axis=0)
    max_res = 0.0
    scale = 0.0
    for i in range(len(strategies)):
        alpha_i = problem.agents[i].alpha
        others_d1 = sum_d1 - d1[i]
        others_d2 = sum_d2 - d2[i]
        terms = (
            alpha_i * sig2 * pos[i],
            -2.0 * lam * d2[i],
            -b,
            -gamma * others_d1,
            -lam * others_d2,
        )
        res = sum(terms)
        max_res = max(max_res, float(np.max(np.abs(res))))
        scale = max(scale, float(max(np.max(np.abs(term)) for term in terms)))

    if problem.horizon.is_finite:
        end_err = max(abs(float(s.position(problem.T))) for s in strategies)
    else:
        end_err = max(abs(float(s.position(t[-1]))) for s in strategies)
    start_err = max(
        abs(float(s.position(0.0)) - problem.agents[i].x0) for i, s in enumerate(strategies)
    )
    rel = max_res / scale if scale > 0 else 0.0
    return ResidualReport(
        max_residual=max_res,
        scale=scale,
        relative=rel,
        boundary_start=start_err,
        boundary_end=end_err,
        n_probes=int(t.size),
    )
