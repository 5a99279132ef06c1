"""Two-point boundary value solver for the finite-horizon equilibrium.

The coupled optimality conditions of the n-agent game form a linear system
dZ/dt = M Z + f(t) for Z = (inventories, trading rates), with inventories
pinned at both ends: X(0) = x0 and, from the state constraint, X(T) = 0.
On a uniform grid one matrix exponential E = e^{M dt} (computed once)
propagates the state across every step, and the drift enters through
per-step Simpson quadrature of the variation-of-constants integral.

Two routes solve the resulting discrete boundary system, chosen by
growth T, the fastest growth rate of M times the horizon:

- shooting, while growth T <= 16: one n x n solve for the unknown initial
  rates against the shooting matrix S, the rate-to-inventory block of
  e^{M T}, then a march across the grid;
- global, beyond that, where shooting's e^{growth T} error amplification
  would break the accuracy contract: one sparse solve coupling all nodes,
  which conditions like the boundary problem itself. Its block-banded
  matrix is written straight into CSC arrays from index arithmetic and
  factored once with SuperLU.

Both routes check the drift quadrature the same way, by Richardson on the
delivered solution. Because E = Eh Eh exactly, with Eh = e^{M dt/2}, the
difference between the N-step and the 2N-step solutions at their shared
nodes solves the same discrete boundary system with x0 = 0 and, as forcing,
each interval's one-step Simpson integral minus its two-half-step
composite. Each route re-runs its own solve on that defect; the largest
inventory difference relative to max(1, max|X|) must stay below 1e-8.

No eigendecomposition is used on the solve path; M is nonsymmetric and its
eigenvectors can be poorly conditioned for nearby risk aversions. Infinite
horizons are solved in closed form (see closed_form).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import splu

from .errors import (
    GridMismatch,
    InvalidParam,
    QuadratureUnderResolved,
    SingularShootingMatrix,
)
from .model import DriftSpec, GridStrategy, Problem, system_matrix

__all__ = [
    "FirstOrderSystem",
    "BvpSolution",
    "ResidualReport",
    "assemble",
    "solve_finite",
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
    """Build the first-order system for a validated problem."""
    return FirstOrderSystem(
        matrix=system_matrix(problem.market, problem.alphas),
        n_agents=problem.n,
        lam=problem.market.lam,
        drift=problem.market.drift,
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
    quadrature_error: Optional[float]
    terminal_defect: float


def _simpson_steps(E: np.ndarray, Eh: np.ndarray, dt: float, f_node, f_mid) -> np.ndarray:
    """Per-step variation-of-constants integrals, Simpson in the kernel."""
    return (dt / 6.0) * (f_node[:-1] @ E.T + 4.0 * (f_mid @ Eh.T) + f_node[1:])


def _drift_steps(M: np.ndarray, E: np.ndarray, Eh: np.ndarray, T: float, n_steps: int, f_call):
    """Per-step drift integrals of the solve and their Richardson defects.

    Because E = Eh Eh, a grid of 2 n_steps intervals follows the same
    recursion at the shared nodes, forced by the composite Eh r_1 + r_2 of
    its two half-step integrals. The defect of interval k is the one-step
    integral minus that composite.
    """
    dt = T / n_steps
    t_nodes = np.linspace(0.0, T, n_steps + 1)
    t_mids = t_nodes[:-1] + dt / 2.0
    f_node = f_call(t_nodes)
    f_mid = f_call(t_mids)
    steps = _simpson_steps(E, Eh, dt, f_node, f_mid)
    f_half = np.empty((2 * n_steps + 1, M.shape[0]))
    f_half[0::2] = f_node
    f_half[1::2] = f_mid
    t_quarter = np.empty(2 * n_steps)
    t_quarter[0::2] = t_nodes[:-1] + dt / 4.0
    t_quarter[1::2] = t_mids + dt / 4.0
    halves = _simpson_steps(Eh, expm(M * (dt / 4.0)), dt / 2.0, f_half, f_call(t_quarter))
    return steps, steps - (halves[0::2] @ Eh.T + halves[1::2])


def _global_system(E: np.ndarray, n_steps: int) -> sparse.csc_matrix:
    """CSC matrix of the discretized two-point problem.

    Unknowns are the full state Z_k at every node k = 0..N, stacked node by
    node. Rows 0..n-1 pin the inventory block of Z_0, interval k contributes
    the m rows Z_{k+1} - E Z_k starting at row n + k m, and the last n rows
    pin the inventory block of Z_N.

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
    return sparse.csc_matrix((vals[keep], rows[keep], indptr), shape=(size, size))


def _global_route(E: np.ndarray, n_steps: int):
    """Returns solve(x_left, steps) over every node at once, for stiff horizons.

    Factors the matrix of _global_system once with splu and its default
    COLAMD column ordering; each solve reuses the factor with the right-hand
    side (x_left, step_0, ..., step_{N-1}, 0). Entries stay O(e^{growth dt})
    so the system is representable for horizons where single shooting
    overflows, and the factorization splits stable from unstable modes
    implicitly.
    """
    m = E.shape[0]
    n = m // 2
    try:
        lu = splu(_global_system(E, n_steps))
    except RuntimeError as exc:  # splu reports exact singularity this way
        raise SingularShootingMatrix(f"global boundary system is singular ({exc})") from exc

    def solve(x_left, steps):
        rhs = np.zeros((n_steps + 1) * m)
        rhs[:n] = x_left
        if steps is not None:
            rhs[n:-n] = steps.ravel()
        Z = lu.solve(rhs)
        if not np.all(np.isfinite(Z)):
            raise SingularShootingMatrix("global boundary solve produced non-finite values")
        return Z.reshape(n_steps + 1, m)

    return solve


def _shooting_route(M: np.ndarray, E: np.ndarray, T: float, n_steps: int):
    """Returns solve(x_left, steps), shooting for the initial rates.

    With Phi = e^{M T} and P the forced response accumulated to T, the
    initial rates solve S y = -Phi_xx x_left - P_x for the shooting matrix
    S = Phi_xy, after which the grid is marched forward from (x_left, y).
    """
    m = M.shape[0]
    n = m // 2
    Phi = expm(M * T)
    S = Phi[:n, n:]

    def solve(x_left, steps):
        P_end = np.zeros(m)
        if steps is not None:
            for k in range(n_steps):
                P_end = E @ P_end + steps[k]
        rhs = -Phi[:n, :n] @ x_left - P_end[:n]
        if not np.all(np.isfinite(S)) or not np.all(np.isfinite(rhs)):
            raise SingularShootingMatrix("shooting matrix is not finite")
        try:
            y_left = np.linalg.solve(S, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularShootingMatrix(f"boundary solve failed ({exc})") from exc
        if not np.all(np.isfinite(y_left)):
            raise SingularShootingMatrix("boundary solve produced non-finite rates")
        Z = np.empty((n_steps + 1, m))
        Z[0] = np.concatenate([x_left, y_left])
        for k in range(n_steps):
            Z[k + 1] = E @ Z[k] + (steps[k] if steps is not None else 0.0)
        return Z

    return solve


def solve_finite(
    system: FirstOrderSystem,
    x0: Sequence[float],
    T: float,
    n_steps: int = 400,
) -> BvpSolution:
    """Numerical equilibrium over [0, T] on a uniform grid of n_steps intervals.

    The route follows growth T and a drift is checked by Richardson on the
    delivered solution (see the module docstring); QuadratureUnderResolved
    is raised when the estimate exceeds 1e-8. After the solve, terminal
    inventories are snapped to exactly zero (the defect is recorded first)
    and the terminal rate entry is recomputed from the snapped positions
    with the one-sided difference rule. The optimality residual of the
    result is measured separately, by residual_report.
    """
    x0 = np.asarray(x0, dtype=float)
    n = system.n_agents
    if x0.size != n:
        raise InvalidParam("x0", "one initial inventory per agent required")
    if T <= 0:
        raise InvalidParam("T", "horizon length must be > 0")
    if n_steps < 8:
        raise InvalidParam("n_steps", "need at least 8 intervals")
    M = system.matrix
    dt = T / n_steps
    Eh = expm(M * (dt / 2.0))
    E = Eh @ Eh
    growth = float(np.max(np.linalg.eigvals(M).real))
    if growth * T > _BALANCE_THRESHOLD:
        solve = _global_route(E, n_steps)
    else:
        solve = _shooting_route(M, E, T, n_steps)
    steps = step_defects = None
    if not system.drift.is_zero:
        steps, step_defects = _drift_steps(M, E, Eh, T, n_steps, system.forcing)

    Z = solve(x0, steps)
    X = Z[:, :n].copy()
    Y = Z[:, n:].copy()
    quad_err = None
    if step_defects is not None:
        dX = solve(np.zeros(n), step_defects)[:, :n]
        quad_err = float(np.max(np.abs(dX))) / max(1.0, float(np.max(np.abs(X))))
        if quad_err > _QUAD_RTOL:
            raise QuadratureUnderResolved(
                f"drift quadrature error {quad_err:.2e} exceeds {_QUAD_RTOL:.0e};"
                " increase n_steps"
            )
    defect = float(np.max(np.abs(X[-1])))
    X[-1, :] = 0.0
    Y[-1, :] = (3.0 * X[-1] - 4.0 * X[-2] + X[-3]) / (2.0 * dt)
    grid = np.linspace(0.0, T, n_steps + 1)
    strategies = tuple(GridStrategy(grid=grid, positions=X[:, i]) for i in range(n))
    return BvpSolution(
        strategies=strategies,
        derivatives=Y,
        quadrature_error=quad_err,
        terminal_defect=defect,
    )


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
