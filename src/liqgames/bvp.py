"""Two-point boundary value solver for the finite-horizon equilibrium.

The coupled optimality conditions of the n-agent game form a linear system
dZ/dt = M Z + f(t) for Z = (inventories, trading rates), with inventories
pinned at both ends: X(0) = x0 and, from the state constraint, X(T) = 0.
The drift enters as f(t) = b(t) u, with u zero in the inventory block and
-1/(lam (n+1)) in the rate block.

Every accepted drift is piecewise linear in t (zero, constant, or linear
interpolation of samples), so the variation-of-constants integral of each
grid interval is exact: on a piece of length h where b is linear,

    int_0^h e^{M (h - s)} f(t_a + s) ds = phi1 u b_a + phi2 u (b_b - b_a) / h,

with phi1 = int_0^h e^{M r} dr and phi2 = int_0^h e^{M r} (h - r) dr. One
matrix exponential of the block-triangular [[M h, u h, 0], [0, 0, h],
[0, 0, 0]] returns e^{M h}, phi1 u and phi2 u together (Van Loan,
Computing integrals involving the matrix exponential, IEEE TAC 1978). An
interval with drift sample points strictly inside it is split there, and its
pieces are chained by their own e^{M h_p}, one small exponential per piece.
So the discrete solution at the nodes does not depend on the grid, and each
returned GridStrategy carries both blocks of it: inventories and rates.

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

A matrix exponential that overflows raises SingularShootingMatrix. No
eigendecomposition is used on the solve path; M is nonsymmetric and its
eigenvectors can be poorly conditioned for nearby risk aversions. Infinite
horizons are solved in closed form (see closed_form).

residual_report checks grid profiles against this same interval map; the map
itself is checked against closed forms and manufactured solutions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import splu

from .errors import GridMismatch, InvalidParam, SingularShootingMatrix
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
# A drift sample point this close to a node, in units of the step, counts as
# on the node: sample grids built as T k / K sit there up to rounding, and a
# piece of rounding length would cost two exponentials for no accuracy.
_KNOT_SNAP = 1e-9


@dataclass(frozen=True, eq=False)
class FirstOrderSystem:
    """First-order form dZ/dt = M Z + f(t) of the equilibrium conditions."""

    matrix: np.ndarray
    n_agents: int
    lam: float
    drift: DriftSpec


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

    relative = max_residual / scale is dimensionless. For a grid profile,
    max_residual sums the one-step defects over the n_probes = N intervals
    and scale is the largest entry of Z_{k+1}, E Z_k or s_k (see
    residual_report); for exponential sums they are the largest
    Euler-Lagrange defect and term over the probe times. Boundary errors
    are absolute.
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
    terminal_defect: float


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A, or SingularShootingMatrix when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm(A)
    if not np.all(np.isfinite(out)):
        raise SingularShootingMatrix("matrix exponential overflows; shorten the grid step")
    return out


def _propagators(M: np.ndarray, u: np.ndarray, h: float):
    """e^{M h}, phi1 u and phi2 u over a step h, from one block exponential."""
    m = M.shape[0]
    C = np.zeros((m + 2, m + 2))
    C[:m, :m] = M * h
    C[:m, m] = u * h
    C[m, m + 1] = h
    F = _expm(C)
    return F[:m, :m], F[:m, m], F[:m, m + 1]


def _forcing_steps(M, u, drift: DriftSpec, T: float, n_steps: int, p1, p2) -> np.ndarray:
    """Exact variation-of-constants integral of b(t) u over every interval.

    p1, p2 are phi1 u and phi2 u at the grid step. Intervals holding drift
    sample points strictly inside are recomputed piece by piece.
    """
    dt = T / n_steps
    t = np.linspace(0.0, T, n_steps + 1)
    b = drift(t)
    steps = np.outer(b[:-1], p1) + np.outer(np.diff(b) / dt, p2)
    if drift.kind != "sampled":
        return steps
    pos = drift.grid / dt
    inside = (drift.grid > 0.0) & (drift.grid < T) & (np.abs(pos - np.round(pos)) > _KNOT_SNAP)
    knots = drift.grid[inside]
    owner = np.floor(pos[inside]).astype(int)
    for k in np.unique(owner):
        cuts = np.concatenate([[t[k]], knots[owner == k], [t[k + 1]]])
        bc = drift(cuts)
        step = np.zeros(M.shape[0])
        for h, b_a, db in zip(np.diff(cuts), bc[:-1], np.diff(bc)):
            E_p, p1_p, p2_p = _propagators(M, u, h)
            step = E_p @ step + p1_p * b_a + p2_p * (db / h)
        steps[k] = step
    return steps


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


def _global_route(E: np.ndarray, n_steps: int, x_left, steps: Optional[np.ndarray]) -> np.ndarray:
    """Every node at once, for stiff horizons.

    Factors the matrix of _global_system with splu and its default COLAMD
    column ordering and solves it against (x_left, step_0, ...,
    step_{N-1}, 0). Entries stay O(e^{growth dt}) so the system is
    representable for horizons where single shooting overflows, and the
    factorization splits stable from unstable modes implicitly.
    """
    m = E.shape[0]
    n = m // 2
    try:
        lu = splu(_global_system(E, n_steps))
    except RuntimeError as exc:  # splu reports exact singularity this way
        raise SingularShootingMatrix(f"global boundary system is singular ({exc})") from exc
    rhs = np.zeros((n_steps + 1) * m)
    rhs[:n] = x_left
    if steps is not None:
        rhs[n:-n] = steps.ravel()
    Z = lu.solve(rhs)
    if not np.all(np.isfinite(Z)):
        raise SingularShootingMatrix("global boundary solve produced non-finite values")
    return Z.reshape(n_steps + 1, m)


def _shooting_route(M: np.ndarray, E: np.ndarray, T: float, n_steps: int, x_left,
                    steps: Optional[np.ndarray]) -> np.ndarray:
    """Shooting for the initial rates, then a march across the grid.

    With Phi = e^{M T} and P the forced response accumulated to T, the
    initial rates solve S y = -Phi_xx x_left - P_x for the shooting matrix
    S = Phi_xy, after which the grid is marched forward from (x_left, y).
    """
    m = M.shape[0]
    n = m // 2
    Phi = _expm(M * T)
    S = Phi[:n, n:]
    P_end = np.zeros(m)
    if steps is not None:
        for k in range(n_steps):
            P_end = E @ P_end + steps[k]
    rhs = -Phi[:n, :n] @ x_left - P_end[:n]
    if not np.all(np.isfinite(rhs)):
        raise SingularShootingMatrix("shooting right-hand side is not finite")
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


def _step_map(system: FirstOrderSystem, T: float, n_steps: int):
    """Exact interval map Z_{k+1} = E Z_k + s_k: E and s (None for zero drift)."""
    n = system.n_agents
    u = np.zeros(2 * n)
    u[n:] = -1.0 / (system.lam * (n + 1))
    E, p1, p2 = _propagators(system.matrix, u, T / n_steps)
    if system.drift.is_zero:
        return E, None
    return E, _forcing_steps(system.matrix, u, system.drift, T, n_steps, p1, p2)


def solve_finite(
    system: FirstOrderSystem,
    x0: Sequence[float],
    T: float,
    n_steps: int = 400,
) -> BvpSolution:
    """Numerical equilibrium over [0, T] on a uniform grid of n_steps intervals.

    The drift's forcing is integrated exactly over every interval, so the
    node values are those of the continuous problem up to rounding and the
    conditioning of the route, which follows growth T (see the module
    docstring). Each agent's strategy carries its inventory and rate columns
    of the solved node states. Terminal inventories are snapped to exactly
    zero after the defect is recorded; the rates are kept as solved. The
    optimality residual of the result is measured separately, by
    residual_report.
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
    E, steps = _step_map(system, T, n_steps)
    growth = float(np.max(np.linalg.eigvals(M).real))
    if growth * T > _BALANCE_THRESHOLD:
        Z = _global_route(E, n_steps, x0, steps)
    else:
        Z = _shooting_route(M, E, T, n_steps, x0, steps)
    X = Z[:, :n].copy()
    defect = float(np.max(np.abs(X[-1])))
    X[-1, :] = 0.0
    grid = np.linspace(0.0, T, n_steps + 1)
    strategies = tuple(
        GridStrategy(grid=grid, positions=X[:, i], rates=Z[:, n + i]) for i in range(n)
    )
    return BvpSolution(strategies=strategies, terminal_defect=defect)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def residual_report(
    strategies: Sequence, problem: Problem, n_probes: int = 100
) -> ResidualReport:
    """Optimality residuals of a profile.

    A profile holding grid strategies is checked on their shared grid of N
    intervals, with exponential-sum members sampled at its nodes: the node
    states Z_k = (X_k, X_k') must satisfy the solver's exact interval map
    (see _step_map), so positions and rates are certified together. The
    report reads sum_k max|Z_{k+1} - E Z_k - s_k| with n_probes = N: the
    discrete L1 norm of the defect, which the boundary problem's stability
    constant turns into a bound on the profile's error. The largest single
    defect would read a forcing error at its O(dt) size per step.

    A profile of exponential sums is checked analytically at n_probes
    interior times against the Euler-Lagrange equation
        alpha_i sigma^2 X_i - 2 lam X_i'' - b - gamma sum_{j!=i} X_j'
        - lam sum_{j!=i} X_j''.
    """
    strategies = list(strategies)
    n = problem.n
    if len(strategies) != n:
        raise InvalidParam("strategies", "one strategy per agent required")
    grids = [s for s in strategies if isinstance(s, GridStrategy)]
    if grids:
        t = grids[0].grid
        for s in grids[1:]:
            if s.grid.shape != t.shape or not np.array_equal(s.grid, t):
                raise GridMismatch("grid strategies must share one grid")
        if not problem.horizon.is_finite or abs(t[-1] - problem.T) > 1e-12 * problem.T:
            raise GridMismatch("grid strategies must span the problem's horizon")
        Z = np.empty((t.size, 2 * n))
        for i, s in enumerate(strategies):  # interpolation returns grid nodes exactly
            Z[:, i], Z[:, n + i] = s.position(t), s.rate(t)
        E, steps = _step_map(assemble(problem), problem.T, t.size - 1)
        # numpy's own loop, not BLAS: right after expm, a threaded BLAS product
        # of this size took about 5 ms at n = 20 on 2 CPUs, this loop 0.4 ms
        mapped = np.einsum("ij,kj->ki", E, Z[:-1])
        forced = np.zeros_like(mapped) if steps is None else steps
        max_res = float(np.sum(np.max(np.abs(Z[1:] - mapped - forced), axis=1)))
        scale = max(float(np.max(np.abs(a))) for a in (Z[1:], mapped, forced))
        start_err = float(np.max(np.abs(Z[0, :n] - problem.x0)))
        end_err = float(np.max(np.abs(Z[-1, :n])))
        n_probes = t.size - 1
    else:
        market = problem.market
        if problem.horizon.is_finite:
            t_end = problem.T
        else:
            slowest = max(float(np.max(s.rates)) for s in strategies)
            t_end = np.log(1e6) / abs(slowest)
        t = np.linspace(0.0, t_end, n_probes + 2)[1:-1]
        pos = np.array([s.position(t) for s in strategies])
        d1 = np.array([s.rate(t) for s in strategies])
        d2 = np.array([s.accel(t) for s in strategies])
        b = np.asarray(market.drift(t), dtype=float) * np.ones_like(t)
        sig2 = market.sigma**2
        lam, gamma = market.lam, market.gamma
        sum_d1 = d1.sum(axis=0)
        sum_d2 = d2.sum(axis=0)
        max_res = 0.0
        scale = 0.0
        for i in range(n):
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
    return ResidualReport(
        max_residual=max_res,
        scale=scale,
        relative=max_res / scale if scale > 0 else 0.0,
        boundary_start=start_err,
        boundary_end=end_err,
        n_probes=n_probes,
    )
