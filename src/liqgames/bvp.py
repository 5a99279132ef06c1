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
Computing integrals involving the matrix exponential, IEEE TAC 1978). The
solve takes it of each decoupled part of M below, never of M itself, whose
e^{M h} can overflow on a stiff grid. An interval with drift sample points
strictly inside it is split there, and its pieces are chained by their own
step, one small exponential per piece. So the discrete solution at the
nodes does not depend on the grid, and each returned GridStrategy carries
both blocks of it: inventories and rates.

The solve decouples M's modes by the direction in which they decay (Ascher,
Mattheij and Russell, Numerical Solution of Boundary Value Problems for
ODEs, SIAM 1995): eigenvalues only choose the split, and sorted real Schur
forms (Laub, IEEE TAC 1979) give the bases (see _split). In w = D^-1 Z the
forward part marches from t = 0 and the backward part from t = T, on the
drift reversed in time; neither grows past about e over the horizon,
whatever the horizon or the grid step, and one 2n x 2n solve joins them (see
_march). No eigenvector is formed. A singular 2n x 2n system, non-finite
nodes or an overflowing exponential raise SingularShootingMatrix. Infinite
horizons are solved in closed form (see closed_form).

The solution is exact between nodes as well (DecoupledSolution.positions),
and the forcing of each interval is chained over the drift's sample points
inside it, so every drift needs only one interval: parameter_scan probes
it so. solve_finite builds its node strategies from the same solve.

residual_report checks grid profiles on the solve's own decoupled interval
map (see _decoupled), which it certifies to be M's, and exponential sums
mode by mode.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dgees, dtrsen
# Not called: perfbench's tracer still wraps bvp.splu by name (ROADMAP item 1).
from scipy.sparse.linalg import splu

from .errors import HorizonMismatch, InvalidParam, SingularShootingMatrix
from .model import (DriftSpec, GridStrategy, Problem, _check_profile, _exp_sum_drift, _in_domain,
                    _mode_table, _sample_profile, system_matrix)

__all__ = [
    "BvpSolution",
    "DecoupledSolution",
    "ResidualReport",
    "assemble",
    "solve_decoupled",
    "solve_finite",
    "residual_report",
]

# A drift sample point this close to a node, in units of the step, counts as
# on the node: sample grids built as T k / K sit there up to rounding, and a
# piece of rounding length would cost two exponentials for no accuracy.
_KNOT_SNAP = 1e-9


def assemble(problem: Problem) -> Tuple[np.ndarray, np.ndarray]:
    """(M, u) of dZ/dt = M Z + b(t) u for a validated problem."""
    n = problem.n
    u = np.zeros(2 * n)
    u[n:] = -1.0 / (problem.market.lam * (n + 1))
    return system_matrix(problem.market, problem.alphas), u


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Optimality-condition residuals of a strategy profile.

    relative is dimensionless. For a grid profile, max_residual sums the
    one-step defects of the decoupled node states y_j over the n_probes = N
    intervals, scale is the largest entry of y_j, G y_j or s_j, and relative
    is the larger of max_residual / scale and the relative error of the
    split that decouples them (see residual_report). For exponential sums,
    relative = max_residual / scale: max_residual bounds the Euler-Lagrange
    defect over the whole horizon from its n_probes modes, and scale bounds
    each of the equation's five terms the same way. Boundary errors are
    absolute.
    """

    max_residual: float
    scale: float
    relative: float
    boundary_start: float
    boundary_end: float
    n_probes: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class BvpSolution:
    """Finite-horizon numerical equilibrium on a uniform grid."""

    strategies: Tuple[GridStrategy, ...]
    terminal_defect: float


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A, or SingularShootingMatrix when it overflows.

    Scaled to 1-norm < 4, where scipy's expm does not square, and squared
    here: its squaring of triangular input (Schur blocks are) cancels for
    close but unequal diagonal entries.
    """
    s = max(0, math.frexp(float(np.abs(A).sum(axis=0).max()))[1] - 2)
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm(A * 0.5**s)
        for _ in range(s):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise SingularShootingMatrix("matrix exponential overflows")
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


def _forcing(C: np.ndarray, g: np.ndarray, at, knots: np.ndarray, lo: float,
             hi: float) -> np.ndarray:
    """Exact variation-of-constants integral of at(t) g over [lo, hi], lo < hi.

    at must be linear between the knots that lie strictly inside (lo, hi):
    each piece between them takes its own step (_propagators), chained from
    lo to hi.
    """
    cuts = np.concatenate([[lo], knots[(knots > lo) & (knots < hi)], [hi]])
    bc = at(cuts)
    f = np.zeros(C.shape[0])
    for h, b_a, db in zip(np.diff(cuts), bc[:-1], np.diff(bc)):
        E_p, p1_p, p2_p = _propagators(C, g, h)
        f = E_p @ f + p1_p * b_a + p2_p * (db / h)
    return f


def _knots(drift: DriftSpec, T: float, reverse: bool = False) -> np.ndarray:
    """The drift's sample points in increasing order, as T - t with reverse."""
    if drift.kind != "sampled":
        return np.empty(0)
    return np.unique(T - drift.grid) if reverse else drift.grid


def _forcing_steps(M, u, drift: DriftSpec, T: float, n_steps: int, p1, p2,
                   reverse: bool = False) -> np.ndarray:
    """Exact variation-of-constants integral of b(t) u over every interval.

    p1, p2 are phi1 u and phi2 u at the grid step. Intervals holding drift
    sample points strictly inside are recomputed piece by piece (_forcing).
    With reverse, the drift is b(T - s) on the same grid of s.
    """
    dt = T / n_steps
    t = np.linspace(0.0, T, n_steps + 1)
    at = (lambda s: drift(T - s)) if reverse else drift
    b = at(t)
    steps = np.outer(b[:-1], p1) + np.outer(np.diff(b) / dt, p2)
    grid = _knots(drift, T, reverse)
    pos = grid / dt
    inside = (grid > 0.0) & (grid < T) & (np.abs(pos - np.round(pos)) > _KNOT_SNAP)
    knots = grid[inside]
    owner = np.floor(pos[inside]).astype(int)
    for k in np.unique(owner):
        steps[k] = _forcing(M, u, at, knots[owner == k], t[k], t[k + 1])
    return steps


def _split(M: np.ndarray, T: float) -> Tuple[np.ndarray, np.ndarray, int]:
    """D, C = blockdiag(A_f, -A_b) and k = dim A_f, with M D = D blockdiag(A_f, A_b).

    Sorted, the real parts r_j of M's eigenvalues split after r_k when
    r_k T <= 1 and r_{k+1} T >= -1 (k = count(r_j T < -1) always does), so
    neither e^{A_f t} nor e^{-A_b t} grows past about e on [0, T]. The
    widest such gap wins, an end counting as infinite, so slow modes stay
    together. M = [[0, I], [A, B]] is balanced by scaling rates by c >= 1, a
    power of two near sqrt|A|, so fast modes keep inventory parts; its real
    Schur form is reordered (trsen) with the eigenvalues below, then above,
    the gap's midpoint first, and D = diag(1, c) [Q_f Q_b]. C runs the
    backward part in T - t.
    """
    n = M.shape[0] // 2
    a = max(1.0, np.abs(M[n:, :n]).sum(axis=1).max())
    scale = np.repeat([1.0, 2.0 ** (math.frexp(a)[1] // 2)], n)
    S, _, r, _, Q, _, bad = dgees(lambda re, im: False, M * scale / scale[:, None])  # unsorted
    rs = [-math.inf] + sorted(r.tolist()) + [math.inf]
    _, lo, hi = max((b - a, a, b) for a, b in zip(rs, rs[1:]) if a * T <= 1.0 and b * T >= -1.0)
    cut = (lo + hi) / 2.0
    (A_f, Q_f, *_, k, _, _, bad_f), (A_b, Q_b, *_, k_b, _, _, bad_b) = (
        dtrsen(select.astype(np.int32), S, Q, job="N") for select in (r < cut, r > cut))
    if bad or bad_f or bad_b:
        raise SingularShootingMatrix(f"the spectrum of M does not split at {cut}")
    C = np.zeros_like(M)
    C[:k, :k], C[k:, k:] = A_f[:k, :k], -A_b[:k_b, :k_b]
    return scale[:, None] * np.hstack([Q_f[:, :k], Q_b[:, :k_b]]), C, k


def _march(D: np.ndarray, k: int, Ch: np.ndarray, G: np.ndarray,
           steps: Optional[np.ndarray], x0, n_steps: int) -> np.ndarray:
    """Node states w_0..w_N of w = D^-1 Z from the decoupled marches and one 2n x 2n solve.

    y_j stacks the first k rows of w (forward) at node j over the rest
    (backward) at node N - j, so y_{j+1} = G y_j + s_j, G = e^{Ch}. On
    blocks of L = ceil(sqrt(N)) steps (the last takes the rest), mapped by
    e^{Ch L} (G^L's squarings lose digits), the forcing is summed and then
    the nodes marched in lockstep: L vectorised steps, not N. Block ends
    chained from 0 and from I give y_N = H y_0 + p; X(0) = x0 and X(T) = 0
    fix y_0 = (w_f(0), w_b(T)). Nodes past the float range come back
    non-finite, without a warning.
    """
    m = G.shape[0]
    L = math.isqrt(n_steps - 1) + 1
    ends = np.append(np.arange(0, n_steps, L), n_steps)
    starts, lengths = ends[:-1], np.diff(ends)
    # block j as the affine map y -> P_j y + f_j in homogeneous coordinates
    blocks = np.zeros((starts.size, m + 1, m + 1))
    blocks[:, m, m] = 1.0
    for length in set(lengths.tolist()):
        blocks[lengths == length, :m, :m] = G if length == 1 else _expm(Ch * length)

    def advance(i: int, Y: np.ndarray) -> np.ndarray:
        # step i of every block that has one (only the last can be shorter),
        # one per row; steps[i::L] are those blocks' steps
        Y = Y[:len(range(i, n_steps, L))] @ G.T
        return Y if steps is None else Y + steps[i::L]

    forcing = blocks[:, :m, m]  # a view: the f_j land in the blocks
    if steps is not None:
        for i in range(L):
            forcing[:len(range(i, n_steps, L))] = advance(i, forcing)
    # y at every block end, H_j y_0 + p_j, as chain[j] @ (y_0, 1)
    chain = np.array(list(accumulate(blocks, lambda c, b: b @ c, initial=np.eye(m + 1))))
    H, p = chain[-1, :m, :m], chain[-1, :m, m]
    # X(0) reads y_0's forward part and y_N's backward part, X(T) the others
    Df, Db = D[:m // 2, :k], D[:m // 2, k:]
    A = np.vstack([np.hstack([Df, Db @ H[k:, k:]]), np.hstack([Df @ H[:k, :k], Db])])
    rhs = np.concatenate([x0 - Db @ p[k:], -Df @ p[:k]])
    try:
        y0 = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise SingularShootingMatrix("boundary system is singular") from None
    Y = np.empty((n_steps + 1, m))
    with np.errstate(over="ignore", invalid="ignore"):
        Y[ends] = chain[:, :m] @ np.append(y0, 1.0)
        cur = Y[starts]
        for i in range(L - 1):
            cur = advance(i, cur)[:len(range(i + 1, n_steps, L))]
            Y[i + 1::L][:len(cur)] = cur
    Y[:, k:] = Y[::-1, k:]  # the backward part at node j is y_{N-j}
    return Y


def _decoupled(problem: Problem, n_steps: int):
    """M, D, C, k, g and the decoupled interval map y_{j+1} = G y_j + s_j (see _march).

    g = D^-1 u with its backward rows negated drives the decoupled forcing;
    s holds the exact forcing of every interval, None for zero drift.
    """
    T, drift = problem.T, problem.market.drift
    M, u = assemble(problem)
    D, C, k = _split(M, T)
    g = np.linalg.solve(D, u)
    g[k:] *= -1.0  # the backward part runs in s = T - t
    G, p1, p2 = _propagators(C, g, T / n_steps)
    steps = None if drift.is_zero else np.hstack([
        _forcing_steps(C[:k, :k], g[:k], drift, T, n_steps, p1[:k], p2[:k]),
        _forcing_steps(C[k:, k:], g[k:], drift, T, n_steps, p1[k:], p2[k:], reverse=True),
    ])
    return M, D, C, k, g, G, steps


@dataclass(frozen=True, eq=False)
class DecoupledSolution:
    """The finite-horizon equilibrium on the solve's decoupled basis.

    grid holds the march's nodes, and W and Z the states w and Z = D w at
    each (every agent's inventory, then every agent's rate). C =
    blockdiag(A_f, -A_b) and g drive w: the first k rows forward in t, the
    rest backward in T - t (see _split and _decoupled).
    """

    grid: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    D: np.ndarray
    C: np.ndarray
    k: int
    g: np.ndarray
    drift: DriftSpec

    def positions(self, t: float) -> np.ndarray:
        """Every agent's inventory at the time t, exact between nodes to rounding.

        On the interval [a, b] holding t, the forward part is e^{A_f (t - a)}
        w_f(a) plus the exact forcing over [a, t], and the backward part
        e^{-A_b (b - t)} w_b(b) plus its forcing over [b, t], run in T - t;
        neither step grows past about e, and one exponential of the scaled C
        gives both. t = 0 returns the solved nodes' snapped x0 and t = T
        exactly 0.0, as solve_finite does; a time before 0 or past T raises
        OutOfDomain, as for every strategy type.
        """
        grid, k, C, g, drift = self.grid, self.k, self.C, self.g, self.drift
        T = float(grid[-1])
        t = float(_in_domain(t, T))
        n = self.Z.shape[1] // 2
        if t == 0.0:
            return self.Z[0, :n].copy()
        if t >= T:
            return np.zeros(n)
        j = int(np.searchsorted(grid, t, side="right")) - 1
        a, b = float(grid[j]), float(grid[j + 1])
        Cs = C.copy()
        Cs[:k] *= t - a
        Cs[k:] *= b - t
        w = _expm(Cs) @ np.concatenate([self.W[j, :k], self.W[j + 1, k:]])
        if not drift.is_zero:
            if t > a:
                w[:k] += _forcing(C[:k, :k], g[:k], drift, _knots(drift, T), a, t)
            w[k:] += _forcing(C[k:, k:], g[k:], lambda s: drift(T - s),
                              _knots(drift, T, reverse=True), T - b, T - t)
        with np.errstate(over="ignore", invalid="ignore"):
            x = self.D[:n] @ w
        if not np.all(np.isfinite(x)):
            raise SingularShootingMatrix("boundary solve produced non-finite values")
        return x


def solve_decoupled(problem: Problem, n_steps: int) -> DecoupledSolution:
    """The finite-horizon equilibrium marched on n_steps >= 1 intervals.

    The node states are exact up to rounding and the conditioning of the
    boundary problem on any grid (see the module docstring); the grid only
    places the nodes. With n_steps = 1 the march is one boundary
    exponential and one 2n x 2n solve. Inventories snap to exactly x0 at
    t = 0, not at T: solve_finite records the terminal defect first.
    """
    if not problem.horizon.is_finite:
        raise HorizonMismatch("the grid solver needs a finite horizon")
    if n_steps < 1:
        raise InvalidParam("n_steps", "need at least one interval")
    T, n = problem.T, problem.n
    _, D, C, k, g, G, steps = _decoupled(problem, n_steps)
    W = _march(D, k, C * (T / n_steps), G, steps, problem.x0, n_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        Z = W @ D.T
    if not np.all(np.isfinite(Z)):
        raise SingularShootingMatrix("boundary solve produced non-finite values")
    Z[0, :n] = problem.x0
    grid = np.linspace(0.0, T, n_steps + 1)
    return DecoupledSolution(grid=grid, W=W, Z=Z, D=D, C=C, k=k, g=g, drift=problem.market.drift)


def solve_finite(problem: Problem, n_steps: int = 400) -> BvpSolution:
    """Numerical equilibrium of a finite-horizon problem on n_steps intervals.

    The node states are solve_decoupled's: the drift's forcing is integrated
    exactly over every interval, so the node values are those of the
    continuous problem up to rounding and the conditioning of the boundary
    problem itself (see the module docstring). Each agent's strategy
    carries its inventory and rate columns of them. Initial inventories are
    snapped to exactly x0, and terminal ones to exactly zero after the
    defect is recorded; the rates are kept as solved. residual_report
    measures the optimality residual.
    """
    if n_steps < 8:
        raise InvalidParam("n_steps", "need at least 8 intervals")
    sol = solve_decoupled(problem, n_steps)
    n = problem.n
    X = sol.Z[:, :n].copy()
    defect = float(np.max(np.abs(X[-1])))
    X[-1] = 0.0
    strategies = tuple(
        GridStrategy(grid=sol.grid, positions=X[:, i], rates=sol.Z[:, n + i]) for i in range(n)
    )
    return BvpSolution(strategies=strategies, terminal_defect=defect)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def residual_report(strategies: Sequence, problem: Problem) -> ResidualReport:
    """Optimality residuals of a profile.

    The profile is checked as by every whole-profile function (see
    model._check_profile): InvalidParam unless it holds one strategy per
    agent, HorizonMismatch for any member off the problem's horizon (a grid
    whose last node is not T included), GridMismatch for grid members on
    different grids.

    A profile holding grid strategies is checked on their shared grid of N
    intervals, with exponential-sum members sampled at its nodes: the node
    states Z_j = (X_j, X_j') must satisfy the solver's exact interval map,
    so positions and rates are certified together. The map is read where
    the solve marches it (see _decoupled and _march): y_j stacks the
    forward rows of D^-1 Z_j over the backward rows of D^-1 Z_{N-j}, and
    y_{j+1} = G y_j + s_j, with no step growing past about e. The report
    reads sum_j max|y_{j+1} - G y_j - s_j| with n_probes = N: the discrete
    L1 norm of the defect, which the boundary problem's stability constant
    turns into a bound on the profile's error. The largest single defect
    would read a forcing error at its O(dt) size per step. scale is the
    largest entry of any y_j (y_0 included, so x0 counts), G y_j or s_j.
    The map is M's own only if M D = D blockdiag(A_f, A_b), and a basis
    that fails it would pass the defect as it passed the solve; so relative
    is also at least max|M D - D blockdiag(A_f, A_b)| / (max|M| max|D|).

    A profile of exponential sums is checked mode by mode against the
    Euler-Lagrange equation
        alpha_i sigma^2 X_i - 2 lam X_i'' - b - gamma sum_{j!=i} X_j'
        - lam sum_{j!=i} X_j''.
    A mode e^{r (t - a)} with coefficients c over the agents (see
    model._mode_table) leaves agent i the coefficient
        R_i = (alpha_i sigma^2 - 2 lam r^2) c_i - (gamma r + lam r^2) (sum_j c_j - c_i);
    the rate-0 modes and -b of a constant drift form one constant mode.
    max_residual, over agents, is the largest sum over modes of |R_i| times
    the mode's peak on the horizon (at t = 0 or T), so it bounds the defect
    at every time; scale is that sum for each of the five terms alone, and
    n_probes counts the modes. The boundary values are the modes' sums at 0
    and T (no end on an infinite horizon, where every mode decays). A
    sampled drift that is not zero raises UnsupportedCase.
    """
    strategies = list(strategies)
    n = problem.n
    t = _check_profile(strategies, problem)
    if t is not None:
        # node states as C-ordered rows: the einsums below sum in that layout
        Z = np.vstack(_sample_profile(strategies, t)).T.copy()
        M, D, C, k, _, G, steps = _decoupled(problem, t.size - 1)
        # numpy's own loops, not BLAS: right after expm, a threaded BLAS product
        # of this size took about 5 ms at n = 20 on 2 CPUs, this loop 0.4 ms
        Y = np.einsum("ij,kj->ki", np.linalg.inv(D), Z)
        Y[:, k:] = Y[::-1, k:]  # y_j holds the backward part at node N - j
        mapped = np.einsum("ij,kj->ki", G, Y[:-1])
        forced = np.zeros_like(mapped) if steps is None else steps
        max_res = float(np.sum(np.max(np.abs(Y[1:] - mapped - forced), axis=1)))
        scale = max(float(np.max(np.abs(a))) for a in (Y, mapped, forced))
        # the map is M's own only where M D = D blockdiag(A_f, A_b)
        C[k:, k:] *= -1.0
        split = np.einsum("ij,jk->ik", M, D) - np.einsum("ij,jk->ik", D, C)
        split_rel = float(np.max(np.abs(split)) / (np.max(np.abs(M)) * np.max(np.abs(D))))
        start_err = float(np.max(np.abs(Z[0, :n] - problem.x0)))
        end_err = float(np.max(np.abs(Z[-1, :n])))
        n_probes = t.size - 1
    else:
        market, T = problem.market, problem.T
        b = _exp_sum_drift(problem)
        C, r, a = _mode_table(strategies)
        flat = r == 0.0  # e^{0 (t - a)} = 1 whatever the anchor
        if b != 0.0 or np.any(flat):
            C = np.hstack([C[:, ~flat], C[:, flat].sum(axis=1, keepdims=True)])
            r, a = np.append(r[~flat], 0.0), np.append(a[~flat], 0.0)
        drift_term = np.broadcast_to(np.where(r == 0.0, -b, 0.0), C.shape)
        # one row per agent; the others' sums are the totals less the own row
        others = C.sum(axis=0) - C
        terms = (
            problem.alphas[:, None] * market.sigma**2 * C,
            -2.0 * market.lam * r**2 * C,
            drift_term,
            -market.gamma * r * others,
            -market.lam * r**2 * others,
        )
        at_start = np.exp(-r * a)
        at_end = np.zeros_like(r) if T is None else np.exp(r * (T - a))
        peak = np.maximum(at_start, at_end)
        max_res, *bounds = (float(np.max((np.abs(x) * peak).sum(axis=1)))
                            for x in (sum(terms),) + terms)
        scale = max(bounds)
        start_err = float(np.max(np.abs((C * at_start).sum(axis=1) - problem.x0)))
        end_err = float(np.max(np.abs((C * at_end).sum(axis=1))))
        n_probes = r.size
        split_rel = 0.0
    return ResidualReport(
        max_residual=max_res,
        scale=scale,
        relative=max(max_res / scale if scale > 0 else 0.0, split_rel),
        boundary_start=start_err,
        boundary_end=end_err,
        n_probes=n_probes,
    )
