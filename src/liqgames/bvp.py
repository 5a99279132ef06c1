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

One route solves the resulting discrete boundary system, multiple shooting
(Stoer and Bulirsch, Introduction to Numerical Analysis, sec. 7.3.5). The
grid of N intervals is cut into segments of at most ceil(sqrt(N)) whole
intervals, also short enough that the fastest growth rate of M times the
segment length stays within a fixed budget. One solve couples the states at
the segment ends through each segment's propagator e^{M L dt} and
accumulated forcing; its matrix is banded, is written straight into LAPACK
band storage from index arithmetic, and is solved by banded LU with partial
pivoting (gbsv), whose memory is the band itself. A march across each
segment from its solved start fills in the interior nodes. The forcing
accumulation and the march advance all segments in lockstep, so each takes
about sqrt(N) vectorised steps rather than N. A mild horizon is sqrt(N)
segments of sqrt(N) intervals; on the stiffest grids every interval is a
segment, which is a banded solve over every node. Rounding grows by at most
the budget's exponential inside a segment, whatever the horizon.

A matrix exponential that overflows raises SingularShootingMatrix. No
eigendecomposition is used on the solve path; M is nonsymmetric and its
eigenvectors can be poorly conditioned for nearby risk aversions. Infinite
horizons are solved in closed form (see closed_form).

residual_report checks grid profiles against this same interval map; the map
itself is checked against closed forms and manufactured solutions. Profiles
of exponential sums are checked mode by mode, on no grid.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dgbsv
# Not called: perfbench's tracer still wraps bvp.splu by name (ROADMAP item 1).
from scipy.sparse.linalg import splu

from .errors import HorizonMismatch, InvalidParam, SingularShootingMatrix
from .model import (DriftSpec, GridStrategy, Problem, _check_profile, _exp_sum_drift, _mode_table,
                    _sample_profile, system_matrix)

__all__ = [
    "BvpSolution",
    "ResidualReport",
    "assemble",
    "solve_finite",
    "residual_report",
]

# Growth budget of one shooting segment: forward rounding inside a segment
# grows by at most e^4 ~ 55.
_SEGMENT_GROWTH = 4.0
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

    relative = max_residual / scale is dimensionless. For a grid profile,
    max_residual sums the one-step defects over the n_probes = N intervals
    and scale is the largest entry of Z_{k+1}, E Z_k or s_k (see
    residual_report); for exponential sums, max_residual bounds the
    Euler-Lagrange defect over the whole horizon from its n_probes modes,
    and scale bounds each of the equation's five terms the same way.
    Boundary errors are absolute.
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


def _segment_ends(growth: float, T: float, n_steps: int) -> np.ndarray:
    """End nodes 0, L, 2 L, ..., N of the shooting segments.

    L is ceil(sqrt(N)), so the banded solve couples about sqrt(N) segment
    ends and the lockstep march of _multiple_shooting takes about sqrt(N)
    steps; it is cut further to the most whole intervals whose growth stays
    within _SEGMENT_GROWTH (at least one). The last segment takes the
    remainder, so any N works.
    """
    L = math.isqrt(n_steps - 1) + 1
    if growth * T > _SEGMENT_GROWTH:
        L = max(1, min(L, int(_SEGMENT_GROWTH // (growth * T / n_steps))))
    return np.append(np.arange(0, n_steps, L), n_steps)


def _global_system(P: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
    """LAPACK band storage of the discretized two-point problem over K segments.

    P is the (K, m, m) stack of segment propagators. Unknowns are the full
    state W_j at every segment end j = 0..K, stacked end by end. Rows 0..n-1
    pin the inventory block of W_0, segment j contributes the m rows
    W_{j+1} - P_j W_j starting at row n + j m, and the last n rows pin the
    inventory block of W_K.

    Every entry lies within kl = n + m - 1 subdiagonals and ku = n
    superdiagonals: -P_j[a, b] sits at row minus column n + a - b, the 1
    closing segment j at -n, and the pins at 0 and n. Returns ab and
    (kl, ku), with A[i, j] at ab[kl + ku + i - j, j] as gbsv reads it; the
    first kl rows of ab are gbsv's room for fill-in.
    """
    K, m, _ = P.shape
    n = m // 2
    kl, ku = n + m - 1, n
    diag = kl + ku  # band row of the main diagonal
    comp = np.arange(m)
    ab = np.zeros((2 * kl + ku + 1, (K + 1) * m))
    ab[diag + n + comp[:, None] - comp, m * np.arange(K)[:, None, None] + comp] = -P
    ab[diag - n, m:] = 1.0  # the 1 that closes each segment
    ab[diag, :n] = 1.0  # inventory pins of W_0
    ab[diag + n, K * m:K * m + n] = 1.0  # inventory pins of W_K
    return ab, (kl, ku)


def _multiple_shooting(M: np.ndarray, E: np.ndarray, T: float, ends: np.ndarray, x_left,
                       steps: Optional[np.ndarray]) -> np.ndarray:
    """Node states from one banded solve over the segment ends, then a march.

    Segment j spans the L_j intervals from node ends[j] to ends[j + 1]. Its
    propagator P_j = e^{M L_j dt} (E itself when L_j = 1, so one interval per
    segment gives the system over every node) and its forcing f_j, the
    steps s_k accumulated by f <- E f + s_k, give W_{j+1} = P_j W_j + f_j.
    The matrix of _global_system is solved against (x_left, f_0, ...,
    f_{K-1}, 0) by LAPACK's banded LU with partial pivoting, whose memory
    is the band itself. Each segment is then marched by
    Z_{k+1} = E Z_k + s_k from its solved start; segment ends are taken
    from the solve. Both the accumulation and the march advance every
    segment in lockstep, one step index at a time, so they take max L_j
    steps rather than N.
    """
    m = E.shape[0]
    n = m // 2
    n_steps = ends[-1]
    starts = ends[:-1]
    lengths = np.diff(ends)
    props = {1: E}
    for L in set(lengths.tolist()) - {1}:
        props[L] = _expm(M * (T * L / n_steps))

    def advance(i: int, Z: np.ndarray, k: int) -> np.ndarray:
        # step i of the first k segments, one per row. numpy's own loop, not
        # BLAS: see the note in residual_report
        Z = np.einsum("ij,kj->ki", E, Z[:k])
        return Z if steps is None else Z + steps[starts[:k] + i]

    # lengths never increase (see _segment_ends), so the segments still
    # running at step i are the first count(lengths > i)
    rhs = np.zeros(ends.size * m)
    rhs[:n] = x_left
    if steps is not None:
        f = rhs[n:-n].reshape(-1, m)
        for i in range(lengths[0]):
            k = np.count_nonzero(lengths > i)
            f[:k] = advance(i, f, k)
    ab, (kl, ku) = _global_system(np.stack([props[L] for L in lengths.tolist()]))
    _, _, W, info = dgbsv(kl, ku, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise SingularShootingMatrix(f"boundary system is singular (gbsv info {info})")
    if not np.all(np.isfinite(W)):
        raise SingularShootingMatrix("boundary solve produced non-finite values")
    Z = np.empty((n_steps + 1, m))
    W = W.reshape(-1, m)
    Z[ends] = W
    cur = W[:-1]
    for i in range(lengths[0] - 1):
        k = np.count_nonzero(lengths > i + 1)
        cur = advance(i, cur, k)
        Z[starts[:k] + i + 1] = cur
    return Z


def _step_map(M: np.ndarray, u: np.ndarray, drift: DriftSpec, T: float, n_steps: int):
    """Exact interval map Z_{k+1} = E Z_k + s_k: E and s (None for zero drift)."""
    E, p1, p2 = _propagators(M, u, T / n_steps)
    if drift.is_zero:
        return E, None
    return E, _forcing_steps(M, u, drift, T, n_steps, p1, p2)


def solve_finite(problem: Problem, n_steps: int = 400) -> BvpSolution:
    """Numerical equilibrium of a finite-horizon problem on n_steps intervals.

    The drift's forcing is integrated exactly over every interval, so the
    node values are those of the continuous problem up to rounding and the
    conditioning of the boundary problem itself (see the module docstring).
    Each agent's strategy carries its inventory and rate columns of the
    solved node states. Initial inventories are snapped to exactly x0, and
    terminal ones to exactly zero after the defect is recorded; the rates
    are kept as solved. The optimality residual of the result is measured
    separately, by residual_report.
    """
    if not problem.horizon.is_finite:
        raise HorizonMismatch("the grid solver needs a finite horizon")
    if n_steps < 8:
        raise InvalidParam("n_steps", "need at least 8 intervals")
    n, T, x0 = problem.n, problem.T, problem.x0
    M, u = assemble(problem)
    E, steps = _step_map(M, u, problem.market.drift, T, n_steps)
    growth = float(np.max(np.linalg.eigvals(M).real))
    Z = _multiple_shooting(M, E, T, _segment_ends(growth, T, n_steps), x0, steps)
    X = Z[:, :n].copy()
    defect = float(np.max(np.abs(X[-1])))
    X[0], X[-1] = x0, 0.0
    grid = np.linspace(0.0, T, n_steps + 1)
    strategies = tuple(
        GridStrategy(grid=grid, positions=X[:, i], rates=Z[:, n + i]) for i in range(n)
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
    states Z_k = (X_k, X_k') must satisfy the solver's exact interval map
    (see _step_map), so positions and rates are certified together. The
    report reads sum_k max|Z_{k+1} - E Z_k - s_k| with n_probes = N: the
    discrete L1 norm of the defect, which the boundary problem's stability
    constant turns into a bound on the profile's error. The largest single
    defect would read a forcing error at its O(dt) size per step.

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
        # node states as C-ordered rows: the einsum below sums in that layout
        Z = np.vstack(_sample_profile(strategies, t)).T.copy()
        E, steps = _step_map(*assemble(problem), problem.market.drift, problem.T, t.size - 1)
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
    return ResidualReport(
        max_residual=max_res,
        scale=scale,
        relative=max_res / scale if scale > 0 else 0.0,
        boundary_start=start_err,
        boundary_end=end_err,
        n_probes=n_probes,
    )
