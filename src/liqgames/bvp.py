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

solve_finite is the one grid solve, on any n_steps >= 1 intervals; its
DecoupledSolution's strategies are the agents' GridStrategy at the nodes.
The forcing of each interval is chained over the drift's sample points
inside it, so every drift needs only one interval, and the solution is
exact between nodes too: probe solves a batch of problems on one interval
each and reads their inventories at any t as one stacked computation: the
system matrices are built in one expression, split in one call (one Schur
form per distinct matrix, see _split), and every point's exponentials
(numpy's Pade-13 over the stack, see _expm) and boundary system are
stacked. parameter_scan probes every finite point of a scan so; closed
forms serve only its infinite-horizon points.

_decoupled owns the interval map of a (problem, n_steps): one read-only
record, kept for the last pair asked. The solve marches it, and
residual_report checks grid profiles on it, certified to be M's own;
exponential sums are checked mode by mode.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dgees, dtrsen
# Not called: perfbench's tracer still wraps bvp.splu by name (ROADMAP item 1).
from scipy.sparse.linalg import splu

from .errors import HorizonMismatch, InvalidParam, LiquidationGameError, SingularShootingMatrix
from .model import (DriftSpec, GridStrategy, Problem, _check_profile, _exp_sum_drift, _in_domain,
                    _mode_table, _sample_profile, _system_matrices)

__all__ = [
    "DecoupledSolution",
    "ResidualReport",
    "assemble",
    "probe",
    "solve_finite",
    "residual_report",
]

# A drift sample point this close to a node, in units of the step, counts as
# on the node: sample grids built as T k / K sit there up to rounding, and a
# piece of rounding length would cost two exponentials for no accuracy.
_KNOT_SNAP = 1e-9


def assemble(problem: Problem) -> Tuple[np.ndarray, np.ndarray]:
    """(M, u) of dZ/dt = M Z + b(t) u for a validated problem."""
    M, u = _assemble([problem])
    return M[0], u[0]


def _assemble(problems: Sequence[Problem]) -> Tuple[np.ndarray, np.ndarray]:
    """assemble of validated problems that share n, as stacks (P, 2n, 2n) and (P, 2n)."""
    n = problems[0].n
    lam, gamma, sigma2 = np.array([(p.market.lam, p.market.gamma, p.market.sigma**2)
                                   for p in problems]).T
    u = np.zeros((len(problems), 2 * n))
    u[:, n:] = (-1.0 / (lam * (n + 1)))[:, None]
    return _system_matrices(lam, gamma, sigma2, np.array([p.alphas for p in problems])), u


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


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A of one m x m matrix, or of each matrix in a stack (P, m, m).

    Each matrix is scaled to 1-norm < 4 and squared back here its own
    number of times. A single matrix takes scipy's expm, which does not
    square below that norm; scipy's squaring of triangular input (Schur
    blocks are) cancels for close but unequal diagonal entries. A stack
    takes the [13/13] Pade approximant in numpy (_pade13), with no loop
    over its matrices. A single matrix that overflows raises
    SingularShootingMatrix; in a stack, each one that overflows comes back
    all NaN, and the others are unaffected.
    """
    s = np.maximum(0, np.frexp(np.abs(A).sum(axis=-2).max(axis=-1))[1] - 2)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = A * np.ldexp(1.0, -s)[..., None, None]
        out = expm(scaled) if A.ndim == 2 else _pade13(scaled)
        for i in range(int(s.max(initial=0))):
            sq = s > i
            out[sq] = out[sq] @ out[sq]
    bad = ~np.isfinite(out).all(axis=(-2, -1))
    if A.ndim == 2 and bad:
        raise SingularShootingMatrix("matrix exponential overflows")
    out[bad] = np.nan
    return out


# Coefficients b_0..b_13 of the [13/13] Pade approximant of e^x.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def _pade13(A: np.ndarray) -> np.ndarray:
    """The [13/13] Pade approximant of e^A for each matrix of a stack of 1-norm below 4.

    Below theta_13 = 5.37 its backward error is at unit roundoff, with no
    squaring (Higham, The scaling and squaring method for the matrix
    exponential revisited, SIAM J. Matrix Anal. Appl. 2005): six products
    and one solve per matrix, all stacked.
    """
    b = _PADE13
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    return np.linalg.solve(V - U, V + U)


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


def _split(M: np.ndarray, T: np.ndarray):
    """D, C = blockdiag(A_f, -A_b), k = dim A_f and ok, for each M of a stack (P, 2n, 2n).

    M D = D blockdiag(A_f, A_b) for each matrix and its horizon, T of
    shape (P,). Sorted, the real parts r_j of M's eigenvalues split after
    r_k when r_k T <= 1 and r_{k+1} T >= -1 (k = count(r_j T < -1) always
    does), so neither e^{A_f t} nor e^{-A_b t} grows past about e on
    [0, T]. The widest such gap (a, b) wins, an end counting as infinite,
    so slow modes stay together; of equal widths the upper gap wins, as
    max((b - a, a, b)) orders them. M = [[0, I], [A, B]] is balanced by
    scaling rates by c >= 1, a power of two near sqrt|A|, so fast modes keep
    inventory parts; its real Schur form is reordered (trsen) with the
    eigenvalues below, then above, the gap's midpoint first, and D =
    diag(1, c) [Q_f Q_b]. C runs the backward part in T - t.

    Equal balanced matrices share one Schur form (dgees), so a scan over T
    takes one; each matrix takes its own pair of reorderings and gets the
    bits it gets alone. ok is False where the spectrum does not split; that
    matrix's D, C and k are then meaningless.
    """
    P, m, _ = M.shape
    n = m // 2
    a = np.maximum(1.0, np.abs(M[:, n:, :n]).sum(axis=-1).max(axis=-1))
    scale = np.ones((P, m))
    scale[:, n:] = np.ldexp(1.0, np.frexp(a)[1] // 2)[:, None]
    balanced = M * scale[:, None, :] / scale[:, :, None]
    keys = [B.tobytes() for B in balanced]
    schur = {}
    for key, B in zip(keys, balanced):
        if key not in schur:
            S, _, r, _, Q, _, info = dgees(lambda re, im: False, B)  # unsorted
            schur[key] = S, r, Q, info
    S, r, Q, info = map(np.array, zip(*map(schur.get, keys)))
    # the gaps (a, b) of the sorted real parts, ends at -inf and inf
    rs = np.full((P, m + 2), np.inf)
    rs[:, 0], rs[:, 1:-1] = -np.inf, np.sort(r, axis=1)
    lo, hi = rs[:, :-1], rs[:, 1:]
    fits = (lo * T[:, None] <= 1.0) & (hi * T[:, None] >= -1.0)
    width = np.where(fits, hi - lo, -np.inf)
    # sorted gaps: the last of the widest has the largest a, then b
    gap = m - np.argmax(width[:, ::-1], axis=1)
    cut = ((lo + hi) / 2.0)[np.arange(P), gap]
    ok = (info == 0) & fits.any(axis=1) & np.isfinite(r).all(axis=1)
    k = np.zeros(P, dtype=int)
    A_f, Q_f, A_b, Q_b = np.zeros((4, P, m, m))
    below, above = (r < cut[:, None]).astype(np.int32), (r > cut[:, None]).astype(np.int32)
    for i in np.flatnonzero(ok):
        A_f[i], Q_f[i], *_, k[i], _, _, bad_f = dtrsen(below[i], S[i], Q[i], job="N")
        A_b[i], Q_b[i], *_, k_b, _, _, bad_b = dtrsen(above[i], S[i], Q[i], job="N")
        ok[i] = not (bad_f or bad_b) and k[i] + k_b == m
    # row and column j >= k of the backward block are row and column j - k of A_b, Q_b
    j = np.arange(m)
    fwd = j < k[:, None]
    back, at = (j - k[:, None]) % m, np.arange(P)[:, None, None]
    Q_fb = np.where(fwd[:, None, :], Q_f, Q_b[at, j[:, None], back[:, None, :]])
    A_bb = A_b[at, back[:, :, None], back[:, None, :]]
    C = np.where(fwd[:, :, None] == fwd[:, None, :], np.where(fwd[:, :, None], A_f, -A_bb), 0.0)
    return scale[:, :, None] * Q_fb, C, k, ok


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


class _IntervalMap(NamedTuple):
    """The decoupled interval map of one (problem, n_steps); its arrays are read-only.

    M is the problem's system matrix and D, C = blockdiag(A_f, -A_b), k its
    split (see _split). g = D^-1 u with its backward rows negated drives
    the decoupled forcing. Every interval maps y_{j+1} = G y_j + s_j (see
    _march); steps holds the exact forcing s_j, None for zero drift.
    """

    M: np.ndarray
    D: np.ndarray
    C: np.ndarray
    k: int
    g: np.ndarray
    G: np.ndarray
    steps: Optional[np.ndarray]


@functools.lru_cache(maxsize=1)
def _decoupled(problem: Problem, n_steps: int) -> _IntervalMap:
    """The interval map of problem on n_steps intervals, kept for the last pair asked.

    Problem hashes by identity, so only the same object hits the cache,
    which keeps it alive: its id is never reused. The solve and the check
    of its profile read one map, so nothing may write into it.
    """
    T, drift = problem.T, problem.market.drift
    M, u = assemble(problem)
    D, C, k, ok = (a[0] for a in _split(M[None], np.array([T])))
    if not ok:
        raise SingularShootingMatrix("the spectrum of M does not split")
    # in trsen's column-major layout, which the BLAS products of the solve
    # and its check round by
    D, k = np.asfortranarray(D), int(k)
    g = np.linalg.solve(D, u)
    g[k:] *= -1.0  # the backward part runs in s = T - t
    G, p1, p2 = _propagators(C, g, T / n_steps)
    steps = None if drift.is_zero else np.hstack([
        _forcing_steps(C[:k, :k], g[:k], drift, T, n_steps, p1[:k], p2[:k]),
        _forcing_steps(C[k:, k:], g[k:], drift, T, n_steps, p1[k:], p2[k:], reverse=True),
    ])
    for a in (M, D, C, g, G, steps):
        if a is not None:
            a.setflags(write=False)
    return _IntervalMap(M, D, C, k, g, G, steps)


@dataclass(frozen=True, eq=False)
class DecoupledSolution:
    """The finite-horizon equilibrium at the nodes of the solve's grid.

    grid holds the march's nodes and Z the state at each (every agent's
    inventory, then every agent's rate), with X(0) snapped to x0 and X(T)
    as solved. map is the interval map the march ran on (see _decoupled):
    Z = D w, where the first k rows of w run forward in t and the rest
    backward in T - t. Between nodes, probe gives the exact inventories.
    """

    grid: np.ndarray
    Z: np.ndarray
    map: _IntervalMap

    @property
    def terminal_defect(self) -> float:
        """max|X(T)| as solved, before the strategies snap it to zero."""
        return float(np.max(np.abs(self.Z[-1, :self.Z.shape[1] // 2])))

    @functools.cached_property
    def strategies(self) -> Tuple[GridStrategy, ...]:
        """Each agent's GridStrategy: the solved inventories and rates at the nodes.

        Terminal inventories are snapped to exactly zero (terminal_defect
        reads them as solved); the rates are kept as solved. A grid of
        fewer than 8 intervals raises InvalidParam, as GridStrategy does.
        """
        n = self.Z.shape[1] // 2
        X = self.Z[:, :n].copy()
        X[-1] = 0.0
        return tuple(GridStrategy(grid=self.grid, positions=X[:, i], rates=self.Z[:, n + i])
                     for i in range(n))


def solve_finite(problem: Problem, n_steps: int = 400) -> DecoupledSolution:
    """The finite-horizon equilibrium marched on n_steps >= 1 intervals.

    The drift's forcing is integrated exactly over every interval, so the
    node states are those of the continuous problem up to rounding and the
    conditioning of the boundary problem itself, on any grid (see the
    module docstring); the grid only places the nodes. With n_steps = 1
    the march is one boundary exponential and one 2n x 2n solve. A
    non-integral n_steps, or one below 1, raises InvalidParam.
    residual_report measures the optimality residual of the strategies.
    """
    if not problem.horizon.is_finite:
        raise HorizonMismatch("the grid solver needs a finite horizon")
    try:
        n_steps = operator.index(n_steps)
    except TypeError:
        raise InvalidParam("n_steps", "must be an integer") from None
    if n_steps < 1:
        raise InvalidParam("n_steps", "need at least one interval")
    T, n = problem.T, problem.n
    imap = _decoupled(problem, n_steps)
    _, D, C, k, _, G, steps = imap
    W = _march(D, k, C * (T / n_steps), G, steps, problem.x0, n_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        Z = W @ D.T
    if not np.all(np.isfinite(Z)):
        raise SingularShootingMatrix("boundary solve produced non-finite values")
    Z[0, :n] = problem.x0
    return DecoupledSolution(grid=np.linspace(0.0, T, n_steps + 1), Z=Z, map=imap)


def probe(problems: Sequence[Problem], t: float) -> list:
    """Each problem's inventories at the time t, exact to rounding, or that point's error.

    problems are validated finite problems that share n. Each is solved as
    solve_finite(problem, 1) would, on the one interval [0, T], and probed
    between its ends: the forward part steps e^{A_f t} from w_f(0), the
    backward part e^{-A_b (T - t)} from w_b(T), each with the exact forcing
    of its part of the horizon, chained over the drift's sample points.
    The points' system matrices are built as one stack and split in one
    _split call, which takes one Schur form per distinct matrix and one
    pair of reorderings per point; their e^{C T}, probe steps (one stacked
    _expm) and 2n x 2n boundary systems are solved stacked too. A drift's
    forcing is each point's own, and no point's value depends on the
    others. t = 0 returns x0 and t = T exactly 0.0, as the strategies do.

    Failures stay per point, as the returned entry: OutOfDomain for a t
    outside the point's horizon, SingularShootingMatrix for a spectrum that
    does not split, an overflowing exponential, a singular boundary system
    or non-finite inventories.
    """
    out: list = [None] * len(problems)
    t_at = {}  # each point inside its horizon -> t as a float
    for i, p in enumerate(problems):
        try:
            t_at[i] = float(_in_domain(t, p.T))
        except LiquidationGameError as exc:
            out[i] = exc
    if not t_at:
        return out
    live = list(t_at)
    M, u = _assemble([problems[i] for i in live])
    T_l, t_l = np.array([problems[i].T for i in live]), np.array(list(t_at.values()))
    D, C, k, split = _split(M, T_l)
    m = M.shape[-1]
    n = m // 2
    p, fp = np.zeros((2, len(live), m))  # the forcing over [0, T] and over the probe step
    for j, i in enumerate(live):
        drift = problems[i].market.drift
        if not split[j]:
            out[i] = SingularShootingMatrix("the spectrum of M does not split")
        elif not drift.is_zero:
            try:
                p[j], fp[j] = _drift_forcing(drift, D[j], C[j], k[j], u[j], T_l[j], t_l[j])
            except LiquidationGameError as exc:
                out[i] = exc
    keep = np.array([out[i] is None for i in live])
    live = [i for i in live if out[i] is None]
    if not live:
        return out
    t_l, T_l, D, C, k, p, fp = (a[keep] for a in (t_l, T_l, D, C, k, p, fp))
    x0 = np.array([problems[i].x0 for i in live])
    forward = np.arange(m) < k[:, None]
    # one exponential stack: e^{C T} and the probe step, rows scaled by t or T - t
    rows = np.concatenate([np.broadcast_to(T_l[:, None], forward.shape),
                           np.where(forward, t_l[:, None], (T_l - t_l)[:, None])])
    E = _expm(np.concatenate([C, C]) * rows[..., None])
    H, S = E[:len(live)], E[len(live):]
    ok = np.isfinite(E).all(axis=(-2, -1)).reshape(2, -1).all(axis=0)
    # y_0 = (w_f(0), w_b(T)) and y_1 = H y_0 + p: X(0) reads y_0's forward part
    # and y_1's backward part, X(T) = 0 the others
    Dx = D[:, :n]
    Df, Db = Dx * forward[:, None], Dx * ~forward[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.concatenate([Df + Db @ H, Df @ H + Db], axis=1)
        rhs = np.concatenate([x0 - _mv(Db, p), -_mv(Df, p)], axis=1)
    y = np.full((len(live), m), np.nan)
    try:
        y[ok] = np.linalg.solve(A[ok], rhs[ok, :, None])[..., 0]
    except np.linalg.LinAlgError:
        for j in np.flatnonzero(ok):  # find the singular ones
            try:
                y[j] = np.linalg.solve(A[j:j + 1], rhs[j:j + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                out[live[j]] = SingularShootingMatrix("boundary system is singular")
    with np.errstate(over="ignore", invalid="ignore"):
        x = _mv(Dx, _mv(S, y) + fp)
    for j, i in enumerate(live):
        if out[i] is not None:
            continue
        if not ok[j]:
            out[i] = SingularShootingMatrix("matrix exponential overflows")
        elif not np.all(np.isfinite(x[j])):
            out[i] = SingularShootingMatrix("boundary solve produced non-finite values")
        elif t_l[j] == 0.0:
            out[i] = x0[j]
        elif t_l[j] >= T_l[j]:
            out[i] = np.zeros(n)
        else:
            out[i] = x[j]
    return out


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_j v_j for each j of a stack of matrices and vectors."""
    return (A @ v[..., None])[..., 0]


def _drift_forcing(drift: DriftSpec, D, C, k: int, u, T: float, t: float):
    """The forcing of one point over [0, T] and over its probe step to t, in w = D^-1 Z.

    The forward rows integrate over [0, t] in t, the backward ones over
    [0, T - t] in s = T - t, on the drift reversed in time (see _forcing);
    an empty step, at t = 0 or t >= T, gives zero.
    """
    g = np.linalg.solve(D, u)
    g[k:] *= -1.0  # the backward part runs in s = T - t
    parts = (
        (C[:k, :k], g[:k], drift, _knots(drift, T)),
        (C[k:, k:], g[k:], lambda r: drift(T - r), _knots(drift, T, reverse=True)),
    )
    whole = np.concatenate([_forcing(*a, 0.0, T) for a in parts])
    step = np.zeros(C.shape[0])
    if 0.0 < t < T:
        step = np.concatenate([_forcing(*a, 0.0, hi) for a, hi in zip(parts, (t, T - t))])
    return whole, step


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
    so positions and rates are certified together. The map is the one the
    solve marches (see _decoupled and _march), read from its cache when
    the same problem was just solved on this grid: y_j stacks the
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
        # the map is M's own only where M D = D blockdiag(A_f, A_b); C is
        # shared with the solve, so its backward block is negated in a copy
        Lam = C.copy()
        Lam[k:, k:] *= -1.0
        split = np.einsum("ij,jk->ik", M, D) - np.einsum("ij,jk->ik", D, Lam)
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
