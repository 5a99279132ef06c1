"""Discrete-game oracle: the time-stepped game's Nash equilibrium, solved directly.

Independent cross-check for the differential-equation solvers. Strategies
are piecewise-linear inventory paths on a uniform grid; each agent's
objective is the midpoint-rule discretization of the running payoff

    q (b + gamma s) - (alpha sigma^2 / 2) q^2 - lam p (s + p)

with q the agent's inventory, p its trading rate and s the competitors'
aggregate rate. No optimality condition from the continuous model enters:
each objective is strictly concave and quadratic in the agent's interior
nodes, so a best response is one tridiagonal solve, and the Nash equilibrium
solves all agents' stacked first-order conditions, one banded linear system.
Discretization error against the continuous equilibrium is O(1/N^2).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, solve_banded

from .errors import IndefiniteHessian, InvalidParam, SingularNashSystem
from .model import Problem

__all__ = ["DiscreteGame", "FixedPointReport", "iterate_nash", "compare"]

_FIXED_POINT_TOL = 1e-10  # verification sweep, relative to max(1, max |x0|)


@dataclass(frozen=True)
class FixedPointReport:
    converged: bool
    sweeps: int
    max_update: float
    tol: float

    def to_dict(self) -> dict:
        return asdict(self)


class DiscreteGame:
    """Problem data discretized on a uniform grid with n_steps intervals.

    Boundary nodes are pinned to (x_i, 0); the Hessian of each agent's
    objective in the interior nodes is the constant tridiagonal matrix with
    diagonal -4 lam / dt - alpha sigma^2 dt / 2 and off-diagonal
    2 lam / dt - alpha sigma^2 dt / 4, so its negative is factored once per
    agent (banded Cholesky) and reused by every best response.
    """

    def __init__(self, problem: Problem, n_steps: int = 200):
        if not problem.horizon.is_finite:
            raise InvalidParam("horizon", "the discrete oracle needs a finite horizon")
        if n_steps < 8:
            raise InvalidParam("n_steps", "need at least 8 intervals")
        self.problem = problem
        self.n_steps = int(n_steps)
        self.grid = np.linspace(0.0, problem.T, self.n_steps + 1)
        self.dt = float(self.grid[1] - self.grid[0])
        mids = 0.5 * (self.grid[:-1] + self.grid[1:])
        self.b_mid = np.asarray(problem.market.drift(mids), dtype=float) * np.ones(
            self.n_steps
        )
        lam = problem.market.lam
        sig2 = problem.market.sigma**2
        self._off = np.empty(problem.n)  # negated Hessian, per agent:
        self._diag = np.empty(problem.n)  # off-diagonal and diagonal
        self._factors = []
        for i, alpha in enumerate(problem.alphas):
            off = 2.0 * lam / self.dt - alpha * sig2 * self.dt / 4.0
            diag = 4.0 * lam / self.dt + alpha * sig2 * self.dt / 2.0
            ab = np.zeros((2, self.n_steps - 1))
            ab[0, 1:] = -off
            ab[1, :] = diag
            try:
                self._factors.append(cholesky_banded(ab, lower=False))
            except np.linalg.LinAlgError as exc:
                raise IndefiniteHessian(
                    "discrete objective is not strictly concave"
                ) from exc
            self._off[i] = off
            self._diag[i] = diag

    def best_response(self, agent_index: int, paths: np.ndarray) -> np.ndarray:
        """Maximize agent agent_index's objective given the others' paths."""
        p = self.problem
        if not 0 <= agent_index < p.n:
            raise InvalidParam("agent_index", "out of range")
        rates = np.diff(paths, axis=1) / self.dt
        s = rates.sum(axis=0) - rates[agent_index]
        gamma = p.market.gamma
        lam = p.market.lam
        drive = self.b_mid + gamma * s
        g = 0.5 * self.dt * (drive[:-1] + drive[1:]) + lam * (s[1:] - s[:-1])
        rhs = g.copy()
        rhs[0] += self._off[agent_index] * p.x0[agent_index]
        interior = cho_solve_banded((self._factors[agent_index], False), rhs)
        out = np.empty(self.n_steps + 1)
        out[0] = p.x0[agent_index]
        out[1:-1] = interior
        out[-1] = 0.0
        return out

    def objective(self, agent_index: int, paths: np.ndarray) -> float:
        """Discrete mean-variance payoff of one agent (diagnostic)."""
        p = self.problem
        rates = np.diff(paths, axis=1) / self.dt
        s = rates.sum(axis=0) - rates[agent_index]
        q = 0.5 * (paths[agent_index, :-1] + paths[agent_index, 1:])
        rate = rates[agent_index]
        alpha = p.agents[agent_index].alpha
        sig2 = p.market.sigma**2
        run = (
            q * (self.b_mid + p.market.gamma * s)
            - 0.5 * alpha * sig2 * q**2
            - p.market.lam * rate * (s + rate)
        )
        return float(self.dt * np.sum(run))


def iterate_nash(game: DiscreteGame):
    """Discrete Nash equilibrium: one banded solve, then one verification sweep.

    Agent i's first-order conditions read (A_i + D) x_i - D sum_j x_j = r_i in
    the interior nodes: A_i is its negated Hessian, D = (lam/dt) second
    difference + (gamma/2) central difference, r_i holds drift and x0 terms.
    Ordered node by node, all n agents' conditions form one band matrix of
    half-bandwidth 2n - 1 (LU with partial pivoting). One exact best response
    per agent then checks the fixed point: converged when no node moves by
    more than 1e-10 max(1, max |x0|). A failed check is reported, not raised.
    """
    p = game.problem
    n, m, dt = p.n, game.n_steps - 1, game.dt
    lam, gamma = p.market.lam, p.market.gamma
    below, above = lam / dt - gamma / 2, lam / dt + gamma / 2
    # unknown k n + i is x_i at interior node k; n x n blocks couple nodes k-1, k, k+1
    others = np.ones((n, n)) - np.eye(n)
    blocks = {
        -1: np.diag(-game._off) - below * others,
        0: np.diag(game._diag) + (2 * lam / dt) * others,
        1: np.diag(-game._off) - above * others,
    }
    w = 2 * n - 1
    ab = np.zeros((2 * w + 1, n * m))  # LAPACK band storage: ab[w + r - c, c] = a[r, c]
    i, j = np.divmod(np.arange(n * n), n)
    for s, block in blocks.items():
        cols = np.arange(max(s, 0), m + min(s, 0))[:, None] * n + j
        ab[w - s * n + i - j, cols] = block[i, j]
    rhs = np.tile(0.5 * dt * (game.b_mid[:-1] + game.b_mid[1:]), (n, 1))
    x0 = p.x0
    rhs[:, 0] += game._off * x0 + below * (x0.sum() - x0)  # boundary terms at node 1
    try:
        interior = solve_banded((w, w), ab, rhs.T.ravel())
    except np.linalg.LinAlgError as exc:
        raise SingularNashSystem(f"stacked first-order conditions: {exc}") from exc
    paths = np.zeros((n, game.n_steps + 1))
    paths[:, 0] = x0
    paths[:, 1:-1] = interior.reshape(m, n).T
    responses = np.array([game.best_response(i, paths) for i in range(n)])
    gap = float(np.max(np.abs(responses - paths)))  # NaN stays NaN: not converged
    threshold = _FIXED_POINT_TOL * max(1.0, float(np.max(np.abs(x0))))
    return paths, FixedPointReport(gap <= threshold, 1, gap, _FIXED_POINT_TOL)


def compare(game: DiscreteGame, paths: np.ndarray, strategies: Sequence) -> np.ndarray:
    """Per-agent sup-norm gap between oracle paths and reference strategies.

    Gaps are normalized by max(1, |x_i|); strategies are evaluated on the
    oracle's grid.
    """
    if len(strategies) != game.problem.n:
        raise InvalidParam("strategies", "one reference strategy per agent")
    gaps = np.empty(game.problem.n)
    for i, s in enumerate(strategies):
        ref = np.asarray(s.position(game.grid), dtype=float)
        denom = max(1.0, abs(game.problem.x0[i]))
        gaps[i] = float(np.max(np.abs(paths[i] - ref))) / denom
    return gaps
