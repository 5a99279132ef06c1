"""Evaluation and comparative statics for liquidation strategies.

The revenue of agent i against fixed competitors, after integrating the
price dynamics by parts, splits into a constant x_i s0 - (gamma/2) x_i^2, a
deterministic integral of products of inventories and trading rates, and the
martingale sigma * int X_i dW. Mean-variance and CARA objectives therefore
reduce to a handful of integrals, which this module computes in closed form
for exponential-sum strategies and by composite Simpson quadrature on grids.
The closed form serves every agent of a profile at once: the inventories
and rates are combinations of a few shared exponential modes, one numpy pair
matrix integrates the modes, and the Gram matrix G = C M C^T of the mode
coefficients holds every agent's five integrals as block sums.

Also here: Monte Carlo revenue simulation (one Brownian path set shared by
the whole market, from a counter-based RNG so runs are reproducible), the
predatory / liquidity-provision classification, effective liquidation times,
one-parameter scans, and a deviation probe that certifies the
no-profitable-deviation property of computed equilibria.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import bvp, closed_form
from .errors import GridMismatch, InvalidParam, LiquidationGameError, MomentOverflow, NeverReached
from .model import (
    AgentSpec,
    ExpSumStrategy,
    Horizon,
    MarketParams,
    Problem,
    Strategy,
    _check_profile,
    _decay_time,
    _exp_sum_drift,
    _mode_table,
    _sample_profile,
    _uniform,
    validate_problem,
)

__all__ = [
    "EvaluationResult",
    "MonteCarloConfig",
    "MonteCarloResult",
    "RoleClassification",
    "ScanResult",
    "DeviationReport",
    "mean_variance",
    "mean_variance_profile",
    "mean_variance_sampled",
    "monte_carlo_revenues",
    "classify_role",
    "effective_liquidation_time",
    "parameter_scan",
    "compute_equilibrium",
    "deviation_report",
    "non_monotone",
]


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationResult:
    """Objective values of one agent's strategy against fixed competitors."""

    expected_revenue: float
    variance: float
    mean_variance_value: float
    cara_value: Optional[float]
    constant_part: float

    def to_dict(self) -> dict:
        return {
            "expected_revenue": self.expected_revenue,
            "variance": self.variance,
            "mean_variance_value": self.mean_variance_value,
            "cara_value": self.cara_value,
            "constant_part": self.constant_part,
        }


@dataclass(frozen=True)
class MonteCarloConfig:
    paths: int = 10_000
    time_steps: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.paths < 100:
            raise InvalidParam("paths", "need at least 100 paths")
        if self.time_steps < 8:
            raise InvalidParam("time_steps", "need at least 8 time steps")


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    variance: float
    cara_mean: Optional[float]
    mean_se: float
    variance_se: float
    cara_se: float
    truncation_time: Optional[float]
    tail_variance_bound: float

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "cara_mean": self.cara_mean,
            "mean_se": self.mean_se,
            "variance_se": self.variance_se,
            "cara_se": self.cara_se,
            "truncation_time": self.truncation_time,
            "tail_variance_bound": self.tail_variance_bound,
        }


@dataclass(frozen=True)
class RoleClassification:
    """Sign of an empty-handed agent's equilibrium position.

    margin = alpha sigma^2 lam - 2 gamma^2. Positive margin means the agent
    provides liquidity (buys into the others' selling, position > 0 when the
    aggregate is positive); negative means predatory trading (shorts first).
    """

    role: str
    margin: float

    def to_dict(self) -> dict:
        return {"role": self.role, "margin": self.margin}


@dataclass(frozen=True)
class ScanResult:
    value: float
    probe_value: float
    status: str


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Outcome of perturbing one agent's strategy in many directions.

    The objective is exactly quadratic along each direction, so
    value(eps) - value(0) = first_order * eps + curvature * eps^2 holds
    identically; an equilibrium shows first_order ~ 0 and curvature < 0.
    """

    agent_index: int
    first_order: np.ndarray
    curvature: np.ndarray
    epsilon_grid: np.ndarray
    value_changes: np.ndarray
    scale: float


# ---------------------------------------------------------------------------
# exact integrals of exponential-sum products
# ---------------------------------------------------------------------------


# A term list is a (coefs, rates, anchors) tuple of equal-length arrays, one
# entry per pure exponential c exp(r (t - a)).


def _pair_matrix(rows, cols, T: Optional[float]) -> np.ndarray:
    """int_0^T (int_0^inf when T is None) of every row-term x column-term product.

    Each product is a single exponential with rate s = r1 + r2: its value at
    the end it decays from, times int_0^T e^{-|s| t} dt = expm1(-|s| T) / (-|s|)
    (exactly T when s = 0). A pair with s < 0, and every pair on the infinite
    horizon (integral 1 / (-s)), is anchored at t = 0; a pair with s >= 0 at
    T, so no growing exponential is ever evaluated. Pairs with a zero
    coefficient are exactly 0.
    """
    c1, r1, a1 = (x[:, None] for x in rows)
    c2, r2, a2 = (x[None, :] for x in cols)
    s = r1 + r2
    expo = -r1 * a1 - r2 * a2
    if T is None:
        integral = 1.0 / -s  # infinite-horizon rates are < 0
    else:
        neg = -np.abs(s)
        flat = neg == 0.0
        integral = np.where(flat, T, np.expm1(neg * T) / np.where(flat, 1.0, neg))
        expo = np.where(s >= 0, r1 * (T - a1) + r2 * (T - a2), expo)
    live = (c1 != 0.0) & (c2 != 0.0)
    return np.where(live, c1 * c2 * np.exp(np.where(live, expo, 0.0)) * integral, 0.0)


# ---------------------------------------------------------------------------
# quadrature weights
# ---------------------------------------------------------------------------


def _simpson_weights(n_nodes: int, dt: float) -> np.ndarray:
    """Composite Simpson weights; odd interval counts get a 3/8 tail."""
    n_int = n_nodes - 1
    if n_int < 3:
        raise InvalidParam("grid", "need at least 3 intervals for quadrature")
    w = np.zeros(n_nodes)
    if n_int % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (dt / 3.0)
    head = n_int - 3  # even, possibly zero
    if head:
        w[0] = 1.0
        w[1:head:2] = 4.0
        w[2:head:2] = 2.0
        w[head] += 1.0
        w[:head + 1] *= dt / 3.0
    w[head:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * dt / 8.0)
    return w


# ---------------------------------------------------------------------------
# objective evaluation
# ---------------------------------------------------------------------------


def _cara_from_moments(alpha: float, mean: float, var: float) -> float:
    if alpha <= 0:
        return mean
    return (1.0 - math.exp(-alpha * mean + alpha**2 * var / 2.0)) / alpha


def _result_from_integrals(
    problem: Problem,
    agent_index: int,
    y0: float,
    i_drift: float,
    i_pos_other_rates: float,
    i_rate_other_rates: float,
    i_rate_sq: float,
    i_pos_sq: float,
) -> EvaluationResult:
    m = problem.market
    alpha = problem.agents[agent_index].alpha
    try:
        const = y0 * m.s0 - 0.5 * m.gamma * y0**2
    except OverflowError:  # y0**2 raises where y0 * y0 would read inf
        const = math.nan
    expected = (
        const
        + i_drift
        + m.gamma * i_pos_other_rates
        - m.lam * i_rate_other_rates
        - m.lam * i_rate_sq
    )
    var = m.sigma**2 * i_pos_sq
    mv = expected - 0.5 * alpha * var
    if not all(map(math.isfinite, (const, expected, var, mv))):
        raise MomentOverflow(f"revenue moments of agent {agent_index + 1} overflow the float range")
    try:
        cara = _cara_from_moments(alpha, expected, var)
    except OverflowError:  # e^{-alpha E + alpha^2 V / 2} past the float range
        raise MomentOverflow(f"the CARA value of agent {agent_index + 1} overflows the float range"
                             ) from None
    return EvaluationResult(
        expected_revenue=expected,
        variance=var,
        mean_variance_value=mv,
        cara_value=cara,
        constant_part=const,
    )


def _mode_gram(profile: Sequence[ExpSumStrategy], T: Optional[float]):
    """(G, int_x, x_start) of an exponential-sum profile.

    G[k, l] = int Z_k Z_l for Z = (X_1, ..., X_n, X_1', ..., X_n'),
    int_x[i] = int X_i and x_start[i] = X_i(0). X has the coefficients of
    the profile's mode table (see model._mode_table) and X' the same times
    each mode's rate; with C the 2n x m coefficients of Z over the m modes
    and M the exact pair integrals of the unit modes, and of each mode with
    the constant 1, G = C M C^T from one pair matrix. Everything is built
    from elementwise products and numpy reductions, not BLAS, so equal rows
    of C give bit-equal results wherever they sit.
    """
    X, rate, anchor = _mode_table(profile)
    C = np.vstack([X, X * rate])
    m = rate.size
    unit = (np.ones(m), rate, anchor)
    M = _pair_matrix(unit, (np.ones(m + 1), np.append(rate, 0.0), np.append(anchor, 0.0)), T)
    CM = (C[:, :, None] * M[None, :, :-1]).sum(axis=1)
    G = (CM[:, None, :] * C[None, :, :]).sum(axis=2)
    return G, (X * M[:, -1]).sum(axis=1), (X * np.exp(-rate * anchor)).sum(axis=1)


def _block_sums(G: np.ndarray):
    """Every agent's integrals from a profile's Gram matrix (see _mode_gram).

    Returns arrays over agents: int X_i sum_{j!=i} X_j',
    int X_i' sum_{j!=i} X_j', int X_i'^2, int X_i^2. A competitors' sum is
    the row sum less the agent's own entry, so identical agents get
    identical bits.
    """
    n = G.shape[0] // 2
    pos_rate, rate_rate = G[:n, n:], G[n:, n:]
    rate_sq = np.diagonal(rate_rate)
    return (
        pos_rate.sum(axis=1) - np.diagonal(pos_rate),
        rate_rate.sum(axis=1) - rate_sq,
        rate_sq,
        np.diagonal(G)[:n],
    )


def mean_variance_profile(profile: Sequence[Strategy], problem: Problem) -> list[EvaluationResult]:
    """Objective of every agent against the rest of profile, in profile order.

    Exponential-sum profiles with zero or constant drift (a sampled drift
    of zeros included) are integrated in closed form, finite or infinite
    horizon: each product of two pure exponentials integrates to one expm1
    (see _pair_matrix), and every agent's integrals are block sums of one
    Gram matrix over the profile's shared modes (see _mode_gram). A profile
    holding a grid strategy is integrated by composite Simpson on the grid's
    nodes (mean_variance_sampled), with exponential-sum members sampled
    there; that is exact for the risk-neutral line of
    closed_form.single_agent_finite under zero or constant drift. An
    exponential-sum profile under any other sampled drift has no such grid
    and raises UnsupportedCase: compute_equilibrium returns grid strategies
    for those drifts. Before any of that, the profile is checked as by every
    whole-profile function (see model._check_profile): InvalidParam unless
    it holds one strategy per agent, HorizonMismatch for any member off the
    problem's horizon (a grid whose last node is not T included),
    GridMismatch for grid members on different grids.
    """
    profile = list(profile)
    t = _check_profile(profile, problem)
    if t is None:
        b0 = _exp_sum_drift(problem)
        # products past the float range are caught in _result_from_integrals, as a typed error
        with np.errstate(over="ignore", invalid="ignore"):
            G, int_x, x_start = _mode_gram(profile, problem.T)
            pos_other, rate_other, rate_sq, pos_sq = _block_sums(G)
        return [
            _result_from_integrals(
                problem,
                i,
                float(x_start[i]),
                b0 * float(int_x[i]),
                float(pos_other[i]),
                float(rate_other[i]),
                float(rate_sq[i]),
                float(pos_sq[i]),
            )
            for i in range(problem.n)
        ]
    return mean_variance_sampled(t, *_sample_profile(profile, t), problem)


def mean_variance(
    strategy_i: Strategy,
    others: Sequence[Strategy],
    problem: Problem,
    agent_index: int,
) -> EvaluationResult:
    """Objective of agent agent_index playing strategy_i against others.

    others must hold the n-1 competitor strategies in agent order with
    agent_index skipped; the result is that agent's entry of
    mean_variance_profile.
    """
    others = list(others)
    if len(others) != problem.n - 1:
        raise InvalidParam("others", "need one strategy per competitor")
    if not 0 <= agent_index < problem.n:
        raise InvalidParam("agent_index", "out of range")
    profile = list(others)
    profile.insert(agent_index, strategy_i)
    return mean_variance_profile(profile, problem)[agent_index]


def mean_variance_sampled(
    t: np.ndarray,
    positions: np.ndarray,
    rates: np.ndarray,
    problem: Problem,
) -> list[EvaluationResult]:
    """Objective of every agent from a fully sampled profile, in agent order.

    positions and rates are (n_agents, n_nodes) samples on the uniform grid
    t, integrated by composite Simpson. This is the CSV evaluation path: the
    same quadrature runs whether samples come from a solver or from a
    re-read output file, so round-tripping an emitted CSV reproduces the
    sidecar's agents block bit for bit.
    """
    t = np.asarray(t, dtype=float)
    positions = np.asarray(positions, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if positions.shape != (problem.n, t.size) or rates.shape != positions.shape:
        raise GridMismatch("sampled profile shape mismatch")
    if t.size < 4:  # before steps[0]; _simpson_weights has the same limit
        raise InvalidParam("grid", "need at least 3 intervals for quadrature")
    steps = np.diff(t)
    if not _uniform(steps):
        raise GridMismatch("quadrature grid must be uniform")
    w = _simpson_weights(t.size, float(steps[0]))
    b = np.asarray(problem.market.drift(t), dtype=float) * np.ones_like(t)
    total_rate = rates.sum(axis=0)
    results = []
    # products past the float range are caught in _result_from_integrals, as a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (xi, vi) in enumerate(zip(positions, rates)):
            s_other = total_rate - vi
            results.append(_result_from_integrals(
                problem,
                i,
                float(xi[0]),
                float(w @ (xi * b)),
                float(w @ (xi * s_other)),
                float(w @ (vi * s_other)),
                float(w @ (vi * vi)),
                float(w @ (xi * xi)),
            ))
    return results


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _tail_variances(profile: Sequence[ExpSumStrategy], t_end: float, sigma: float) -> np.ndarray:
    """sigma^2 int_{t_end}^inf X_i^2 of every agent: what a truncation at t_end drops."""
    C, r, a = _mode_table(profile)
    D = C * np.exp(r * (t_end - a))  # X_i(t_end + u) over the modes e^{r u}
    unit = (np.ones(r.size), r, np.zeros(r.size))
    DM = (D[:, :, None] * _pair_matrix(unit, unit, None)[None]).sum(axis=1)
    return sigma**2 * (DM * D).sum(axis=1)


def _ito_sums(positions: np.ndarray, dt: float, paths: int, seed: int) -> np.ndarray:
    """sum_k X_i(t_k) dW_k of every row X_i, on one common Brownian path set.

    positions is (n_agents, n_steps) at the left end of each step; returns
    (n_agents, paths). With dW ~ N(0, dt I), the sums S = X dW have exactly
    the law N(0, dt X X^T), so they are drawn from at most n_agents normals
    per path: with X^T = Q R (reduced QR), B = X Q has B B^T = X X^T,
    and S = sqrt(dt) B xi for xi ~ N(0, I) from a Philox generator keyed by
    seed. Any rank works. B is formed one row at a time by numpy's own
    products and sums, not BLAS, so identical rows of X get identical rows of
    B, and hence bit-identical sums; a zero row gets exactly zero.
    """
    Q = np.linalg.qr(positions.T)[0]
    B = np.array([np.sum(row[:, None] * Q, axis=0) for row in positions])
    xi = np.random.Generator(np.random.Philox(key=seed)).standard_normal((Q.shape[1], paths))
    sums = np.zeros((positions.shape[0], paths))
    for b_j, xi_j in zip(B.T, xi):
        sums += np.outer(b_j, xi_j)
    sums *= math.sqrt(dt)
    return sums


def monte_carlo_revenues(
    profile: Sequence[Strategy],
    problem: Problem,
    config: MonteCarloConfig,
) -> list[MonteCarloResult]:
    """Simulate every agent's revenue under one common price noise.

    All agents trade against the same Brownian motion W, so one path set,
    drawn from a Philox counter-based generator keyed by config.seed, serves
    the whole market: identical config, identical output. Only the martingale
    sigma * int X_i dW is random; each agent's paths add it to that agent's
    analytic expected revenue. The martingale is the left-point Ito sum on
    config.time_steps steps, drawn from its exact Gaussian law (see
    _ito_sums): n normals per path rather than time_steps, so memory is
    paths x n doubles. Infinite horizons are truncated where the slowest
    live mode of the profile (one some agent holds, see model._decay_time)
    has decayed by e^-40; each agent's variance left in the tail is
    reported. Returns one MonteCarloResult per agent, in profile order. The
    profile is checked before anything is drawn, with the errors of
    mean_variance_profile.
    """
    profile = list(profile)
    _check_profile(profile, problem)
    sigma = problem.market.sigma
    if problem.horizon.is_finite:
        t_end = problem.T
        trunc: Optional[float] = None
        tails = [0.0] * problem.n
    else:
        trunc = t_end = _decay_time(profile, 40.0)
        tails = _tail_variances(profile, t_end, sigma).tolist()
    t = np.linspace(0.0, t_end, config.time_steps + 1)
    X = np.array([s.position(t) for s in profile], dtype=float)  # no rates: the draw needs none
    stochastic = _ito_sums(X[:, :-1], t[1] - t[0], config.paths, config.seed)
    stochastic *= sigma

    results = []
    root_n = math.sqrt(config.paths)
    for i, analytic in enumerate(mean_variance_profile(profile, problem)):
        revenues = analytic.expected_revenue + stochastic[i]
        alpha = problem.agents[i].alpha
        mean = float(np.mean(revenues))
        centered_sq = (revenues - mean) ** 2
        mean_sd = float(np.std(revenues, ddof=1))
        if alpha > 0:
            # utilities (1 - e) / alpha with e = e^{-alpha R} = m e/m, m the
            # largest e: e/m <= 1, so its square cannot overflow where e^2 can
            exponent = -alpha * revenues
            peak = np.max(exponent)
            m, scaled = float(np.exp(peak)), np.exp(exponent - peak)
            cara_mean = (1.0 - m * float(np.mean(scaled))) / alpha
            cara_sd = m * float(np.std(scaled, ddof=1)) / alpha
        else:
            cara_mean, cara_sd = mean, mean_sd
        results.append(MonteCarloResult(
            mean=mean,
            variance=float(np.sum(centered_sq) / (config.paths - 1)),
            cara_mean=cara_mean,
            mean_se=mean_sd / root_n,
            variance_se=float(np.std(centered_sq, ddof=1) / root_n),
            cara_se=cara_sd / root_n,
            truncation_time=trunc,
            tail_variance_bound=tails[i],
        ))
    return results


# ---------------------------------------------------------------------------
# classification, liquidation time, scans
# ---------------------------------------------------------------------------


def classify_role(market: MarketParams, alpha: float) -> RoleClassification:
    """Classify an inventory-less agent by margin = alpha sigma^2 lam - 2 gamma^2."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise InvalidParam("alpha", "risk aversion must be a finite number >= 0")
    lhs = alpha * market.sigma**2 * market.lam
    rhs = 2.0 * market.gamma**2
    margin = lhs - rhs
    scale = max(lhs, rhs)
    if abs(margin) <= 1e-12 * scale or scale == 0.0:
        role = "inactive"
    elif margin > 0:
        role = "liquidity_provision"
    else:
        role = "predatory"
    return RoleClassification(role=role, margin=margin)


def effective_liquidation_time(strategy: Strategy, fraction: float = 0.99) -> float:
    """First time after which |X| stays within (1 - fraction) of |X(0)|."""
    if not 0.0 < fraction < 1.0:
        raise InvalidParam("fraction", "must lie in (0, 1)")
    x0 = abs(strategy.initial_position())
    if x0 == 0.0:
        raise InvalidParam("strategy", "initial position is zero; fraction undefined")
    threshold = (1.0 - fraction) * x0

    if strategy.horizon.is_finite:
        t_hi = strategy.horizon.T
    else:
        # |X(t)| <= sum_k |c_k| e^{r_k (t-a_k)}, which decreases:
        # infinite-horizon rates are negative
        c, r, a = strategy.coefs, strategy.rates, strategy.anchors
        t_hi = float(np.max(a)) + 1.0 / abs(float(np.max(r)))
        for _ in range(200):
            if float(np.sum(np.abs(c) * np.exp(r * (t_hi - a)))) <= threshold:
                break
            t_hi *= 2.0
        else:
            raise NeverReached("decay envelope never fell below the threshold")

    t = np.linspace(0.0, t_hi, 4097)
    above = np.abs(np.asarray(strategy.position(t))) > threshold
    if not np.any(above):
        return 0.0
    last = int(np.where(above)[0][-1])
    if last == t.size - 1:
        raise NeverReached("position exceeds the threshold at the end of the window")
    lo, hi = t[last], t[last + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(float(strategy.position(mid))) > threshold:
            lo = mid
        else:
            hi = mid
    return float(hi)


def _bvp_route(problem: Problem) -> bool:
    """Whether compute_equilibrium solves problem with bvp rather than a closed form.

    Every finite horizon does, except zero drift with equal alphas and
    alpha sigma^2 > 0 (closed_form.equal_alpha_finite).
    """
    m = problem.market
    return problem.horizon.is_finite and not (
        m.drift.is_zero and problem.equal_alpha and float(problem.alphas[0]) * m.sigma**2 > 0.0
    )


def compute_equilibrium(problem: Problem, grid_steps: int = 400):
    """Solve the game, preferring closed forms; returns (strategies, route)."""
    m = problem.market
    if _bvp_route(problem):
        return list(bvp.solve_finite(problem, grid_steps).strategies), "bvp"
    if problem.horizon.is_finite:
        return closed_form.equal_alpha_finite(m, problem.agents, problem.T), "closed_form"
    if problem.equal_alpha:
        return closed_form.equal_alpha_infinite(m, problem.agents), "closed_form"
    first, second, _ = closed_form.two_player_infinite(
        m, problem.agents[0], problem.agents[1]
    )
    return [first, second], "closed_form"


_SCAN_PARAMS = ("alpha_sigma2", "lambda", "gamma", "n", "T")


def _scan_problem(problem: Problem, parameter: str, value: float) -> Problem:
    m = problem.market
    if parameter == "lambda":
        market = MarketParams(lam=value, gamma=m.gamma, sigma=m.sigma, s0=m.s0, drift=m.drift)
        return validate_problem(market, problem.agents, problem.horizon)
    if parameter == "gamma":
        market = MarketParams(lam=m.lam, gamma=value, sigma=m.sigma, s0=m.s0, drift=m.drift)
        return validate_problem(market, problem.agents, problem.horizon)
    if parameter == "T":
        return validate_problem(m, problem.agents, Horizon.finite(value))
    if parameter == "alpha_sigma2":
        if m.sigma <= 0:
            raise InvalidParam("sigma", "alpha_sigma2 scan needs sigma > 0")
        alpha = value / m.sigma**2
        agents = [AgentSpec(x0=a.x0, alpha=alpha) for a in problem.agents]
        return validate_problem(m, agents, problem.horizon)
    if parameter == "n":
        count = int(round(value))
        if count < 1 or count != value:
            raise InvalidParam("n", "agent count must be a positive integer")
        lead = problem.agents[0]
        total = float(np.sum(problem.x0))
        if count == 1:
            agents = [lead]
        else:
            rest = (total - lead.x0) / (count - 1)
            agents = [lead] + [AgentSpec(x0=rest, alpha=lead.alpha)] * (count - 1)
        return validate_problem(m, agents, problem.horizon)
    raise InvalidParam("parameter", f"must be one of {_SCAN_PARAMS}")


def parameter_scan(
    problem: Problem,
    parameter: str,
    values,
    probe: Tuple[int, float],
):
    """Recompute the equilibrium along one parameter axis and probe it.

    probe is (agent_index, time); the probe value is that agent's inventory.
    Scanning "n" keeps agent 1 fixed and splits the remaining aggregate
    inventory evenly; "alpha_sigma2" sets one common risk aversion. A point
    on a closed-form route (see compute_equilibrium) is probed on its
    closed form. The points on the bvp route are probed together, one
    bvp.probe call per agent count: each is solved exactly on one interval
    [0, T] and probed there, exact at every t (the forcing of a sampled
    drift is chained over its sample points, so no grid is needed), and
    its value does not depend on the other points. Failures at individual
    points, including a probe time outside a point's horizon
    (OutOfDomain), are recorded in the status column, not raised.
    """
    if parameter not in _SCAN_PARAMS:
        raise InvalidParam("parameter", f"must be one of {_SCAN_PARAMS}")
    agent_index, t_probe = probe
    values = [float(v) for v in values]
    found = [None] * len(values)  # each point's probe value or error
    bvp_points = {}  # agent count -> [(index, problem)]
    for i, v in enumerate(values):
        try:
            p2 = _scan_problem(problem, parameter, v)
            if not 0 <= agent_index < p2.n:
                raise InvalidParam("probe", "agent index out of range")
            if _bvp_route(p2):
                bvp_points.setdefault(p2.n, []).append((i, p2))
                continue
            strategies, _ = compute_equilibrium(p2)
            found[i] = float(strategies[agent_index].position(t_probe))
        except LiquidationGameError as exc:
            found[i] = exc
    for points in bvp_points.values():
        index, problems = zip(*points)
        for i, x in zip(index, bvp.probe(problems, t_probe)):
            found[i] = x if isinstance(x, LiquidationGameError) else float(x[agent_index])
    return [
        ScanResult(value=v, probe_value=float("nan"), status=type(r).__name__)
        if isinstance(r, LiquidationGameError) else ScanResult(value=v, probe_value=r, status="ok")
        for v, r in zip(values, found)
    ]


def non_monotone(values) -> Tuple[bool, bool]:
    """(has increase, has decrease) beyond 1e-9 * max(1, |values|)."""
    v = np.asarray(values, dtype=float)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(v))))
    d = np.diff(v)
    return bool(np.any(d > tol)), bool(np.any(d < -tol))


# ---------------------------------------------------------------------------
# deviation probe
# ---------------------------------------------------------------------------


def deviation_report(
    problem: Problem,
    strategies: Sequence[Strategy],
    agent_index: int,
    n_directions: int = 200,
) -> DeviationReport:
    """Probe the no-profitable-deviation property for one agent.

    Directions are sine bumps sin(k pi t / T) for k = 1..20 plus random
    piecewise-linear bumps vanishing at both ends, drawn from a Philox
    generator keyed 0: 16 spans of 256 of the 4096 quadrature intervals, so
    every Simpson pair sees a single linear piece. The objective is
    quadratic along each direction; its exact first-order coefficient and
    curvature are integrated per direction, and value changes at epsilon =
    +-1e-2, +-1e-3 follow from them identically. Infinite horizons are
    probed up to the time at which the slowest live mode has decayed by
    e^-40, as in monte_carlo_revenues, and need no truncation correction
    since bumps have compact support. The profile is checked first, with
    the errors of mean_variance_profile.
    """
    strategies = list(strategies)
    _check_profile(strategies, problem)
    if not 0 <= agent_index < problem.n:
        raise InvalidParam("agent_index", "out of range")
    if n_directions < 1:
        raise InvalidParam("n_directions", "need at least one direction")

    window = problem.T if problem.horizon.is_finite else _decay_time(strategies, 40.0)
    grid_steps = 4096
    t = np.linspace(0.0, window, grid_steps + 1)
    dt = t[1] - t[0]
    w = _simpson_weights(t.size, float(dt))

    m = problem.market
    alpha = problem.agents[agent_index].alpha
    pos, rates = _sample_profile(strategies, t)
    pos_i, rate_i = pos[agent_index], rates[agent_index]
    # summed in agent order, one row at a time
    s_other = np.delete(rates, agent_index, axis=0).sum(axis=0)
    b = np.asarray(m.drift(t), dtype=float) * np.ones_like(t)

    # first-order integrand pair: a = int eta g1 - int eta' g2
    g1 = b + m.gamma * s_other - alpha * m.sigma**2 * pos_i
    g2 = m.lam * s_other + 2.0 * m.lam * rate_i

    n_sine = min(20, n_directions)
    n_pl = n_directions - n_sine
    first_order = np.empty(n_directions)
    curvature = np.empty(n_directions)

    ks = np.arange(1, n_sine + 1)
    eta = np.sin(np.outer(ks, np.pi * t / window))
    eta_dot = (ks[:, None] * np.pi / window) * np.cos(np.outer(ks, np.pi * t / window))
    first_order[:n_sine] = eta @ (w * g1) - eta_dot @ (w * g2)
    curvature[:n_sine] = -0.5 * alpha * m.sigma**2 * (window / 2.0) - m.lam * (
        (ks * np.pi / window) ** 2 * (window / 2.0)
    )

    if n_pl:
        rng = np.random.Generator(np.random.Philox(key=0))
        n_spans = 16
        span_len = grid_steps // n_spans
        knots_idx = np.arange(0, grid_steps + 1, span_len)
        knot_vals = np.zeros((n_pl, n_spans + 1))
        knot_vals[:, 1:-1] = rng.standard_normal((n_pl, n_spans - 1))
        slopes = np.diff(knot_vals, axis=1) / (span_len * dt)
        # per-span smooth integrals of g1, (t - t_a) g1, g2
        A1 = np.empty(n_spans)
        B1 = np.empty(n_spans)
        A2 = np.empty(n_spans)
        for sp in range(n_spans):
            lo, hi = knots_idx[sp], knots_idx[sp + 1]
            ws = _simpson_weights(hi - lo + 1, float(dt))
            seg = slice(lo, hi + 1)
            A1[sp] = ws @ g1[seg]
            B1[sp] = ws @ ((t[seg] - t[lo]) * g1[seg])
            A2[sp] = ws @ g2[seg]
        first_order[n_sine:] = (
            knot_vals[:, :-1] @ A1 + slopes @ B1 - slopes @ A2
        )
        span_dt = span_len * dt
        v_a = knot_vals[:, :-1]
        v_b = knot_vals[:, 1:]
        int_eta_sq = (span_dt / 3.0) * np.sum(v_a**2 + v_a * v_b + v_b**2, axis=1)
        int_eta_dot_sq = span_dt * np.sum(slopes**2, axis=1)
        curvature[n_sine:] = -0.5 * alpha * m.sigma**2 * int_eta_sq - m.lam * int_eta_dot_sq

    base = mean_variance(
        strategies[agent_index],
        [s for k, s in enumerate(strategies) if k != agent_index],
        problem,
        agent_index,
    )
    scale = max(1.0, abs(base.mean_variance_value))
    eps_grid = np.array([-1e-2, -1e-3, 1e-3, 1e-2])
    value_changes = first_order[:, None] * eps_grid[None, :] + curvature[:, None] * eps_grid[None, :] ** 2
    return DeviationReport(
        agent_index=agent_index,
        first_order=first_order,
        curvature=curvature,
        epsilon_grid=eps_grid,
        value_changes=value_changes,
        scale=scale,
    )
