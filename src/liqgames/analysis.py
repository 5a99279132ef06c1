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
from .errors import (
    GridMismatch,
    HorizonMismatch,
    InvalidParam,
    LiquidationGameError,
    NeverReached,
)
from .model import (
    AgentSpec,
    ExpSumStrategy,
    GridStrategy,
    Horizon,
    MarketParams,
    Problem,
    Strategy,
    eval_strategy,
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


# A term list is a (coefs, rates, anchors, degrees) tuple of equal-length
# arrays, one entry per term c (t - a)^d exp(r (t - a)) with d in {0, 1}.

_SERIES_LEN = 30
# 1 / (k + j + 1): series index j down the rows, moment order k = 0, 1, 2 across
_SERIES_DIV = 1.0 / (np.arange(_SERIES_LEN)[:, None] + np.arange(3) + 1.0)


def _tm_exp_moments(u: np.ndarray, T: float) -> np.ndarray:
    """int_0^T t^k exp(u t) dt for k = 0, 1, 2 and every u <= 0; shape (3, u.size).

    |u| T < 0.5 sums 30 terms of the power series, anything larger the
    upward recurrence I_k = (T^k e^{uT} - k I_{k-1}) / u, which cancels
    badly for small |u| T; each entry is evaluated by one of them only.
    """
    out = np.empty((3, u.size))
    x = u * T
    small = np.abs(x) < 0.5
    # (uT)^j / j! as the running product of uT / j
    steps = x[small, None] / np.arange(1, _SERIES_LEN)
    powers = np.cumprod(np.hstack([np.ones((steps.shape[0], 1)), steps]), axis=1)
    out[:, small] = (powers @ _SERIES_DIV).T * T ** np.arange(1.0, 4.0)[:, None]
    big = ~small
    ub, xb = u[big], x[big]
    e = np.exp(xb)
    out[0, big] = np.expm1(xb) / ub
    out[1, big] = (T * e - out[0, big]) / ub
    out[2, big] = (T * T * e - 2.0 * out[1, big]) / ub
    return out


def _pair_matrix(rows, cols, T: Optional[float]) -> np.ndarray:
    """int_0^T (int_0^inf when T is None) of every row-term x column-term product.

    A pair with s = r1 + r2 < 0, and every pair on the infinite horizon, is
    integrated from its value at t = 0; a pair with s >= 0 from its value at
    T, substituting t -> T - t, so no growing exponential is ever evaluated.
    Pairs with a zero coefficient are exactly 0.
    """
    c1, r1, a1, d1 = (x[:, None] for x in rows)
    c2, r2, a2, d2 = (x[None, :] for x in cols)
    s = r1 + r2
    # (t - a1)^d1 (t - a2)^d2 = beta0 + beta1 t + beta2 t^2
    p1 = np.where(d1 == 1, -a1, 1.0)
    p2 = np.where(d2 == 1, -a2, 1.0)
    beta = (p1 * p2, p1 * d2 + d1 * p2, d1 * d2)
    from_zero = -r1 * a1 - r2 * a2
    if T is None:
        # int_0^inf t^m e^{st} dt = m! / (-s)^{m+1}; infinite-horizon rates are < 0
        neg = -s
        moments = beta[0] / neg + beta[1] / neg**2 + 2.0 * beta[2] / neg**3
        expo = from_zero
    else:
        i0, i1, i2 = _tm_exp_moments(-np.abs(s).ravel(), T).reshape((3,) + s.shape)
        # anchored at T: t^m -> sum_k C(m, k) T^(m-k) (-1)^k t^k with e^{-st}
        up = s >= 0
        j1 = np.where(up, T * i0 - i1, i1)
        j2 = np.where(up, T * T * i0 - 2.0 * T * i1 + i2, i2)
        moments = beta[0] * i0 + beta[1] * j1 + beta[2] * j2
        expo = np.where(up, r1 * (T - a1) + r2 * (T - a2), from_zero)
    live = (c1 != 0.0) & (c2 != 0.0)
    return np.where(live, c1 * c2 * np.exp(np.where(live, expo, 0.0)) * moments, 0.0)


def _terms(s: ExpSumStrategy):
    return s.coefs, s.rates, s.anchors, s.degrees


def _stack(term_lists):
    return tuple(np.concatenate(parts) for parts in zip(*term_lists))


_CONST_ONE = (np.ones(1), np.zeros(1), np.zeros(1), np.zeros(1, dtype=int))


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
    const = y0 * m.s0 - 0.5 * m.gamma * y0**2
    expected = (
        const
        + i_drift
        + m.gamma * i_pos_other_rates
        - m.lam * i_rate_other_rates
        - m.lam * i_rate_sq
    )
    var = m.sigma**2 * i_pos_sq
    mv = expected - 0.5 * alpha * var
    return EvaluationResult(
        expected_revenue=expected,
        variance=var,
        mean_variance_value=mv,
        cara_value=_cara_from_moments(alpha, expected, var),
        constant_part=const,
    )


_QUAD_STEPS = 2000  # Simpson intervals for exponential sums under a sampled drift


def _check_horizon(strategy: Strategy, horizon: Horizon) -> None:
    hz = strategy.horizon
    if hz.is_finite != horizon.is_finite:
        raise HorizonMismatch("strategy horizon does not match the problem")
    if horizon.is_finite and abs(hz.T - horizon.T) > 1e-12 * max(1.0, horizon.T):
        raise HorizonMismatch(f"strategy horizon {hz.T} != problem horizon {horizon.T}")


def _mode_gram(profile: Sequence[ExpSumStrategy], T: Optional[float]):
    """(G, int_x, x_start) of an exponential-sum profile.

    G[k, l] = int Z_k Z_l for Z = (X_1, ..., X_n, X_1', ..., X_n'),
    int_x[i] = int X_i and x_start[i] = X_i(0). Each term is keyed by its
    mode (t - a)^d e^{r (t - a)}, and modes are shared only when rate, anchor
    and degree are exactly equal; with C the 2n x m coefficients of Z over
    the m modes and M the exact pair integrals of the unit modes,
    G = C M C^T from one pair matrix. Everything is built from elementwise
    products and numpy reductions, not BLAS, so equal rows of C give
    bit-equal results wherever they sit.
    """
    n = len(profile)
    c, r, a, d = _stack([_terms(s) for s in profile])
    agent = np.repeat(np.arange(n), [s.coefs.size for s in profile])
    # rows n..2n-1 hold X_i', whose terms are c r (t - a)^d e^{r (t - a)},
    # plus c e^{r (t - a)} where d = 1
    lin = d == 1
    c, r, a, d = _stack([(c, r, a, d), (c * r, r, a, d), (c[lin], r[lin], a[lin], 0 * d[lin])])
    row = np.concatenate([agent, agent + n, agent[lin] + n])
    live = c != 0.0  # a zero term adds nothing, so its mode is not integrated
    modes, which = np.unique(
        np.column_stack([r[live], a[live], d[live]]), axis=0, return_inverse=True
    )
    C = np.zeros((2 * n, modes.shape[0]))
    np.add.at(C, (row[live], which.reshape(-1)), c[live])
    rate, anchor, degree = modes[:, 0], modes[:, 1], modes[:, 2].astype(int)
    unit = (np.ones(rate.size), rate, anchor, degree)
    M = _pair_matrix(unit, _stack([unit, _CONST_ONE]), T)
    CM = (C[:, :, None] * M[None, :, :-1]).sum(axis=1)
    G = (CM[:, None, :] * C[None, :, :]).sum(axis=2)
    at_zero = np.where(degree == 1, -anchor, 1.0) * np.exp(-rate * anchor)
    X = C[:n]
    return G, (X * M[:, -1]).sum(axis=1), (X * at_zero).sum(axis=1)


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

    Exponential-sum profiles with zero or constant drift are integrated in
    closed form, finite or infinite horizon: every agent's integrals are
    block sums of one Gram matrix over the profile's shared modes (see
    _mode_gram). Any grid strategy or sampled drift routes through composite
    Simpson on a shared grid.
    """
    profile = list(profile)
    n = problem.n
    if len(profile) != n:
        raise InvalidParam("profile", f"expected {n} strategies, got {len(profile)}")
    for s in profile:
        _check_horizon(s, problem.horizon)

    drift = problem.market.drift
    all_exp = all(isinstance(s, ExpSumStrategy) for s in profile)
    if not problem.horizon.is_finite and not all_exp:
        raise HorizonMismatch("infinite-horizon evaluation needs exponential sums")
    T = problem.T
    if all_exp and drift.kind in ("zero", "constant"):
        G, int_x, x_start = _mode_gram(profile, T)
        pos_other, rate_other, rate_sq, pos_sq = _block_sums(G)
        b0 = drift(0.0) if drift.kind == "constant" else 0.0
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
            for i in range(n)
        ]

    grids = [s for s in profile if isinstance(s, GridStrategy)]
    if grids:
        t = grids[0].grid
        for s in grids[1:]:
            if s.grid.shape != t.shape or not np.array_equal(s.grid, t):
                raise GridMismatch("grid strategies must share one grid")
    else:
        t = np.linspace(0.0, T, _QUAD_STEPS + 1)
    pos = np.empty((n, t.size))
    rate = np.empty_like(pos)
    for k, s in enumerate(profile):
        if isinstance(s, GridStrategy):
            pos[k] = s.positions
            rate[k] = s.rates
        else:
            pos[k] = s.position(t)
            rate[k] = s.rate(t)
    return [mean_variance_sampled(t, pos, rate, problem, i) for i in range(n)]


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
    agent_index: int,
) -> EvaluationResult:
    """Objective from a fully sampled profile (the CSV evaluation path).

    positions and rates are (n_agents, n_nodes) samples on the uniform grid
    t. The same quadrature runs whether samples come from a solver or from a
    re-read output file, so round-tripping an emitted CSV reproduces the
    sidecar evaluation bit for bit.
    """
    t = np.asarray(t, dtype=float)
    positions = np.asarray(positions, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if positions.shape != (problem.n, t.size) or rates.shape != positions.shape:
        raise GridMismatch("sampled profile shape mismatch")
    if t.size < 4:  # before steps[0]; _simpson_weights has the same limit
        raise InvalidParam("grid", "need at least 3 intervals for quadrature")
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise GridMismatch("quadrature grid must be uniform")
    w = _simpson_weights(t.size, float(steps[0]))
    b = np.asarray(problem.market.drift(t), dtype=float) * np.ones_like(t)
    xi = positions[agent_index]
    vi = rates[agent_index]
    s_other = rates.sum(axis=0) - vi
    return _result_from_integrals(
        problem,
        agent_index,
        float(xi[0]),
        float(w @ (xi * b)),
        float(w @ (xi * s_other)),
        float(w @ (vi * s_other)),
        float(w @ (vi * vi)),
        float(w @ (xi * xi)),
    )


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _slowest_rate(profile: Sequence[ExpSumStrategy]) -> float:
    return max(float(np.max(s.rates)) for s in profile)


def _tail_variance(strategy: ExpSumStrategy, t_end: float, sigma: float) -> float:
    """sigma^2 int_{t_end}^inf X^2, the variance a truncation at t_end drops."""
    # X(t_end + u) as an exponential sum in u; a degree-1 term splits
    c, r, a, d = _terms(strategy)
    lead = c * np.exp(r * (t_end - a))
    lin = d == 1
    shifted = _stack([
        (lead * np.where(lin, t_end - a, 1.0), r, np.zeros_like(a), 0 * d),
        (lead[lin], r[lin], np.zeros_like(a[lin]), d[lin]),
    ])
    return float(sigma**2 * _pair_matrix(shifted, shifted, None).sum())


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
    paths x n doubles. Infinite horizons are truncated
    where the slowest mode of the profile has decayed by e^-40; each agent's
    variance left in the tail is reported. Returns one MonteCarloResult per
    agent, in profile order.
    """
    profile = list(profile)
    n = problem.n
    if len(profile) != n:
        raise InvalidParam("profile", f"expected {n} strategies, got {len(profile)}")
    sigma = problem.market.sigma
    if problem.horizon.is_finite:
        t_end = problem.T
        trunc: Optional[float] = None
        tails = [0.0] * n
    else:
        trunc = 40.0 / abs(_slowest_rate(profile))
        t_end = trunc
        tails = [_tail_variance(s, t_end, sigma) for s in profile]
    t = np.linspace(0.0, t_end, config.time_steps + 1)
    X = np.array([s.position(t) for s in profile], dtype=float)
    stochastic = _ito_sums(X[:, :-1], t[1] - t[0], config.paths, config.seed)
    stochastic *= sigma

    results = []
    root_n = math.sqrt(config.paths)
    for i, analytic in enumerate(mean_variance_profile(profile, problem)):
        revenues = analytic.expected_revenue + stochastic[i]
        alpha = problem.agents[i].alpha
        mean = float(np.mean(revenues))
        centered_sq = (revenues - mean) ** 2
        if alpha > 0:
            utils = (1.0 - np.exp(-alpha * revenues)) / alpha
        else:
            utils = revenues
        results.append(MonteCarloResult(
            mean=mean,
            variance=float(np.sum(centered_sq) / (config.paths - 1)),
            cara_mean=float(np.mean(utils)),
            mean_se=float(np.std(revenues, ddof=1) / root_n),
            variance_se=float(np.std(centered_sq, ddof=1) / root_n),
            cara_se=float(np.std(utils, ddof=1) / root_n),
            truncation_time=trunc,
            tail_variance_bound=tails[i],
        ))
    return results


# ---------------------------------------------------------------------------
# classification, liquidation time, scans
# ---------------------------------------------------------------------------


def classify_role(market: MarketParams, alpha: float) -> RoleClassification:
    """Classify an inventory-less agent by margin = alpha sigma^2 lam - 2 gamma^2."""
    if alpha < 0:
        raise InvalidParam("alpha", "risk aversion must be >= 0")
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
        # |X(t)| <= envelope(t) = sum_k |c_k (t-a_k)^{d_k} e^{r_k (t-a_k)}|,
        # which is decreasing once every term is (t >= a_k + d_k/|r_k|)
        terms = list(zip(*_terms(strategy)))

        def envelope(t: float) -> float:
            return sum(
                abs(c) * abs(t - a) ** d * math.exp(r * (t - a))
                for c, r, a, d in terms
            )

        slowest = max(r for _, r, _, _ in terms)
        t_hi = max(a + d / abs(r) for _, r, a, d in terms) + 1.0 / abs(slowest)
        for _ in range(200):
            if envelope(t_hi) <= threshold:
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


def compute_equilibrium(problem: Problem, grid_steps: int = 400):
    """Solve the game, preferring closed forms; returns (strategies, route)."""
    m = problem.market
    if problem.horizon.is_finite:
        usable_closed = (
            m.drift.is_zero
            and problem.equal_alpha
            and float(problem.alphas[0]) * m.sigma**2 > 0.0
        )
        if usable_closed:
            return (
                closed_form.equal_alpha_finite(m, problem.agents, problem.T),
                "closed_form",
            )
        system = bvp.assemble(problem)
        sol = bvp.solve_finite(system, problem.x0, problem.T, grid_steps)
        return list(sol.strategies), "bvp"
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
    grid_steps: int = 400,
):
    """Recompute the equilibrium along one parameter axis and probe it.

    probe is (agent_index, time); the probe value is that agent's inventory.
    Scanning "n" keeps agent 1 fixed and splits the remaining aggregate
    inventory evenly; "alpha_sigma2" sets one common risk aversion. Failures
    at individual points, including a probe time outside a point's horizon
    (OutOfDomain), are recorded in the status column, not raised.
    """
    if parameter not in _SCAN_PARAMS:
        raise InvalidParam("parameter", f"must be one of {_SCAN_PARAMS}")
    agent_index, t_probe = probe
    out = []
    for v in values:
        try:
            p2 = _scan_problem(problem, parameter, float(v))
            if not 0 <= agent_index < p2.n:
                raise InvalidParam("probe", "agent index out of range")
            strategies, _ = compute_equilibrium(p2, grid_steps)
            probe_value = float(eval_strategy(strategies[agent_index], t_probe)[0])
            out.append(ScanResult(value=float(v), probe_value=probe_value, status="ok"))
        except LiquidationGameError as exc:
            out.append(
                ScanResult(value=float(v), probe_value=float("nan"), status=type(exc).__name__)
            )
    return out


def non_monotone(values, rel_tol: float = 1e-9) -> Tuple[bool, bool]:
    """(has increase, has decrease) beyond rel_tol * max(1, |values|)."""
    v = np.asarray(values, dtype=float)
    tol = rel_tol * max(1.0, float(np.max(np.abs(v))))
    d = np.diff(v)
    return bool(np.any(d > tol)), bool(np.any(d < -tol))


# ---------------------------------------------------------------------------
# deviation probe
# ---------------------------------------------------------------------------


def _deviation_window(problem: Problem, profile) -> float:
    if problem.horizon.is_finite:
        return problem.T
    return 40.0 / abs(_slowest_rate(profile))


def deviation_report(
    problem: Problem,
    strategies: Sequence[Strategy],
    agent_index: int,
    n_directions: int = 200,
    epsilons: Sequence[float] = (1e-2, 1e-3),
    seed: int = 0,
    grid_steps: int = 4096,
) -> DeviationReport:
    """Probe the no-profitable-deviation property for one agent.

    Directions are sine bumps sin(k pi t / T) for k = 1..20 plus random
    piecewise-linear bumps vanishing at both ends (knots on quadrature
    nodes, so every Simpson pair sees a single linear piece). The objective
    is quadratic along each direction; its exact first-order coefficient and
    curvature are integrated per direction, and value changes follow from
    them identically. Infinite horizons need no truncation correction since
    bumps have compact support.
    """
    strategies = list(strategies)
    if len(strategies) != problem.n:
        raise InvalidParam("strategies", "full profile required")
    if not 0 <= agent_index < problem.n:
        raise InvalidParam("agent_index", "out of range")
    grid_steps = int(grid_steps)
    if grid_steps % 32:
        grid_steps += 32 - grid_steps % 32

    window = _deviation_window(problem, strategies)
    t = np.linspace(0.0, window, grid_steps + 1)
    dt = t[1] - t[0]
    w = _simpson_weights(t.size, float(dt))

    m = problem.market
    alpha = problem.agents[agent_index].alpha
    pos_i = rate_i = None
    s_other = np.zeros(t.size)
    for k, s in enumerate(strategies):
        if isinstance(s, GridStrategy):
            if s.n_steps != grid_steps or abs(s.grid[-1] - window) > 1e-12 * max(1.0, window):
                p = s.position(t)
                r = s.rate(t)
            else:
                p, r = s.positions, s.rates
        else:
            p, r = s.position(t), s.rate(t)
        if k == agent_index:
            pos_i, rate_i = np.asarray(p, float), np.asarray(r, float)
        else:
            s_other = s_other + np.asarray(r, float)
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
        rng = np.random.Generator(np.random.Philox(key=seed))
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
    eps_grid = np.array(sorted({e for mag in epsilons for e in (mag, -mag)}))
    value_changes = first_order[:, None] * eps_grid[None, :] + curvature[:, None] * eps_grid[None, :] ** 2
    return DeviationReport(
        agent_index=agent_index,
        first_order=first_order,
        curvature=curvature,
        epsilon_grid=eps_grid,
        value_changes=value_changes,
        scale=scale,
    )
