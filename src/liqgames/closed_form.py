"""Closed-form Nash equilibria of the liquidation game.

Every exponential sum here takes its rates from two scalar quadratics: the
"difference" quadratic alpha sigma^2 + gamma tau - lam tau^2 with roots
theta_plus/theta_minus, driving how individual inventories relax toward the
average, and the "aggregate" quadratic whose roots rho_plus/rho_minus drive
the average itself. Coefficients are pinned by the boundary conditions
X_i(0) = x_i and X_i(T) = 0 (decay to zero for infinite horizons).

All coefficient formulas are arranged so that only non-positive quantities
are exponentiated; see ExpSumStrategy for how anchors make that exact.
"""
from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateEigenbasis,
    DriftNotZero,
    InvalidParam,
    RootFindingFailed,
    UnsupportedCase,
)
from .model import (
    AgentSpec,
    ExpSumStrategy,
    GridStrategy,
    Horizon,
    MarketParams,
    SpectralData,
    alphas_equal,
    system_matrix,
)

__all__ = [
    "spectral",
    "single_agent_finite",
    "equal_alpha_finite",
    "equal_alpha_infinite",
    "two_player_infinite",
    "negative_quartic_roots",
    "finite_to_infinite_convergence",
]


def spectral(market: MarketParams, alpha: float, n: int) -> SpectralData:
    """Mode rates for n agents sharing risk aversion alpha.

    theta_hat = sqrt(gamma^2 + 4 alpha sigma^2 lam) / (2 lam)
    rho_hat   = sqrt((n-1)^2 gamma^2 + 4 (n+1) alpha sigma^2 lam) / (2 (n+1) lam)
    theta_pm  = gamma / (2 lam) +- theta_hat
    rho_pm    = -(n-1) gamma / (2 (n+1) lam) +- rho_hat
    """
    if alpha < 0:
        raise InvalidParam("alpha", "risk aversion must be >= 0")
    if n < 1:
        raise InvalidParam("n", "need at least one agent")
    lam, gamma, sig2 = market.lam, market.gamma, market.sigma**2
    as2 = alpha * sig2
    theta_hat = math.sqrt(gamma**2 + 4.0 * as2 * lam) / (2.0 * lam)
    rho_hat = math.sqrt((n - 1) ** 2 * gamma**2 + 4.0 * (n + 1) * as2 * lam) / (
        2.0 * (n + 1) * lam
    )
    theta_mid = gamma / (2.0 * lam)
    rho_mid = -(n - 1) * gamma / (2.0 * (n + 1) * lam)
    kappa = math.sqrt(as2 / (2.0 * lam))
    xi = 4.0 * as2 * lam / gamma**2 if gamma > 0 else None
    return SpectralData(
        theta_hat=theta_hat,
        rho_hat=rho_hat,
        theta_plus=theta_mid + theta_hat,
        theta_minus=theta_mid - theta_hat,
        rho_plus=rho_mid + rho_hat,
        rho_minus=rho_mid - rho_hat,
        kappa=kappa,
        xi=xi,
        system_matrix=system_matrix(market, np.full(n, float(alpha))),
    )


def _require_zero_drift(market: MarketParams) -> None:
    if not market.drift.is_zero:
        raise DriftNotZero("closed forms require zero drift; use the bvp solver")


def _expm1_neg(x: float) -> float:
    """1 - exp(x) for x <= 0, accurate near zero."""
    return -math.expm1(x)


def single_agent_finite(
    market: MarketParams, agent: AgentSpec, T: float
) -> ExpSumStrategy | GridStrategy:
    """Optimal single-agent liquidation over [0, T].

    For alpha sigma^2 > 0 the ExpSumStrategy x0 sinh(kappa (T-t)) / sinh(kappa T),
    kappa = sqrt(alpha sigma^2 / (2 lam)). alpha sigma^2 = 0 gives the linear
    schedule x0 (1 - t/T) as a GridStrategy on 8 intervals: interpolating a
    line is exact, and so are Simpson's moments under zero or constant drift.
    """
    _require_zero_drift(market)
    if T <= 0:
        raise InvalidParam("T", "horizon length must be > 0")
    x0 = agent.x0
    as2 = agent.alpha * market.sigma**2
    if as2 == 0.0:
        grid = np.linspace(0.0, T, 9)
        return GridStrategy(grid=grid, positions=x0 * (1.0 - grid / T),
                            rates=np.full(grid.size, -x0 / T))
    kappa = math.sqrt(as2 / (2.0 * market.lam))
    denom = _expm1_neg(-2.0 * kappa * T)
    return ExpSumStrategy(
        coefs=[x0 / denom, -x0 * math.exp(-kappa * T) / denom],
        rates=[-kappa, kappa],
        anchors=[0.0, T],
        horizon=Horizon.finite(T),
    )


def _equal_alpha_term_data(spec: SpectralData, x_i: float, x_bar: float, T: float):
    """Anchored term data for one agent of the equal-alpha equilibrium."""
    dev = x_bar - x_i
    denom_t = _expm1_neg(-2.0 * spec.theta_hat * T)
    denom_r = _expm1_neg(-2.0 * spec.rho_hat * T)
    coefs = [
        dev * math.exp(spec.theta_minus * T) / denom_t,
        -dev / denom_t,
        -x_bar * math.exp(spec.rho_minus * T) / denom_r,
        x_bar / denom_r,
    ]
    rates = [spec.theta_plus, spec.theta_minus, spec.rho_plus, spec.rho_minus]
    anchors = [T, 0.0, T, 0.0]
    return coefs, rates, anchors


def equal_alpha_finite(
    market: MarketParams, agents: Sequence[AgentSpec], T: float
) -> list:
    """Nash equilibrium for n agents with one common risk aversion alpha > 0.

    Each agent's path is a four-term exponential sum: theta modes carry the
    deviation of x_i from the average inventory, rho modes carry the average.
    The risk-neutral case alpha = 0 is left to the numerical solver.
    """
    _require_zero_drift(market)
    if T <= 0:
        raise InvalidParam("T", "horizon length must be > 0")
    agents = list(agents)
    if not agents:
        raise InvalidParam("agents", "at least one agent required")
    alphas = [a.alpha for a in agents]
    if not alphas_equal(alphas):
        raise UnsupportedCase("agents must share one risk aversion")
    alpha = alphas[0]
    if alpha * market.sigma**2 <= 0.0:
        raise InvalidParam(
            "alpha", "closed form requires alpha sigma^2 > 0; use the bvp solver"
        )
    n = len(agents)
    spec = spectral(market, alpha, n)
    x_bar = sum(a.x0 for a in agents) / n
    horizon = Horizon.finite(T)
    out = []
    for a in agents:
        coefs, rates, anchors = _equal_alpha_term_data(spec, a.x0, x_bar, T)
        out.append(
            ExpSumStrategy(coefs=coefs, rates=rates, anchors=anchors, horizon=horizon)
        )
    return out


def equal_alpha_infinite(market: MarketParams, agents: Sequence[AgentSpec]) -> list:
    """Infinite-horizon equilibrium for a common risk aversion.

    X_i(t) = (x_i - x_bar) exp(theta_minus t) + x_bar exp(rho_minus t);
    requires sigma > 0 and alpha > 0 so both rates are strictly negative.
    """
    _require_zero_drift(market)
    agents = list(agents)
    if not agents:
        raise InvalidParam("agents", "at least one agent required")
    alphas = [a.alpha for a in agents]
    if not alphas_equal(alphas):
        raise UnsupportedCase("agents must share one risk aversion")
    if market.sigma <= 0 or alphas[0] <= 0:
        raise InvalidParam("alpha", "infinite horizon requires alpha > 0 and sigma > 0")
    n = len(agents)
    spec = spectral(market, alphas[0], n)
    x_bar = sum(a.x0 for a in agents) / n
    horizon = Horizon.infinite()
    return [
        ExpSumStrategy(
            coefs=[a.x0 - x_bar, x_bar],
            rates=[spec.theta_minus, spec.rho_minus],
            anchors=[0.0, 0.0],
            horizon=horizon,
        )
        for a in agents
    ]


def _quartic_coeffs(market: MarketParams, alpha1: float, alpha2: float) -> np.ndarray:
    lam, gamma, sig2 = market.lam, market.gamma, market.sigma**2
    return np.array(
        [
            1.0,
            -2.0 * gamma / (3.0 * lam),
            -(gamma**2 + 2.0 * lam * sig2 * (alpha1 + alpha2)) / (3.0 * lam**2),
            0.0,
            sig2**2 * alpha1 * alpha2 / (3.0 * lam**2),
        ]
    )


def negative_quartic_roots(
    market: MarketParams, alpha1: float, alpha2: float
) -> Tuple[float, float]:
    """The two decaying mode rates of the heterogeneous two-player game.

    The characteristic polynomial of the 4x4 system matrix is a quartic with
    exactly two distinct roots in (-inf, 0) whenever alpha1, alpha2, sigma > 0.
    Roots come from the companion matrix and are polished with two Newton
    steps; sign classification uses tolerance 1e-12 * max(1, |tau|).
    """
    if alpha1 <= 0 or alpha2 <= 0 or market.sigma <= 0:
        raise InvalidParam("alpha", "need alpha1, alpha2 > 0 and sigma > 0")
    coeffs = _quartic_coeffs(market, alpha1, alpha2)
    roots = np.roots(coeffs)
    deriv = np.polyder(coeffs)
    for _ in range(2):
        denom = np.polyval(deriv, roots)
        safe = np.abs(denom) > 0
        roots = np.where(safe, roots - np.polyval(coeffs, roots) / np.where(safe, denom, 1.0), roots)
    negatives = []
    for r in roots:
        scale = max(1.0, abs(r))
        if abs(r.imag) > 1e-10 * scale:
            continue
        tau = float(r.real)
        if tau < -1e-12 * scale:
            negatives.append(tau)
    negatives.sort()
    if len(negatives) != 2:
        raise RootFindingFailed(
            f"expected two negative real roots, found {len(negatives)}"
        )
    tau1, tau2 = negatives
    if abs(tau1 - tau2) <= 1e-9 * max(1.0, abs(tau2)):
        raise RootFindingFailed("negative roots coincide; risk aversions too close")
    return tau1, tau2


def _mode_vector(market: MarketParams, alpha1: float, alpha2: float, tau: float) -> np.ndarray:
    """Inventory-space direction w with (w, tau w) an eigenvector of M."""
    M = system_matrix(market, np.array([alpha1, alpha2]))
    lower_left = M[2:, :2]
    lower_right = M[2:, 2:]
    K = lower_left + tau * lower_right - tau**2 * np.eye(2)
    _, s, vh = np.linalg.svd(K)
    if s[0] > 0 and s[-1] > 1e-8 * s[0]:
        raise DegenerateEigenbasis(f"rate {tau} is not an eigenvalue of the system")
    return vh[-1]


def two_player_infinite(
    market: MarketParams, agent1: AgentSpec, agent2: AgentSpec
) -> Tuple[ExpSumStrategy, ExpSumStrategy, Tuple[float, float]]:
    """Infinite-horizon equilibrium for two players with distinct alphas.

    Expands (x1, x2) in the two decaying eigendirections of the system
    matrix; each inventory is a two-term exponential sum in the quartic's
    negative roots. Also returns the pair of rates.
    """
    _require_zero_drift(market)
    tau1, tau2 = negative_quartic_roots(market, agent1.alpha, agent2.alpha)
    w1 = _mode_vector(market, agent1.alpha, agent2.alpha, tau1)
    w2 = _mode_vector(market, agent1.alpha, agent2.alpha, tau2)
    W = np.stack([w1, w2], axis=1)
    x0 = np.array([agent1.x0, agent2.x0])
    cond = np.linalg.cond(W)
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateEigenbasis("stable eigendirections are nearly parallel")
    c = np.linalg.solve(W, x0)
    horizon = Horizon.infinite()
    first = ExpSumStrategy(
        coefs=[c[0] * w1[0], c[1] * w2[0]],
        rates=[tau1, tau2],
        anchors=[0.0, 0.0],
        horizon=horizon,
    )
    second = ExpSumStrategy(
        coefs=[c[0] * w1[1], c[1] * w2[1]],
        rates=[tau1, tau2],
        anchors=[0.0, 0.0],
        horizon=horizon,
    )
    return first, second, (tau1, tau2)


def finite_to_infinite_convergence(
    market: MarketParams,
    agents: Sequence[AgentSpec],
    t_probe,
    T_sequence,
) -> np.ndarray:
    """Sup gap between the horizon-T and infinite-horizon equilibria.

    For each T in T_sequence, evaluates every agent's finite-horizon
    strategy and its infinite-horizon limit at the probe times and records
    the largest absolute difference. Probe times must fit inside every T.
    """
    t_probe = np.asarray(t_probe, dtype=float)
    T_sequence = list(T_sequence)
    if np.any(t_probe < 0) or (T_sequence and float(np.max(t_probe)) > min(T_sequence)):
        raise InvalidParam("t_probe", "probe times must lie in [0, min(T_sequence)]")
    limit = equal_alpha_infinite(market, agents)
    gaps = []
    for T in T_sequence:
        finite = equal_alpha_finite(market, agents, T)
        gap = 0.0
        for f, g in zip(finite, limit):
            gap = max(gap, float(np.max(np.abs(f.position(t_probe) - g.position(t_probe)))))
        gaps.append(gap)
    return np.array(gaps)
