"""Closed-form equilibria: frozen reference values and structural identities.

Reference digits were computed from an independent implementation of the
two-point formulas (plain exponentials, no anchoring) and frozen here; the
library under test uses anchored coefficients, so agreement to 1e-12 checks
the algebra, not just self-consistency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liqgames import bvp, closed_form
from liqgames.errors import (
    DriftNotZero,
    InvalidParam,
    UnsupportedCase,
)
from liqgames.model import (
    AgentSpec,
    DriftSpec,
    GridStrategy,
    Horizon,
    MarketParams,
    system_matrix,
    validate_problem,
)

BASE_MARKET = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=5.0)
BASE_AGENTS = [AgentSpec(1.12, 0.8), AgentSpec(2.06, 0.8)]
BASE_T = 2.0

positive = st.floats(min_value=0.1, max_value=3.0)


# ---------------------------------------------------------------------------
# spectral quantities
# ---------------------------------------------------------------------------


def test_spectral_reference_point():
    # lam = gamma = 1, alpha sigma^2 = 2, n = 2: every mode rate is rational
    spec = closed_form.spectral(MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0),
                                alpha=2.0, n=2)
    assert spec.theta_hat == pytest.approx(1.5, abs=1e-15)
    assert spec.theta_plus == pytest.approx(2.0, abs=1e-15)
    assert spec.theta_minus == pytest.approx(-1.0, abs=1e-15)
    assert spec.rho_hat == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert spec.rho_plus == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert spec.rho_minus == pytest.approx(-1.0, abs=1e-15)
    assert spec.kappa == pytest.approx(1.0, abs=1e-15)
    assert spec.xi == pytest.approx(8.0, abs=1e-14)


def test_spectral_gamma_zero_has_no_xi():
    spec = closed_form.spectral(MarketParams(lam=1.0, gamma=0.0, sigma=1.0, s0=0.0),
                                alpha=1.0, n=3)
    assert spec.xi is None
    assert spec.theta_plus == pytest.approx(-spec.theta_minus)


@settings(max_examples=80, deadline=None)
@given(lam=positive, gamma=positive, a_s2=positive, n=st.integers(1, 6))
def test_spectral_identities(lam, gamma, a_s2, n):
    market = MarketParams(lam=lam, gamma=gamma, sigma=1.0, s0=0.0)
    spec = closed_form.spectral(market, alpha=a_s2, n=n)
    scale = max(1.0, a_s2 / lam)
    # product / sum identities of the theta quadratic
    assert spec.theta_plus * spec.theta_minus == pytest.approx(-a_s2 / lam, rel=1e-12)
    assert spec.theta_plus + spec.theta_minus == pytest.approx(gamma / lam, rel=1e-12)
    # each rate is a root of its characteristic quadratic
    for tau in (spec.theta_plus, spec.theta_minus):
        assert a_s2 + gamma * tau - lam * tau**2 == pytest.approx(0.0, abs=1e-10 * scale)
    for rho in (spec.rho_plus, spec.rho_minus):
        assert a_s2 - (n - 1) * gamma * rho - (n + 1) * lam * rho**2 == pytest.approx(
            0.0, abs=1e-10 * scale)


@settings(max_examples=40, deadline=None)
@given(lam=positive, gamma=positive, a_s2=positive, n=st.integers(1, 5))
def test_equal_alpha_rates_are_system_eigenvalues(lam, gamma, a_s2, n):
    market = MarketParams(lam=lam, gamma=gamma, sigma=1.0, s0=0.0)
    spec = closed_form.spectral(market, alpha=a_s2, n=n)
    eig = np.linalg.eigvals(system_matrix(market, np.full(n, a_s2)))
    eig = np.sort_complex(eig)
    assert np.max(np.abs(eig.imag)) < 1e-9
    want = sorted([spec.theta_plus, spec.theta_minus] * max(0, n - 1)
                  + [spec.rho_plus, spec.rho_minus])
    assert np.allclose(np.sort(eig.real), want, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# single agent
# ---------------------------------------------------------------------------


def test_single_agent_sinh_profile():
    # kappa = sqrt(alpha sigma^2 / (2 lam)) = 1, T = 2, x0 = 1
    market = MarketParams(lam=0.5, gamma=0.3, sigma=1.0, s0=0.0)
    s = closed_form.single_agent_finite(market, AgentSpec(1.0, 1.0), 2.0)
    assert s.position(1.0) == pytest.approx(0.3240271368319427, abs=1e-14)
    assert s.position(0.0) == pytest.approx(1.0, abs=1e-14)
    assert s.position(2.0) == 0.0
    # gamma does not enter the single-agent profile
    s2 = closed_form.single_agent_finite(
        MarketParams(lam=0.5, gamma=2.7, sigma=1.0, s0=0.0), AgentSpec(1.0, 1.0), 2.0)
    assert s2.position(1.3) == pytest.approx(s.position(1.3), abs=1e-15)


def test_single_agent_risk_neutral_is_linear():
    market = MarketParams(lam=0.5, gamma=0.3, sigma=1.0, s0=0.0)
    s = closed_form.single_agent_finite(market, AgentSpec(-2.0, 0.0), 1.6)
    assert isinstance(s, GridStrategy) and s.grid.size == 9
    t = np.linspace(0.0, 1.6, 33)
    assert np.allclose(s.position(t), -2.0 * (1.0 - t / 1.6), atol=1e-14)
    assert np.allclose(s.rate(t), 2.0 / 1.6, atol=1e-14)


def test_single_agent_stiff_evaluation():
    # kappa T ~ 2200: naive sinh overflows, anchored terms must not
    market = MarketParams(lam=1e-6, gamma=0.0, sigma=1.0, s0=0.0)
    s = closed_form.single_agent_finite(market, AgentSpec(1.0, 10.0), 1.0)
    x = s.position(np.array([0.0, 1e-4, 0.5, 1.0]))
    assert np.all(np.isfinite(x))
    assert x[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(x[2]) < 1e-300 or x[2] == 0.0


# ---------------------------------------------------------------------------
# equal-alpha finite horizon
# ---------------------------------------------------------------------------


def test_equal_alpha_reference_values():
    strats = closed_form.equal_alpha_finite(BASE_MARKET, BASE_AGENTS, BASE_T)
    assert strats[0].position(1.0) == pytest.approx(0.3383551001941447, abs=1e-13)
    assert strats[1].position(1.0) == pytest.approx(0.8311128995786032, abs=1e-13)
    assert strats[0].position(0.5) == pytest.approx(0.6610955350577066, abs=1e-13)


def test_equal_alpha_boundaries_exact():
    strats = closed_form.equal_alpha_finite(BASE_MARKET, BASE_AGENTS, BASE_T)
    for s, a in zip(strats, BASE_AGENTS):
        assert s.position(0.0) == a.x0  # exact float cancellation
        assert s.position(BASE_T) == 0.0


def test_equal_alpha_single_agent_reduction():
    market = MarketParams(lam=0.8, gamma=0.6, sigma=1.1, s0=0.0)
    agent = AgentSpec(2.5, 0.7)
    via_game = closed_form.equal_alpha_finite(market, [agent], 1.5)[0]
    direct = closed_form.single_agent_finite(market, agent, 1.5)
    t = np.linspace(0.0, 1.5, 23)
    assert np.allclose(via_game.position(t), direct.position(t), atol=1e-13)


def test_equal_alpha_agent_permutation():
    rev = list(reversed(BASE_AGENTS))
    fwd = closed_form.equal_alpha_finite(BASE_MARKET, BASE_AGENTS, BASE_T)
    bwd = closed_form.equal_alpha_finite(BASE_MARKET, rev, BASE_T)
    t = np.linspace(0.0, BASE_T, 17)
    assert np.allclose(fwd[0].position(t), bwd[1].position(t), atol=1e-15)
    assert np.allclose(fwd[1].position(t), bwd[0].position(t), atol=1e-15)


def test_equal_alpha_rejections():
    with pytest.raises(UnsupportedCase):
        closed_form.equal_alpha_finite(
            BASE_MARKET, [AgentSpec(1.0, 0.5), AgentSpec(1.0, 0.6)], 1.0)
    with pytest.raises(InvalidParam):
        closed_form.equal_alpha_finite(
            BASE_MARKET, [AgentSpec(1.0, 0.0), AgentSpec(1.0, 0.0)], 1.0)
    drift_market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0,
                                drift=DriftSpec.constant(0.5))
    with pytest.raises(DriftNotZero):
        closed_form.equal_alpha_finite(drift_market, BASE_AGENTS, 1.0)


def test_equal_alpha_euler_lagrange_residual():
    strats = closed_form.equal_alpha_finite(BASE_MARKET, BASE_AGENTS, BASE_T)
    problem = validate_problem(BASE_MARKET, BASE_AGENTS, Horizon.finite(BASE_T))
    report = bvp.residual_report(strats, problem)
    assert report.relative < 1e-12


# ---------------------------------------------------------------------------
# infinite horizon
# ---------------------------------------------------------------------------


def test_equal_alpha_infinite_shape():
    market = MarketParams(lam=2.0, gamma=0.1, sigma=1.0, s0=0.0)
    agents = [AgentSpec(5.0, 0.33), AgentSpec(5.0, 0.33)]
    strats = closed_form.equal_alpha_infinite(market, agents)
    spec = closed_form.spectral(market, 0.33, 2)
    for s, a in zip(strats, agents):
        assert s.position(0.0) == pytest.approx(a.x0, abs=1e-13)
        assert np.all(s.rates < 0)
    # equal inventories collapse onto the aggregate mode
    t = np.linspace(0.0, 30.0, 50)
    assert np.allclose(strats[0].position(t), 5.0 * np.exp(spec.rho_minus * t),
                       atol=1e-12)


def test_equal_alpha_infinite_stationarity():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0)
    agents = [AgentSpec(1.0, 1.0), AgentSpec(-0.5, 1.0), AgentSpec(2.0, 1.0)]
    strats = closed_form.equal_alpha_infinite(market, agents)
    problem = validate_problem(market, agents, Horizon.infinite())
    report = bvp.residual_report(strats, problem)
    assert report.relative < 1e-12


def test_quartic_two_negative_roots():
    market = MarketParams(lam=2.0, gamma=0.1, sigma=1.0, s0=0.0)
    t1, t2 = closed_form.negative_quartic_roots(market, 0.33, 0.66)
    assert t1 < t2 < 0.0
    # the returned rates are eigenvalues of the coupled system matrix
    eig = np.linalg.eigvals(system_matrix(market, np.array([0.33, 0.66])))
    for tau in (t1, t2):
        assert np.min(np.abs(eig - tau)) < 1e-9


def test_quartic_roots_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(200):
        lam, gamma = rng.uniform(0.1, 3.0, 2)
        sigma = rng.uniform(0.3, 2.0)
        a1, a2 = rng.uniform(0.05, 3.0, 2)
        if abs(a1 - a2) < 1e-3:
            a2 += 0.1
        market = MarketParams(lam=lam, gamma=gamma, sigma=sigma, s0=0.0)
        t1, t2 = closed_form.negative_quartic_roots(market, a1, a2)
        assert t1 < 0 and t2 < 0
        assert abs(t1 - t2) > 1e-9 * max(abs(t1), abs(t2))


def test_two_player_infinite_consistency():
    market = MarketParams(lam=2.0, gamma=0.1, sigma=1.0, s0=0.0)
    a1, a2 = AgentSpec(5.0, 0.33), AgentSpec(5.0, 0.66)
    s1, s2, taus = closed_form.two_player_infinite(market, a1, a2)
    assert s1.position(0.0) == pytest.approx(5.0, abs=1e-12)
    assert s2.position(0.0) == pytest.approx(5.0, abs=1e-12)
    problem = validate_problem(market, [a1, a2], Horizon.infinite())
    report = bvp.residual_report([s1, s2], problem)
    assert report.relative < 1e-12
    assert taus[0] < taus[1] < 0


def test_two_player_infinite_swap_symmetry():
    market = MarketParams(lam=1.0, gamma=0.4, sigma=1.0, s0=0.0)
    a1, a2 = AgentSpec(2.0, 0.5), AgentSpec(-1.0, 1.5)
    s1, s2, _ = closed_form.two_player_infinite(market, a1, a2)
    r2, r1, _ = closed_form.two_player_infinite(market, a2, a1)
    t = np.linspace(0.0, 20.0, 33)
    assert np.allclose(s1.position(t), r1.position(t), atol=1e-12)
    assert np.allclose(s2.position(t), r2.position(t), atol=1e-12)


def test_finite_to_infinite_convergence_decreasing():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0)
    agents = [AgentSpec(1.0, 1.0), AgentSpec(2.0, 1.0)]
    gaps = closed_form.finite_to_infinite_convergence(
        market, agents, t_probe=1.0, T_sequence=(2.0, 5.0, 10.0, 20.0, 50.0))
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 1e-8
