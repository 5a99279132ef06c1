"""Objective evaluation, Monte Carlo, classification and scan utilities.

Frozen expected-revenue and variance digits come from an independent
quadrature: plain-exponential equilibrium formulas differentiated in closed
form and integrated with scipy's composite Simpson rule on 20001 nodes. The
evaluator under test integrates exponential-sum products exactly, so the two
routes share no code.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from liqgames import analysis, bvp, closed_form
from liqgames.errors import (
    GridMismatch,
    HorizonMismatch,
    InvalidParam,
    MomentOverflow,
    OutOfDomain,
    UnsupportedCase,
)
from liqgames.model import (
    AgentSpec,
    DriftSpec,
    ExpSumStrategy,
    GridStrategy,
    Horizon,
    MarketParams,
    validate_problem,
)


def two_agent_problem(sigma=1.0, s0=10.0, horizon=Horizon.finite(2.0)):
    market = MarketParams(lam=1.0, gamma=1.0, sigma=sigma, s0=s0)
    agents = (AgentSpec(1.12, 0.8), AgentSpec(2.06, 0.8))
    return validate_problem(market, agents, horizon)


def linear_strategy(x, T):
    # X(t) = x (1 - t/T) on 9 nodes: interpolating a line is exact
    grid = np.linspace(0.0, T, 9)
    return GridStrategy(grid=grid, positions=x * (1.0 - grid / T), rates=np.full(9, -x / T))


# ---------------------------------------------------------------------------
# mean-variance evaluation
# ---------------------------------------------------------------------------


def test_risk_neutral_single_agent_exact():
    # alpha = 0: E = x s0 - gamma x^2 / 2 - lam x^2 / T, Var = sigma^2 x^2 T / 3
    x, T, lam, gamma, s0 = 1.12, 2.0, 1.0, 1.0, 10.0
    market = MarketParams(lam=lam, gamma=gamma, sigma=1.0, s0=s0)
    agent = AgentSpec(x, 0.0)
    problem = validate_problem(market, [agent], Horizon.finite(T))
    res = analysis.mean_variance(closed_form.single_agent_finite(market, agent, T), [], problem, 0)
    want_e = x * s0 - gamma * x**2 / 2.0 - lam * x**2 / T
    want_v = x**2 * T / 3.0
    assert abs(res.expected_revenue - want_e) < 1e-13 * abs(want_e)
    assert abs(res.variance - want_v) < 1e-13 * want_v
    assert res.mean_variance_value == res.expected_revenue
    assert res.cara_value == res.expected_revenue


def test_risk_neutral_grid_solve_matches_closed_form():
    # compute_equilibrium sends alpha sigma^2 = 0 to the grid solver
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agent = AgentSpec(1.12, 0.0)
    problem = validate_problem(market, [agent], Horizon.finite(2.0))
    (solved,), route = analysis.compute_equilibrium(problem)
    assert route == "bvp"
    ref = closed_form.single_agent_finite(market, agent, 2.0)
    assert np.max(np.abs(solved.positions - ref.position(solved.grid))) <= 1e-12
    assert np.max(np.abs(solved.rates - ref.rate(solved.grid))) <= 1e-12


def test_frozen_two_agent_objective_values():
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    frozen = [
        (7.531639494325046, 0.5463159998039412, 1.2464018912695127),
        (13.654874947620549, 2.276588262732766, 1.2499533224932131),
    ]
    for i, (want_e, want_v, want_cara) in enumerate(frozen):
        res = analysis.mean_variance(strats[i], [strats[1 - i]], problem, i)
        assert abs(res.expected_revenue - want_e) < 1e-10 * abs(want_e)
        assert abs(res.variance - want_v) < 1e-10 * want_v
        assert abs(res.cara_value - want_cara) < 1e-10 * want_cara
        want_mv = want_e - 0.4 * want_v
        assert abs(res.mean_variance_value - want_mv) < 1e-10 * abs(want_mv)


def test_sampled_route_matches_exact_route():
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    exact = analysis.mean_variance(strats[0], [strats[1]], problem, 0)
    t = np.linspace(0.0, 2.0, 2001)
    positions = np.vstack([s.position(t) for s in strats])
    rates = np.vstack([s.rate(t) for s in strats])
    sampled = analysis.mean_variance_sampled(t, positions, rates, problem)[0]
    assert abs(sampled.expected_revenue - exact.expected_revenue) < 1e-9
    assert abs(sampled.variance - exact.variance) < 1e-9


def test_sampled_route_matches_exact_route_n20():
    market = MarketParams(lam=0.8, gamma=0.6, sigma=0.9, s0=10.0)
    x0 = np.linspace(-1.0, 3.0, 20)
    problem = validate_problem(market, [AgentSpec(x, 0.7) for x in x0], Horizon.finite(1.5))
    strats = closed_form.equal_alpha_finite(market, problem.agents, 1.5)
    t = np.linspace(0.0, 1.5, 4001)
    positions = np.vstack([s.position(t) for s in strats])
    rates = np.vstack([s.rate(t) for s in strats])
    sampled_all = analysis.mean_variance_sampled(t, positions, rates, problem)
    for i, sampled in enumerate(sampled_all):
        exact = analysis.mean_variance(strats[i], strats[:i] + strats[i + 1:], problem, i)
        assert sampled.expected_revenue == pytest.approx(exact.expected_revenue, rel=1e-8)
        assert sampled.variance == pytest.approx(exact.variance, rel=1e-8)


def _quad_pair(p, q, T):
    def f(t):
        return math.prod(c * math.exp(r * (t - a)) for c, r, a in (p, q))

    if T is None:
        return quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    # break points where the stiff terms concentrate, next to either end
    pts = [0.01, 0.1, T - 0.1, T - 0.01]
    return quad(f, 0.0, T, points=pts, epsabs=0.0, epsrel=1e-13, limit=400)[0]


def test_pair_matrix_matches_quad():
    def terms(*rows):
        return tuple(np.array(x) for x in zip(*rows))

    for T in (2.0, 40.0):
        stiff = 250.0 / T
        # (coef, rate, anchor); growing terms anchored at T as strategies do
        rows = terms(
            (1.3, -0.1, 0.0), (-0.8, -0.004, 0.0), (0.6, 0.7, T), (0.9, 0.3, T),
            (0.4, stiff, T), (0.5, 1e-10 / T, T),
        )
        cols = terms(
            (1.0, -0.05, 0.0), (0.5, -2.0, 0.0), (-1.1, -0.7, 0.0), (0.7, 0.3, T),
            (1.5, stiff, T), (0.3, -stiff, 0.0), (2.0, 0.0, 0.0),
        )
        s = rows[1][:, None] + cols[1][None, :]
        # s = 0 exactly, |s| T = 1e-10, s < 0, s > 0 and s T = 500 all occur
        assert np.any(s == 0.0) and np.any(s < 0) and np.any(s > 0)
        assert np.max(s) * T == pytest.approx(500.0)
        assert np.any(np.isclose(np.abs(s) * T, 1e-10, rtol=1e-6, atol=0.0))
        got = analysis._pair_matrix(rows, cols, T)
        want = np.array([[_quad_pair(p, q, T) for q in zip(*cols)] for p in zip(*rows)])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

        # a zero coefficient is an exact zero even beside a term that would overflow
        dead = terms((0.0, 800.0, 0.0))
        assert np.all(analysis._pair_matrix(dead, cols, T) == 0.0)

    rows = terms((1.0, -0.1, 0.0), (-0.7, -0.05, 0.0), (0.5, -3.0, 0.5))
    cols = terms((1.2, -0.2, 0.0), (0.3, -2.0, 0.0), (0.8, -0.4, 1.0))
    got = analysis._pair_matrix(rows, cols, None)
    want = np.array([[_quad_pair(p, q, None) for q in zip(*cols)] for p in zip(*rows)])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def _closed(terms, T):
    """ExpSumStrategy of (coef, rate, anchor) rows plus a rate-0.8 term anchored
    at T that brings X(T) to zero."""
    c, r, a = (np.array(x, dtype=float) for x in zip(*terms))
    end = float(np.sum(c * np.exp(r * (T - a))))
    return ExpSumStrategy(coefs=np.append(c, -end), rates=np.append(r, 0.8),
                          anchors=np.append(a, T), horizon=Horizon.finite(T))


def _profile_case(name):
    """(problem, profile) of one mean_variance_profile reference case."""
    market = MarketParams(lam=0.8, gamma=0.6, sigma=0.9, s0=10.0)
    drifting = MarketParams(lam=0.8, gamma=0.6, sigma=0.9, s0=10.0,
                            drift=DriftSpec.constant(0.4))
    if name == "equal_alpha_finite_n20":
        agents = [AgentSpec(x, 0.7) for x in np.linspace(-1.0, 3.0, 20)]
        return (validate_problem(drifting, agents, Horizon.finite(1.5)),
                closed_form.equal_alpha_finite(market, agents, 1.5))
    if name == "equal_alpha_infinite_n7":
        agents = [AgentSpec(x, 0.7) for x in np.linspace(-1.0, 3.0, 7)]
        return (validate_problem(market, agents, Horizon.infinite()),
                closed_form.equal_alpha_infinite(market, agents))
    if name == "het2inf":
        agents = [AgentSpec(1.0, 0.5), AgentSpec(2.0, 1.5)]
        first, second, _ = closed_form.two_player_infinite(market, *agents)
        return validate_problem(market, agents, Horizon.infinite()), [first, second]
    # hand-built: agent 1 puts two terms on one mode, agents 1 and 2 share the
    # (-0.5, 0) mode, agent 3's rate -0.5 sits at another anchor (a mode of its
    # own), the closing mode (0.8, T) is common and the rest are unshared
    T = 2.0
    profile = [
        _closed([(0.7, -0.5, 0.0), (0.5, -0.5, 0.0), (0.2, -0.3, 0.0)], T),
        _closed([(1.0, -0.5, 0.0), (0.4, -1.3, 0.0)], T),
        _closed([(1.5, -2.0, 0.0), (-0.6, -0.5, 1.0), (0.3, 0.0, 0.0)], T),
    ]
    agents = [AgentSpec(s.initial_position(), a) for s, a in zip(profile, (0.4, 1.1, 0.0))]
    return validate_problem(drifting, agents, Horizon.finite(T)), profile


def _term_values(terms, t, derivative):
    """X(t), or X'(t), of the (coefs, rates, anchors) terms c e^{r (t - a)}."""
    c, r, a = terms
    return float(np.sum(c * np.exp(r * (t - a)) * (r if derivative else 1.0)))


def _quad_integrals(profile, T):
    """Per agent, by quad: int X_i, int X_i S_i, int X_i' S_i, int X_i'^2, int X_i^2
    with S_i the sum of the others' rates; and each integral of |integrand|."""
    upper = math.inf if T is None else T
    terms = [(s.coefs, s.rates, s.anchors) for s in profile]
    values, scales = [], []
    for i, own in enumerate(terms):
        rest_terms = terms[:i] + terms[i + 1:]
        others = [np.concatenate(x) for x in zip(*rest_terms)] if rest_terms else [np.zeros(0)] * 3

        def x(t):
            return _term_values(own, t, False)

        def v(t):
            return _term_values(own, t, True)

        def rest(t):
            return _term_values(others, t, True)

        integrands = (x, lambda t: x(t) * rest(t), lambda t: v(t) * rest(t),
                      lambda t: v(t) ** 2, lambda t: x(t) ** 2)
        row, row_scale = [], []
        for f in integrands:
            row.append(quad(f, 0.0, upper, epsabs=0.0, epsrel=1e-13, limit=400)[0])
            row_scale.append(quad(lambda t: abs(f(t)), 0.0, upper, limit=400)[0])
        values.append(row)
        scales.append(row_scale)
    return np.array(values), np.array(scales)


PROFILE_CASES = ["equal_alpha_finite_n20", "equal_alpha_infinite_n7", "het2inf",
                 "hand_built"]


@pytest.mark.parametrize("name", PROFILE_CASES)
def test_mean_variance_profile_matches_quad(name):
    problem, profile = _profile_case(name)
    T = problem.T
    want, scale = _quad_integrals(profile, T)
    G, int_x, x_start = analysis._mode_gram(profile, T)
    got = np.column_stack((int_x,) + analysis._block_sums(G))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-10 * scale)
    starts = [s.initial_position() for s in profile]
    np.testing.assert_allclose(x_start, starts, rtol=1e-14, atol=1e-15 * max(map(abs, starts)))

    m = problem.market
    b0 = m.drift(0.0) if m.drift.kind == "constant" else 0.0
    results = analysis.mean_variance_profile(profile, problem)
    assert len(results) == problem.n
    for i, res in enumerate(results):
        x0 = profile[i].initial_position()
        want_e = (x0 * m.s0 - 0.5 * m.gamma * x0**2 + b0 * want[i, 0] + m.gamma * want[i, 1]
                  - m.lam * want[i, 2] - m.lam * want[i, 3])
        size = (abs(x0 * m.s0) + 0.5 * m.gamma * x0**2 + abs(b0) * scale[i, 0]
                + m.gamma * scale[i, 1] + m.lam * (scale[i, 2] + scale[i, 3]))
        assert abs(res.expected_revenue - want_e) <= 1e-10 * size
        assert res.variance == pytest.approx(m.sigma**2 * want[i, 4], rel=1e-10)
        # mean_variance indexes the same route
        assert analysis.mean_variance(profile[i], profile[:i] + profile[i + 1:], problem, i) == res


def test_mean_variance_profile_grid_route_is_simpson_on_the_shared_grid():
    problem = validate_problem(MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0),
                               (AgentSpec(1.12, 0.4), AgentSpec(2.06, 1.3)), Horizon.finite(2.0))
    strats, route = analysis.compute_equilibrium(problem, grid_steps=200)
    assert route == "bvp"
    results = analysis.mean_variance_profile(strats, problem)
    t = strats[0].grid
    positions = np.vstack([s.positions for s in strats])
    rates = np.vstack([s.rates for s in strats])
    assert results == analysis.mean_variance_sampled(t, positions, rates, problem)
    with pytest.raises(InvalidParam):
        analysis.mean_variance_profile(strats[:1], problem)
    with pytest.raises(HorizonMismatch):
        analysis.mean_variance_profile([strats[0], linear_strategy(2.06, 1.5)], problem)


@pytest.mark.parametrize("horizon, twins", [(Horizon.finite(1.5), (0, 3)),
                                            (Horizon.infinite(), (1, 6))],
                         ids=["finite_n5", "infinite_n7"])
def test_twins_get_bit_identical_moments_and_samples(horizon, twins):
    # agents with equal x0 and alpha hold equal strategies, wherever they sit
    n = 5 if horizon.is_finite else 7
    x0 = list(np.linspace(-1.0, 3.0, n))
    x0[twins[1]] = x0[twins[0]]
    market = MarketParams(lam=0.8, gamma=0.6, sigma=0.9, s0=10.0)
    problem = validate_problem(market, [AgentSpec(x, 0.7) for x in x0], horizon)
    strats, _ = analysis.compute_equilibrium(problem)
    i, j = twins
    exact = analysis.mean_variance_profile(strats, problem)
    assert exact[i] == exact[j]
    mc = analysis.monte_carlo_revenues(strats, problem, analysis.MonteCarloConfig(paths=200, time_steps=50))
    assert mc[i] == mc[j]


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(min_value=-3.0, max_value=3.0),
    x=st.floats(min_value=0.5, max_value=3.0),
)
def test_quadratic_scaling_identity(c, x):
    # revenue is linear-plus-quadratic in the strategy: scaling X by c maps
    # E to c (x s0) + c^2 (E_1 - x s0) and Var to c^2 Var_1
    market = MarketParams(lam=0.7, gamma=0.4, sigma=1.0, s0=5.0)
    problem = validate_problem(market, [AgentSpec(x, 1.3)], Horizon.finite(2.0))
    base = closed_form.single_agent_finite(market, problem.agents[0], 2.0)
    one = analysis.mean_variance(base, [], problem, 0)
    scaled = ExpSumStrategy(coefs=c * base.coefs, rates=base.rates, anchors=base.anchors,
                            horizon=base.horizon)
    res = analysis.mean_variance(scaled, [], problem, 0)
    want_e = c * x * market.s0 + c**2 * (one.expected_revenue - x * market.s0)
    scale = max(1.0, abs(one.expected_revenue))
    assert abs(res.expected_revenue - want_e) < 1e-12 * scale
    assert abs(res.variance - c**2 * one.variance) < 1e-12 * scale


def test_exp_sum_profile_under_sampled_drift_is_unsupported():
    # compute_equilibrium answers a sampled drift with grid strategies; an
    # exponential-sum profile has no grid to integrate the drift on
    zero = two_agent_problem()
    strats = closed_form.equal_alpha_finite(zero.market, zero.agents, 2.0)
    m = zero.market
    drift = DriftSpec.sampled([0.0, 0.7, 2.0], [0.1, -0.3, 0.2])
    market = MarketParams(lam=m.lam, gamma=m.gamma, sigma=m.sigma, s0=m.s0, drift=drift)
    problem = validate_problem(market, zero.agents, zero.horizon)
    with pytest.raises(UnsupportedCase):
        analysis.mean_variance_profile(strats, problem)
    with pytest.raises(UnsupportedCase):
        analysis.mean_variance(strats[0], [strats[1]], problem, 0)
    with pytest.raises(UnsupportedCase):
        bvp.residual_report(strats, problem)
    solved, route = analysis.compute_equilibrium(problem, grid_steps=64)
    assert route == "bvp"
    assert len(analysis.mean_variance_profile(solved, problem)) == 2
    # a sampled drift of zeros is the zero drift: closed form, exact moments
    zeros = DriftSpec.sampled([0.0, 2.0], [0.0, 0.0])
    market = MarketParams(lam=m.lam, gamma=m.gamma, sigma=m.sigma, s0=m.s0, drift=zeros)
    problem = validate_problem(market, zero.agents, zero.horizon)
    assert analysis.compute_equilibrium(problem)[1] == "closed_form"
    assert (analysis.mean_variance_profile(strats, problem)
            == analysis.mean_variance_profile(strats, zero))


def test_profile_shape_and_horizon_checks():
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    with pytest.raises(InvalidParam):
        analysis.mean_variance(strats[0], [], problem, 0)
    with pytest.raises(InvalidParam):
        analysis.mean_variance(strats[0], [strats[1]], problem, 5)
    wrong_T = linear_strategy(1.12, 1.5)
    with pytest.raises(HorizonMismatch):
        analysis.mean_variance(wrong_T, [strats[1]], problem, 0)
    grid_a = GridStrategy(grid=np.linspace(0.0, 2.0, 101),
                          positions=np.linspace(1.12, 0.0, 101), rates=np.full(101, -0.56))
    grid_b = GridStrategy(grid=np.linspace(0.0, 2.0, 201),
                          positions=np.linspace(2.06, 0.0, 201), rates=np.full(201, -1.03))
    with pytest.raises(GridMismatch):
        analysis.mean_variance(grid_a, [grid_b], problem, 0)


def test_sampled_profile_validation():
    problem = two_agent_problem()
    t = np.linspace(0.0, 2.0, 101)
    pos = np.zeros((2, 101))
    with pytest.raises(GridMismatch):
        analysis.mean_variance_sampled(t, pos[:, :-1], pos, problem)
    t_bad = t.copy()
    t_bad[50] += 1e-3
    with pytest.raises(GridMismatch):
        analysis.mean_variance_sampled(t_bad, pos, pos, problem)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_matches_moments_within_3se():
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    cfg = analysis.MonteCarloConfig(paths=4000, time_steps=400, seed=0)
    results = analysis.monte_carlo_revenues(strats, problem, cfg)
    assert len(results) == 2
    for i, mc in enumerate(results):
        res = analysis.mean_variance(strats[i], [strats[1 - i]], problem, i)
        assert abs(mc.mean - res.expected_revenue) <= 3.0 * mc.mean_se
        assert abs(mc.variance - res.variance) <= 3.0 * mc.variance_se
        assert abs(mc.cara_mean - res.cara_value) <= 3.0 * mc.cara_se
        assert mc.truncation_time is None


@pytest.mark.parametrize("alphas", [(0.5, 1.5), (0.5, 0.5)], ids=["grid", "closed_form"])
def test_overflowing_revenue_moments_raise(alphas):
    # inventories near 1e250 solve, but x0^2 is past the float range
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = [AgentSpec(1e250, a) for a in alphas]
    problem = validate_problem(market, agents, Horizon.finite(0.01))
    strategies, _ = analysis.compute_equilibrium(problem)
    with pytest.raises(MomentOverflow):
        analysis.mean_variance_profile(strategies, problem)


@pytest.mark.parametrize("alphas", [(2.0, 1.5), (2.0, 2.0)], ids=["grid", "closed_form"])
def test_overflowing_cara_value_raises(alphas):
    # alpha^2 var / 2 ~ 2e3: e^{...} overflows, the moments do not
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = [AgentSpec(100.0, a) for a in alphas]
    problem = validate_problem(market, agents, Horizon.finite(5.0))
    strategies, _ = analysis.compute_equilibrium(problem)
    with pytest.raises(MomentOverflow, match="CARA value of agent 1"):
        analysis.mean_variance_profile(strategies, problem)


def test_monte_carlo_cara_spread_survives_large_losses():
    # over T = 0.01 the impact cost dominates: revenues near -358 and -658,
    # where e^{-alpha R} is about 1e229 and its square is past the float range
    problem = two_agent_problem(s0=0.0, horizon=Horizon.finite(0.01))
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 0.01)
    cfg = analysis.MonteCarloConfig(paths=200, time_steps=64)
    for i, mc in enumerate(analysis.monte_carlo_revenues(strats, problem, cfg)):
        res = analysis.mean_variance(strats[i], [strats[1 - i]], problem, i)
        assert mc.mean < -300.0
        assert abs(mc.cara_mean - res.cara_value) <= 3.0 * mc.cara_se
        # the revenue spread is small, so u = (1 - e^{-alpha R}) / alpha
        # spreads about |u| alpha times as much as R
        ratio = mc.cara_se / (abs(mc.cara_mean) * 0.8 * mc.mean_se)
        assert abs(ratio - 1.0) <= 0.1


def test_monte_carlo_reruns_bit_identical():
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    cfg = analysis.MonteCarloConfig(paths=500, time_steps=64, seed=11)
    a = analysis.monte_carlo_revenues(strats, problem, cfg)
    b = analysis.monte_carlo_revenues(strats, problem, cfg)
    assert a == b
    other = analysis.MonteCarloConfig(paths=500, time_steps=64, seed=12)
    c = analysis.monte_carlo_revenues(strats, problem, other)
    assert c[0].mean != a[0].mean


def test_monte_carlo_draws_the_exact_law_of_the_ito_sums():
    # rows: a path, its twin, a zero row and a second path. The left-point
    # sums S = X dW are N(0, dt X X^T); the draw must match that covariance
    # and a per-step reference draw, and keep twins and zeros exact
    steps, paths, dt = 12, 200_000, 0.25
    t = dt * np.arange(steps)
    X = np.array([3.0 - t, 3.0 - t, np.zeros(steps), np.cos(t)])
    sums = analysis._ito_sums(X, dt, paths, seed=4)
    assert sums.shape == (4, paths)
    assert np.array_equal(sums[0], sums[1])
    assert not sums[2].any()

    rng = np.random.default_rng(4)
    ref = np.zeros((4, paths))
    for k in range(steps):
        ref += np.outer(X[:, k], rng.standard_normal(paths) * math.sqrt(dt))

    C = dt * X @ X.T
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / paths)
    got = sums @ sums.T / paths
    assert np.all(np.abs(got - C) <= 5.0 * se)
    assert np.all(np.abs(got - ref @ ref.T / paths) <= 5.0 * math.sqrt(2.0) * se)


def test_monte_carlo_noise_is_common_to_all_agents():
    # identical agents see identical revenues only if they share one noise
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = (AgentSpec(1.5, 0.8), AgentSpec(1.5, 0.8))
    problem = validate_problem(market, agents, Horizon.finite(2.0))
    strats = closed_form.equal_alpha_finite(market, agents, 2.0)
    cfg = analysis.MonteCarloConfig(paths=500, time_steps=64, seed=2)
    first, second = analysis.monte_carlo_revenues(strats, problem, cfg)
    assert first == second


def test_monte_carlo_memory_does_not_grow_with_time_steps():
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    cfg = analysis.MonteCarloConfig(paths=50_000, time_steps=400, seed=0)
    tracemalloc.start()
    try:
        analysis.monte_carlo_revenues(strats, problem, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a draw of every increment would hold 160 MB (50k x 400 float64)
    assert peak < 32e6


def test_monte_carlo_no_noise_reduces_to_expectation():
    problem = two_agent_problem(sigma=0.0)
    profile = [linear_strategy(1.12, 2.0), linear_strategy(2.06, 2.0)]
    cfg = analysis.MonteCarloConfig(paths=500, time_steps=64, seed=0)
    for i, mc in enumerate(analysis.monte_carlo_revenues(profile, problem, cfg)):
        res = analysis.mean_variance(profile[i], [profile[1 - i]], problem, i)
        assert abs(mc.mean - res.expected_revenue) < 1e-14 * abs(res.expected_revenue)
        assert mc.variance < 1e-25


def test_monte_carlo_infinite_horizon_truncation():
    market = MarketParams(lam=0.5, gamma=0.3, sigma=1.0, s0=4.0)
    problem = validate_problem(market, [AgentSpec(1.5, 1.2)], Horizon.infinite())
    strat = closed_form.equal_alpha_infinite(market, problem.agents)[0]
    res = analysis.mean_variance(strat, [], problem, 0)
    cfg = analysis.MonteCarloConfig(paths=4000, time_steps=400, seed=1)
    (mc,) = analysis.monte_carlo_revenues([strat], problem, cfg)
    assert mc.truncation_time is not None
    # truncated-away variance must be negligible next to the sampling error
    assert mc.tail_variance_bound < 1e-12 * res.variance
    assert abs(mc.mean - res.expected_revenue) <= 3.0 * mc.mean_se


@pytest.mark.parametrize("name", ["equal_alpha_infinite_n7", "het2inf"])
def test_tail_variances_match_quad(name):
    problem, profile = _profile_case(name)
    sigma, t_end = problem.market.sigma, 0.7
    got = analysis._tail_variances(profile, t_end, sigma)
    want = [sigma**2 * quad(lambda t: s.position(t) ** 2, t_end, math.inf,
                            epsabs=0.0, epsrel=1e-13, limit=400)[0] for s in profile]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_monte_carlo_config_validation():
    with pytest.raises(InvalidParam):
        analysis.MonteCarloConfig(paths=10)
    with pytest.raises(InvalidParam):
        analysis.MonteCarloConfig(time_steps=2)
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    with pytest.raises(InvalidParam):  # one strategy per agent
        analysis.monte_carlo_revenues(strats[:1], problem, analysis.MonteCarloConfig())


# ---------------------------------------------------------------------------
# whole-profile rules: one check, one window
# ---------------------------------------------------------------------------


def equal_x0_infinite(x0):
    # equal alpha and equal x0: the profile holds no spread, so the theta
    # mode's coefficient is 0 up to rounding
    market = MarketParams(lam=0.8, gamma=0.6, sigma=0.9, s0=10.0)
    problem = validate_problem(market, [AgentSpec(x0, 0.7)] * 3, Horizon.infinite())
    return problem, closed_form.equal_alpha_infinite(market, problem.agents)


@pytest.mark.parametrize("x0, slowest", [(1.5, "rho_minus"), (0.1, "theta_minus"),
                                         (0.0, "theta_minus")])
def test_windows_follow_the_slowest_live_mode(x0, slowest):
    # x0 = 1.5 leaves the theta coefficient exactly 0, a mode no agent holds;
    # x0 = 0.1 leaves it at -1.4e-17, which still counts; x0 = 0 holds no
    # mode at all, and every term's rate counts
    problem, strats = equal_x0_infinite(x0)
    rate = getattr(closed_form.spectral(problem.market, 0.7, 3), slowest)
    window = 40.0 / abs(rate)
    cfg = analysis.MonteCarloConfig(paths=200, time_steps=64)
    for mc in analysis.monte_carlo_revenues(strats, problem, cfg):
        assert mc.truncation_time == pytest.approx(window, rel=1e-12)
    # the first sine direction's curvature is a function of the probe window
    rep = analysis.deviation_report(problem, strats, 0, n_directions=1)
    m = problem.market
    want = -(0.5 * 0.7 * m.sigma**2 + m.lam * (math.pi / window) ** 2) * (window / 2.0)
    assert rep.curvature[0] == pytest.approx(want, rel=1e-12)


PROFILE_CONSUMERS = {
    "residual_report": bvp.residual_report,
    "mean_variance_profile": analysis.mean_variance_profile,
    "monte_carlo_revenues": lambda profile, problem: analysis.monte_carlo_revenues(
        profile, problem, analysis.MonteCarloConfig(paths=200, time_steps=64)),
    "deviation_report": lambda profile, problem: analysis.deviation_report(
        problem, profile, 0, n_directions=25),
}


def no_draws(*args):
    raise AssertionError("a mismatched profile must be rejected before any draw")


@pytest.mark.parametrize("case", ["grid_2.0_on_T2.5", "grid_2.5_on_T2.0", "grid_on_infinite",
                                  "finite_exp_sum_on_infinite"])
@pytest.mark.parametrize("consumer", sorted(PROFILE_CONSUMERS))
def test_every_profile_consumer_raises_horizon_mismatch(consumer, case, monkeypatch):
    monkeypatch.setattr(analysis, "_ito_sums", no_draws)
    finite = two_agent_problem()
    profile, horizon = {
        "grid_2.0_on_T2.5": ([linear_strategy(1.12, 2.0), linear_strategy(2.06, 2.0)],
                             Horizon.finite(2.5)),
        "grid_2.5_on_T2.0": ([linear_strategy(1.12, 2.5), linear_strategy(2.06, 2.5)],
                             Horizon.finite(2.0)),
        "grid_on_infinite": ([linear_strategy(1.12, 2.0), linear_strategy(2.06, 2.0)],
                             Horizon.infinite()),
        "finite_exp_sum_on_infinite": (
            closed_form.equal_alpha_finite(finite.market, finite.agents, 2.0), Horizon.infinite()),
    }[case]
    with pytest.raises(HorizonMismatch):
        PROFILE_CONSUMERS[consumer](profile, two_agent_problem(horizon=horizon))


@pytest.mark.parametrize("kind", ["grid", "exp_sum"])
@pytest.mark.parametrize("offset", [-2.0, -0.5, 0.5, 2.0])
@pytest.mark.parametrize("T", [0.01, 1.0, 100.0])
def test_every_profile_consumer_accepts_only_samplable_horizons(T, offset, kind):
    # members end at T + offset 1e-12 max(1, T). Every consumer must agree:
    # samplable on [0, T] within the tolerance, HorizonMismatch past it. A
    # grid pair at T = 0.01 - 5e-13 once passed the check and then raised
    # OutOfDomain from the Monte Carlo and the deviation probe. Small
    # inventories keep the CARA utilities of a T = 0.01 liquidation finite
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = (AgentSpec(0.112, 0.8), AgentSpec(0.206, 0.8))
    problem = validate_problem(market, agents, Horizon.finite(T))
    end = T + offset * 1e-12 * max(1.0, T)
    profile = {
        "grid": [linear_strategy(0.112, end), linear_strategy(0.206, end)],
        "exp_sum": closed_form.equal_alpha_finite(problem.market, problem.agents, end),
    }[kind]
    outcomes = set()
    for consumer in PROFILE_CONSUMERS.values():
        try:
            consumer(profile, problem)
            outcomes.add("ok")
        except HorizonMismatch:
            outcomes.add("HorizonMismatch")
    assert outcomes == ({"ok"} if abs(offset) < 1.0 else {"HorizonMismatch"})


@pytest.mark.parametrize("consumer", sorted(PROFILE_CONSUMERS))
def test_every_profile_consumer_raises_grid_mismatch(consumer, monkeypatch):
    monkeypatch.setattr(analysis, "_ito_sums", no_draws)
    grids = [GridStrategy(grid=np.linspace(0.0, 2.0, k), positions=np.linspace(x, 0.0, k),
                          rates=np.full(k, -x / 2.0)) for x, k in ((1.12, 101), (2.06, 201))]
    with pytest.raises(GridMismatch):
        PROFILE_CONSUMERS[consumer](grids, two_agent_problem())


# ---------------------------------------------------------------------------
# role classification
# ---------------------------------------------------------------------------


def test_classification_margin_sign():
    # gamma = 0.16, alpha sigma^2 = 0.33: the margin changes sign between
    # lam = 0.15 and lam = 0.16
    low = analysis.classify_role(MarketParams(lam=0.15, gamma=0.16, sigma=1.0, s0=0.0), 0.33)
    high = analysis.classify_role(MarketParams(lam=0.16, gamma=0.16, sigma=1.0, s0=0.0), 0.33)
    assert low.role == "predatory" and low.margin < 0
    assert high.role == "liquidity_provision" and high.margin > 0


def test_classification_boundary_and_edges():
    knife = analysis.classify_role(MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0), 2.0)
    assert knife.role == "inactive"
    assert knife.margin == 0.0
    frictionless = analysis.classify_role(MarketParams(lam=1.0, gamma=0.0, sigma=1.0, s0=0.0), 0.5)
    assert frictionless.role == "liquidity_provision"
    with pytest.raises(InvalidParam):
        analysis.classify_role(MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0), -0.1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_classification_rejects_non_finite_alpha(alpha):
    market = MarketParams(lam=0.15, gamma=0.16, sigma=1.0, s0=0.0)
    with pytest.raises(InvalidParam) as info:
        analysis.classify_role(market, alpha)
    assert info.value.field == "alpha"


# ---------------------------------------------------------------------------
# effective liquidation time
# ---------------------------------------------------------------------------


def test_liquidation_time_single_agent_decay():
    # lone agent unwinds at rate kappa, so the 99% time is ln(100)/kappa
    market = MarketParams(lam=0.5, gamma=0.3, sigma=1.0, s0=4.0)
    problem = validate_problem(market, [AgentSpec(1.5, 1.2)], Horizon.infinite())
    strat = closed_form.equal_alpha_infinite(market, problem.agents)[0]
    kappa = math.sqrt(1.2 / (2.0 * 0.5))
    want = math.log(100.0) / kappa
    assert abs(analysis.effective_liquidation_time(strat) - want) < 1e-12 * want


def test_liquidation_time_linear_and_validation():
    lin = linear_strategy(1.12, 2.0)
    assert abs(analysis.effective_liquidation_time(lin) - 1.98) < 1e-12
    assert abs(analysis.effective_liquidation_time(lin, fraction=0.5) - 1.0) < 1e-12
    with pytest.raises(InvalidParam):
        analysis.effective_liquidation_time(lin, fraction=1.0)
    with pytest.raises(InvalidParam):
        analysis.effective_liquidation_time(linear_strategy(0.0, 2.0))


# ---------------------------------------------------------------------------
# equilibrium routing and scans
# ---------------------------------------------------------------------------


def test_compute_equilibrium_routes():
    finite_eq = two_agent_problem()
    strats, route = analysis.compute_equilibrium(finite_eq)
    assert route == "closed_form"
    assert len(strats) == 2
    assert all(isinstance(s, ExpSumStrategy) for s in strats)

    market = finite_eq.market
    hetero = validate_problem(market, (AgentSpec(1.12, 0.5), AgentSpec(2.06, 1.5)),
                              Horizon.finite(2.0))
    strats, route = analysis.compute_equilibrium(hetero, grid_steps=200)
    assert route == "bvp"
    assert all(isinstance(s, GridStrategy) for s in strats)
    assert strats[0].positions[0] == 1.12

    inf = validate_problem(market, (AgentSpec(1.0, 0.8), AgentSpec(0.5, 0.8)),
                           Horizon.infinite())
    _, route = analysis.compute_equilibrium(inf)
    assert route == "closed_form"


def test_parameter_scan_rows_and_error_status():
    problem = two_agent_problem()
    rows = analysis.parameter_scan(problem, "alpha_sigma2", np.linspace(0.0, 3.0, 13),
                                   probe=(0, 1.0))
    assert len(rows) == 13
    assert all(r.status == "ok" for r in rows)
    inc, dec = analysis.non_monotone([r.probe_value for r in rows])
    assert inc and dec

    rows = analysis.parameter_scan(problem, "lambda", [0.0, 0.5], probe=(0, 1.0))
    assert rows[0].status == "InvalidParam"
    assert math.isnan(rows[0].probe_value)
    assert rows[1].status == "ok"

    with pytest.raises(InvalidParam):
        analysis.parameter_scan(problem, "spread", [1.0], probe=(0, 1.0))


@pytest.mark.parametrize("alphas, route", [((0.8, 0.8), "closed_form"), ((0.3, 1.1), "bvp")])
def test_parameter_scan_probe_past_horizon(alphas, route):
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = [AgentSpec(1.12, alphas[0]), AgentSpec(2.06, alphas[1])]
    problem = validate_problem(market, agents, Horizon.finite(2.0))
    assert analysis.compute_equilibrium(problem)[1] == route
    rows = analysis.parameter_scan(problem, "T", [0.5, 1.0, 1.5], probe=(0, 1.0))
    assert rows[0].status == "OutOfDomain"
    assert math.isnan(rows[0].probe_value)
    assert [r.status for r in rows[1:]] == ["ok", "ok"]
    assert rows[1].probe_value == 0.0


# the knots at 1.247 and 1.251 sit on both sides of the probe time 1.25,
# and 0.37, 2.21 off the reference's nodes: the one-interval solve and the
# probe chain the forcing over them. DENSE has 96 kinks, off the nodes too
KNOTTED = DriftSpec.sampled([0.0, 0.37, 1.247, 1.251, 2.21, 3.0],
                            [0.2, -0.4, 0.1, 0.5, -0.3, 0.25])
DENSE = DriftSpec.sampled(np.append(2.97 * np.linspace(0.0, 1.0, 97) ** 1.1, 3.0),
                          0.3 * np.cos(np.arange(98.0) ** 1.5))


@pytest.mark.parametrize("drift", [DriftSpec.zero(), DriftSpec.constant(0.3), KNOTTED, DENSE],
                         ids=["zero", "constant", "sampled", "dense"])
@pytest.mark.parametrize("parameter, values, T", [
    ("lambda", [0.7, 1.3], 3.0),
    ("gamma", [0.0, 0.6], 3.0),  # gamma 0: a spectrum symmetric about 0
    ("lambda", [0.0125], 8.0),  # stiff: growth * T ~ 70
])
def test_scan_probes_exactly_between_nodes(drift, parameter, values, T):
    # the reference solves on a grid of step 0.25, so the probe time is its
    # node 5; a linear interpolant of 400 nodes is about 1e-6 off here
    if drift.kind == "sampled" and T != 3.0:
        drift = DriftSpec.sampled(list(drift.grid[:-1]) + [T], drift.values)
    market = MarketParams(lam=1.0, gamma=0.6, sigma=0.9, s0=10.0, drift=drift)
    agents = (AgentSpec(1.12, 0.4), AgentSpec(-0.7, 1.3), AgentSpec(2.06, 0.9))
    problem = validate_problem(market, agents, Horizon.finite(T))
    rows = analysis.parameter_scan(problem, parameter, values, probe=(1, 1.25))
    for v, row in zip(values, rows):
        point = analysis._scan_problem(problem, parameter, v)
        assert analysis.compute_equilibrium(point, 8)[1] == "bvp"
        ref = bvp.solve_finite(point, int(4 * T)).strategies[1]
        assert ref.grid[5] == 1.25
        assert row.status == "ok"
        assert abs(row.probe_value - ref.positions[5]) <= 1e-12 * np.max(np.abs(problem.x0))


def test_nan_times_raise_out_of_domain():
    # NaN fails every comparison, so each bound must be a test that NaN fails
    problem = two_agent_problem()
    het = validate_problem(problem.market, (AgentSpec(1.12, 0.3), AgentSpec(2.06, 1.1)),
                           Horizon.finite(2.0))
    closed, _ = analysis.compute_equilibrium(problem)
    grid, route = analysis.compute_equilibrium(het, grid_steps=64)
    assert route == "bvp"
    infinite = ExpSumStrategy(coefs=[1.0], rates=[-1.0], anchors=[0.0],
                              horizon=Horizon.infinite())
    for s in (closed[0], grid[0], infinite):
        for f in (s.position, s.rate):
            for bad in (math.nan, np.array([0.5, math.nan]), np.array([math.nan, 0.5])):
                with pytest.raises(OutOfDomain):
                    f(bad)
    for p in (problem, het):
        rows = analysis.parameter_scan(p, "lambda", [0.5, 1.0], probe=(0, math.nan))
        assert [r.status for r in rows] == ["OutOfDomain", "OutOfDomain"]
        assert all(math.isnan(r.probe_value) for r in rows)


def test_non_monotone_flags():
    assert analysis.non_monotone([1.0, 2.0, 3.0]) == (True, False)
    assert analysis.non_monotone([3.0, 2.0, 1.0]) == (False, True)
    assert analysis.non_monotone([1.0, 2.0, 1.0]) == (True, True)
    assert analysis.non_monotone([1.0, 1.0, 1.0]) == (False, False)
    wiggle = [1.0, 1.0 + 1e-13, 1.0]
    assert analysis.non_monotone(wiggle) == (False, False)


# ---------------------------------------------------------------------------
# deviation probes
# ---------------------------------------------------------------------------


def test_no_profitable_deviation_at_equilibrium():
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    rep = analysis.deviation_report(problem, strats, 0, n_directions=40)
    assert np.max(np.abs(rep.first_order)) < 1e-8 * rep.scale
    assert np.all(rep.curvature < 0)
    assert np.all(rep.value_changes < 0)


def test_deviation_detects_non_equilibrium():
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    rep = analysis.deviation_report(problem, [linear_strategy(1.12, 2.0), strats[1]],
                                    0, n_directions=40)
    assert np.max(np.abs(rep.first_order)) > 1e-3 * rep.scale
    assert np.any(rep.value_changes > 0)


def test_deviation_quadratic_decomposition_matches_direct():
    # re-evaluate one sine bump directly; agreement is limited by the
    # piecewise-linear grid representation, not by the decomposition
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    gs = 4096  # deviation_report's own grid
    rep = analysis.deviation_report(problem, strats, 0, n_directions=1)
    t = np.linspace(0.0, 2.0, gs + 1)
    base = np.asarray(strats[0].position(t))
    base[-1] = 0.0
    eta = np.sin(np.pi * t / 2.0)
    eta[-1] = 0.0
    eps = 1e-2
    base_rate = np.asarray(strats[0].rate(t))
    eta_rate = (np.pi / 2.0) * np.cos(np.pi * t / 2.0)
    v0 = analysis.mean_variance(GridStrategy(grid=t, positions=base, rates=base_rate),
                                [strats[1]], problem, 0)
    v1 = analysis.mean_variance(
        GridStrategy(grid=t, positions=base + eps * eta, rates=base_rate + eps * eta_rate),
        [strats[1]], problem, 0)
    direct = v1.mean_variance_value - v0.mean_variance_value
    quad = rep.first_order[0] * eps + rep.curvature[0] * eps**2
    assert abs(direct - quad) < 1e-3 * abs(direct)


def test_deviation_infinite_horizon_equilibrium():
    market = MarketParams(lam=0.5, gamma=0.3, sigma=1.0, s0=4.0)
    problem = validate_problem(market, (AgentSpec(1.5, 1.2), AgentSpec(0.7, 1.2)),
                               Horizon.infinite())
    strats = closed_form.equal_alpha_infinite(market, problem.agents)
    rep = analysis.deviation_report(problem, strats, 1, n_directions=25)
    assert np.max(np.abs(rep.first_order)) < 1e-8 * rep.scale
    assert np.all(rep.value_changes < 0)


def test_deviation_report_validation():
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    with pytest.raises(InvalidParam):
        analysis.deviation_report(problem, [strats[0]], 0)
    with pytest.raises(InvalidParam):
        analysis.deviation_report(problem, strats, 2)


@pytest.mark.parametrize("n_directions", [0, -1])
def test_deviation_report_needs_a_direction(n_directions):
    # an empty report would certify nothing
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    with pytest.raises(InvalidParam):
        analysis.deviation_report(problem, strats, 0, n_directions=n_directions)
