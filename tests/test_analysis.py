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

from liqgames import analysis, closed_form
from liqgames.errors import GridMismatch, HorizonMismatch, InvalidParam
from liqgames.model import (
    AgentSpec,
    ExpSumStrategy,
    GridStrategy,
    Horizon,
    MarketParams,
    validate_problem,
)


def two_agent_problem(sigma=1.0, s0=10.0):
    market = MarketParams(lam=1.0, gamma=1.0, sigma=sigma, s0=s0)
    agents = (AgentSpec(1.12, 0.8), AgentSpec(2.06, 0.8))
    return validate_problem(market, agents, Horizon.finite(2.0))


def linear_strategy(x, T):
    # X(t) = x (1 - t/T): degree-1 rate-zero term pair
    return ExpSumStrategy(coefs=[x, -x / T], rates=[0.0, 0.0], anchors=[0.0, 0.0],
                          degrees=[0, 1], horizon=Horizon.finite(T))


# ---------------------------------------------------------------------------
# mean-variance evaluation
# ---------------------------------------------------------------------------


def test_risk_neutral_single_agent_exact():
    # alpha = 0: E = x s0 - gamma x^2 / 2 - lam x^2 / T, Var = sigma^2 x^2 T / 3
    x, T, lam, gamma, s0 = 1.12, 2.0, 1.0, 1.0, 10.0
    market = MarketParams(lam=lam, gamma=gamma, sigma=1.0, s0=s0)
    problem = validate_problem(market, [AgentSpec(x, 0.0)], Horizon.finite(T))
    res = analysis.mean_variance(linear_strategy(x, T), [], problem, 0)
    want_e = x * s0 - gamma * x**2 / 2.0 - lam * x**2 / T
    want_v = x**2 * T / 3.0
    assert abs(res.expected_revenue - want_e) < 1e-13 * abs(want_e)
    assert abs(res.variance - want_v) < 1e-13 * want_v
    assert res.mean_variance_value == res.expected_revenue
    assert res.cara_value == res.expected_revenue


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
    sampled = analysis.mean_variance_sampled(t, positions, rates, problem, 0)
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
    for i in range(20):
        exact = analysis.mean_variance(strats[i], strats[:i] + strats[i + 1:], problem, i)
        sampled = analysis.mean_variance_sampled(t, positions, rates, problem, i)
        assert sampled.expected_revenue == pytest.approx(exact.expected_revenue, rel=1e-8)
        assert sampled.variance == pytest.approx(exact.variance, rel=1e-8)


def _quad_pair(p, q, T):
    def f(t):
        return math.prod(c * (t - a) ** d * math.exp(r * (t - a)) for c, r, a, d in (p, q))

    if T is None:
        return quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)[0]
    # break points where the stiff terms concentrate, next to either end
    pts = [0.01, 0.1, T - 0.1, T - 0.01]
    return quad(f, 0.0, T, points=pts, epsabs=0.0, epsrel=1e-13, limit=400)[0]


def test_pair_matrix_matches_quad():
    def terms(*rows):
        c, r, a, d = zip(*rows)
        return np.array(c), np.array(r), np.array(a), np.array(d)

    for T in (2.0, 40.0):
        stiff = 250.0 / T
        # (coef, rate, anchor, degree); growing terms anchored at T as strategies do
        rows = terms(
            (1.3, -0.1, 0.0, 0), (-0.8, -0.004, 0.0, 1), (0.6, 0.7, T, 0),
            (0.9, 0.3, T, 1), (0.4, stiff, T, 0),
        )
        cols = terms(
            (1.0, -0.05, 0.0, 0), (0.5, -2.0, 0.0, 1), (-1.1, -0.7, 0.0, 0),
            (0.7, 0.3, T, 1), (1.5, stiff, T, 1), (0.3, -stiff, 0.0, 0), (2.0, 0.0, 0.0, 0),
        )
        s = rows[1][:, None] + cols[1][None, :]
        # the series (|s|T < 0.5), the recurrence, s = 0 exactly, s > 0 and s T = 500 all occur
        assert np.any((s < 0) & (np.abs(s) * T < 0.5)) and np.any((s < 0) & (np.abs(s) * T > 0.5))
        assert np.any(s == 0.0) and np.any(s > 0) and np.max(s) * T == pytest.approx(500.0)
        got = analysis._pair_matrix(rows, cols, T)
        want = np.array([[_quad_pair(p, q, T) for q in zip(*cols)] for p in zip(*rows)])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

        # a zero coefficient is an exact zero even beside a term that would overflow
        dead = terms((0.0, 800.0, 0.0, 0), (0.0, 800.0, 0.0, 1))
        assert np.all(analysis._pair_matrix(dead, cols, T) == 0.0)

    rows = terms((1.0, -0.1, 0.0, 0), (-0.7, -0.05, 0.0, 1), (0.5, -3.0, 0.5, 1))
    cols = terms((1.2, -0.2, 0.0, 0), (0.3, -2.0, 0.0, 1), (0.8, -0.4, 1.0, 0))
    got = analysis._pair_matrix(rows, cols, None)
    want = np.array([[_quad_pair(p, q, None) for q in zip(*cols)] for p in zip(*rows)])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


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
    base = linear_strategy(x, 2.0)
    one = analysis.mean_variance(base, [], problem, 0)
    res = analysis.mean_variance(base.scaled(c), [], problem, 0)
    want_e = c * x * market.s0 + c**2 * (one.expected_revenue - x * market.s0)
    scale = max(1.0, abs(one.expected_revenue))
    assert abs(res.expected_revenue - want_e) < 1e-12 * scale
    assert abs(res.variance - c**2 * one.variance) < 1e-12 * scale


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
        analysis.mean_variance_sampled(t, pos[:, :-1], pos, problem, 0)
    t_bad = t.copy()
    t_bad[50] += 1e-3
    with pytest.raises(GridMismatch):
        analysis.mean_variance_sampled(t_bad, pos, pos, problem, 0)


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


def test_monte_carlo_chunks_equal_one_draw():
    # 2560 paths of 400 steps are 2.5 chunks; agent 1 must still equal, bit
    # for bit, the sample built from one unchunked draw. 2560 splits into
    # whole groups of 4 rows on up to 16 BLAS threads, so the reference's own
    # threaded product groups its rows as the chunked one does.
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    cfg = analysis.MonteCarloConfig(paths=2560, time_steps=400, seed=5)
    assert cfg.paths % analysis._chunk_rows(cfg.time_steps) != 0
    mc = analysis.monte_carlo_revenues(strats, problem, cfg)[0]

    t = np.linspace(0.0, 2.0, cfg.time_steps + 1)
    X = np.array([s.position(t) for s in strats])
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    draw = rng.standard_normal((cfg.paths, cfg.time_steps)) * math.sqrt(t[1] - t[0])
    sums = analysis._ito_sums(X[:, :-1], t[1] - t[0], cfg.paths, cfg.seed)
    for i in range(2):
        assert np.array_equal(sums[i], draw @ X[i, :-1])

    mean = analysis.mean_variance(strats[0], [strats[1]], problem, 0).expected_revenue
    revenues = mean + problem.market.sigma * (draw @ X[0, :-1])
    root_n = math.sqrt(cfg.paths)
    assert mc.mean == float(np.mean(revenues))
    assert mc.mean_se == float(np.std(revenues, ddof=1) / root_n)
    centered_sq = (revenues - mc.mean) ** 2
    assert mc.variance == float(np.sum(centered_sq) / (cfg.paths - 1))
    assert mc.variance_se == float(np.std(centered_sq, ddof=1) / root_n)
    alpha = problem.agents[0].alpha
    utils = (1.0 - np.exp(-alpha * revenues)) / alpha
    assert mc.cara_mean == float(np.mean(utils))
    assert mc.cara_se == float(np.std(utils, ddof=1) / root_n)


def test_monte_carlo_noise_is_common_to_all_agents():
    # identical agents see identical revenues only if they share one noise
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = (AgentSpec(1.5, 0.8), AgentSpec(1.5, 0.8))
    problem = validate_problem(market, agents, Horizon.finite(2.0))
    strats = closed_form.equal_alpha_finite(market, agents, 2.0)
    cfg = analysis.MonteCarloConfig(paths=500, time_steps=64, seed=2)
    first, second = analysis.monte_carlo_revenues(strats, problem, cfg)
    assert first == second


def test_monte_carlo_memory_is_bounded_by_the_chunk():
    problem = two_agent_problem()
    strats = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    cfg = analysis.MonteCarloConfig(paths=50_000, time_steps=400, seed=0)
    tracemalloc.start()
    try:
        analysis.monte_carlo_revenues(strats, problem, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one unchunked draw would hold 160 MB (50k x 400 float64)
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
    gs = 2048
    rep = analysis.deviation_report(problem, strats, 0, n_directions=1, grid_steps=gs)
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
