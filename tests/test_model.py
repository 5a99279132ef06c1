"""Parameter records, strategies, and serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liqgames.errors import (
    HorizonMismatch,
    InvalidParam,
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
    alphas_equal,
    dump_problem,
    eval_strategy,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    system_matrix,
    validate_problem,
)


def two_agent_problem(**market_kwargs):
    defaults = dict(lam=1.0, gamma=0.5, sigma=1.0, s0=10.0)
    defaults.update(market_kwargs)
    market = MarketParams(**defaults)
    agents = [AgentSpec(2.0, 0.8), AgentSpec(-1.0, 0.8)]
    return validate_problem(market, agents, Horizon.finite(2.0))


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


def test_zero_drift():
    d = DriftSpec.zero()
    assert d.is_zero
    assert d(1.5) == 0.0
    assert np.array_equal(d(np.array([0.0, 1.0])), np.zeros(2))
    assert d.covers(1e9)


def test_constant_drift():
    d = DriftSpec.constant(0.7)
    assert not d.is_zero
    assert d(123.0) == 0.7
    assert DriftSpec.constant(0.0).is_zero


def test_sampled_drift_interpolates():
    ts = np.array([0.0, 1.0, 2.0])
    vs = np.array([0.0, 2.0, 0.0])
    d = DriftSpec.sampled(ts, vs)
    assert d(0.5) == pytest.approx(1.0)
    assert d.covers(2.0) and not d.covers(2.5)
    with pytest.raises(InvalidParam):
        DriftSpec.sampled(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_drift_dict_round_trip():
    for d in (DriftSpec.zero(), DriftSpec.constant(-0.3),
              DriftSpec.sampled([0.0, 3.0], [1.0, 2.0])):
        back = DriftSpec.from_dict(d.to_dict())
        t = np.linspace(0.0, 3.0, 7)
        assert np.allclose(back(t), d(t), rtol=0, atol=0)


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------


def test_market_params_validation():
    MarketParams(lam=0.1, gamma=0.0, sigma=0.0, s0=0.0)
    with pytest.raises(InvalidParam):
        MarketParams(lam=0.0, gamma=0.5, sigma=1.0, s0=0.0)
    with pytest.raises(InvalidParam):
        MarketParams(lam=1.0, gamma=-0.1, sigma=1.0, s0=0.0)
    with pytest.raises(InvalidParam):
        MarketParams(lam=1.0, gamma=0.1, sigma=-1.0, s0=0.0)


def test_agent_spec_validation():
    AgentSpec(x0=-5.0, alpha=0.0)
    with pytest.raises(InvalidParam):
        AgentSpec(x0=1.0, alpha=-0.2)


def test_horizon():
    h = Horizon.finite(2.5)
    assert h.is_finite and h.T == 2.5
    assert not Horizon.infinite().is_finite
    with pytest.raises(InvalidParam):
        Horizon.finite(0.0)
    assert Horizon.from_dict(h.to_dict()) == h
    assert Horizon.from_dict({"type": "infinite"}) == Horizon.infinite()


def test_alphas_equal():
    assert alphas_equal([0.5, 0.5, 0.5])
    assert not alphas_equal([0.5, 0.5 + 1e-6])
    assert alphas_equal([0.0])


def test_validate_problem_finite():
    p = two_agent_problem()
    assert p.n == 2 and p.equal_alpha and p.T == 2.0
    assert np.array_equal(p.x0, [2.0, -1.0])


def test_validate_problem_infinite_rules():
    market = MarketParams(lam=1.0, gamma=0.5, sigma=1.0, s0=0.0)
    agents = [AgentSpec(1.0, 0.5), AgentSpec(2.0, 0.5)]
    validate_problem(market, agents, Horizon.infinite())

    with pytest.raises(InvalidParam):  # sigma must be positive
        validate_problem(MarketParams(lam=1.0, gamma=0.5, sigma=0.0, s0=0.0),
                         agents, Horizon.infinite())
    with pytest.raises(InvalidParam):  # alpha must be positive
        validate_problem(market, [AgentSpec(1.0, 0.0)], Horizon.infinite())
    with pytest.raises(InvalidParam):  # no drift
        validate_problem(
            MarketParams(lam=1.0, gamma=0.5, sigma=1.0, s0=0.0,
                         drift=DriftSpec.constant(0.1)),
            agents, Horizon.infinite())
    with pytest.raises(UnsupportedCase):  # three distinct alphas
        validate_problem(
            market,
            [AgentSpec(1.0, 0.1), AgentSpec(1.0, 0.2), AgentSpec(1.0, 0.3)],
            Horizon.infinite())


def test_drift_must_cover_horizon():
    market = MarketParams(lam=1.0, gamma=0.5, sigma=1.0, s0=0.0,
                          drift=DriftSpec.sampled([0.0, 1.0], [0.1, 0.2]))
    with pytest.raises(InvalidParam):
        validate_problem(market, [AgentSpec(1.0, 0.5)], Horizon.finite(2.0))


# ---------------------------------------------------------------------------
# exponential-sum strategies
# ---------------------------------------------------------------------------


def make_expsum():
    # x(t) = e^{-t} - e^{-2 (t-3)} e^{... anchored}; pick terms that end at 0
    hz = Horizon.finite(3.0)
    c2 = -math.exp(-3.0)
    return ExpSumStrategy(
        coefs=np.array([1.0, c2]),
        rates=np.array([-1.0, 0.0]),
        anchors=np.array([0.0, 0.0]),
        horizon=hz,
    )


def test_expsum_evaluates_terms():
    s = make_expsum()
    t = np.linspace(0.0, 3.0, 11)
    expect = np.exp(-t) - math.exp(-3.0)
    assert np.allclose(s.position(t), expect, rtol=0, atol=1e-15)
    assert np.allclose(s.rate(t), -np.exp(-t), rtol=0, atol=1e-15)
    assert np.allclose(s.accel(t), np.exp(-t), rtol=0, atol=1e-15)


def test_expsum_derivatives_match_finite_differences():
    s = make_expsum()
    h = 1e-6
    for t in (0.3, 1.1, 2.4):
        fd_rate = (s.position(t + h) - s.position(t - h)) / (2 * h)
        fd_acc = (s.rate(t + h) - s.rate(t - h)) / (2 * h)
        assert s.rate(t) == pytest.approx(fd_rate, rel=1e-8)
        assert s.accel(t) == pytest.approx(fd_acc, rel=1e-8)


def test_expsum_requires_terminal_zero():
    with pytest.raises(InvalidParam):
        ExpSumStrategy(coefs=np.array([1.0]), rates=np.array([-1.0]),
                       anchors=np.array([0.0]), horizon=Horizon.finite(1.0))


def test_expsum_infinite_requires_decay():
    ExpSumStrategy(coefs=np.array([1.0]), rates=np.array([-0.5]),
                   anchors=np.array([0.0]), horizon=Horizon.infinite())
    with pytest.raises(InvalidParam):
        ExpSumStrategy(coefs=np.array([1.0]), rates=np.array([0.0]),
                       anchors=np.array([0.0]), horizon=Horizon.infinite())


def test_expsum_degree_one_terms():
    # x(t) = (1 - t/2) is degree-1 with rate 0: coef -0.5 deg 1 plus const 1
    hz = Horizon.finite(2.0)
    s = ExpSumStrategy(
        coefs=np.array([1.0, -0.5]),
        rates=np.array([0.0, 0.0]),
        anchors=np.array([0.0, 0.0]),
        degrees=np.array([0, 1]),
        horizon=hz,
    )
    t = np.linspace(0.0, 2.0, 9)
    assert np.allclose(s.position(t), 1.0 - t / 2.0, atol=1e-15)
    assert np.allclose(s.rate(t), -0.5, atol=1e-15)
    assert np.allclose(s.accel(t), 0.0, atol=1e-15)


def test_expsum_scaled_plus():
    s = make_expsum()
    combo = s.scaled(2.0).plus(s.scaled(-1.0))
    t = np.linspace(0.0, 3.0, 7)
    assert np.allclose(combo.position(t), s.position(t), atol=1e-15)
    other = ExpSumStrategy(coefs=np.array([1.0]), rates=np.array([-1.0]),
                           anchors=np.array([0.0]), horizon=Horizon.infinite())
    with pytest.raises(HorizonMismatch):
        s.plus(other)


def test_eval_strategy_domain():
    s = make_expsum()
    pos, rate = eval_strategy(s, 1.0)
    assert pos == pytest.approx(s.position(1.0))
    assert rate == pytest.approx(s.rate(1.0))
    with pytest.raises(OutOfDomain):
        eval_strategy(s, 3.5)
    with pytest.raises(OutOfDomain):
        eval_strategy(s, -0.1)
    inf = ExpSumStrategy(coefs=np.array([1.0]), rates=np.array([-1.0]),
                         anchors=np.array([0.0]), horizon=Horizon.infinite())
    pos_inf, _ = eval_strategy(inf, 100.0)
    assert pos_inf == pytest.approx(math.exp(-100.0), abs=1e-60)


def test_strategies_raise_out_of_domain():
    # the types check their own domain: no extrapolated or clamped values
    expsum = make_expsum()  # T = 3
    g = np.linspace(0.0, 3.0, 33)
    grid = GridStrategy(grid=g, positions=g * (3.0 - g), rates=3.0 - 2.0 * g)
    calls = [expsum.position, expsum.rate, expsum.accel, grid.position, grid.rate]
    for f in calls:
        assert np.all(np.isfinite(f(np.array([0.0, 1.5, 3.0]))))
        for bad in (3.5, -0.1, np.array([1.0, 3.0 + 1e-9]), np.array([-1e-9, 1.0])):
            with pytest.raises(OutOfDomain):
                f(bad)
    inf = ExpSumStrategy(coefs=np.array([1.0]), rates=np.array([-1.0]),
                         anchors=np.array([0.0]), horizon=Horizon.infinite())
    assert inf.position(1e3) == 0.0
    with pytest.raises(OutOfDomain):
        inf.rate(-0.1)


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(4)))
def test_expsum_term_order_irrelevant(perm):
    coefs = np.array([0.3, -1.2, 0.9, 0.25])
    rates = np.array([-0.5, -1.0, -2.0, -0.1])
    perm = np.array(perm)
    a = ExpSumStrategy(coefs=coefs, rates=rates, anchors=np.zeros(4),
                       horizon=Horizon.infinite())
    b = ExpSumStrategy(coefs=coefs[perm], rates=rates[perm], anchors=np.zeros(4),
                       horizon=Horizon.infinite())
    t = np.linspace(0.0, 5.0, 13)
    assert np.allclose(a.position(t), b.position(t), rtol=0, atol=1e-15)
    assert np.allclose(a.rate(t), b.rate(t), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# grid strategies
# ---------------------------------------------------------------------------


def test_grid_strategy_rate_interpolates_stored_node_rates():
    T = 2.0
    g = np.linspace(0.0, T, 33)
    pos = g * (T - g)  # starts and ends at zero
    rates = T - 2.0 * g
    s = GridStrategy(grid=g, positions=pos, rates=rates)
    assert np.array_equal(s.rate(g), rates)
    assert not s.rates.flags.writeable
    mid = 0.5 * (g[3] + g[4])
    assert s.rate(mid) == pytest.approx(0.5 * (rates[3] + rates[4]))
    assert s.position(mid) == pytest.approx(0.5 * (pos[3] + pos[4]))


def test_grid_strategy_validation():
    g = np.linspace(0.0, 1.0, 33)
    zeros = np.zeros(33)
    with pytest.raises(InvalidParam):  # terminal inventory not zero
        GridStrategy(grid=g, positions=np.ones(33), rates=zeros)
    with pytest.raises(InvalidParam):  # too coarse
        GridStrategy(grid=np.linspace(0.0, 1.0, 5), positions=np.zeros(5), rates=np.zeros(5))
    bad = g.copy()
    bad[5] += 0.01
    with pytest.raises(InvalidParam):  # not uniform
        GridStrategy(grid=bad, positions=zeros, rates=zeros)
    with pytest.raises(InvalidParam):  # must start at 0
        GridStrategy(grid=g + 1.0, positions=zeros, rates=zeros)
    with pytest.raises(InvalidParam):  # one rate per node
        GridStrategy(grid=g, positions=zeros, rates=np.zeros(32))
    nan_rate = zeros.copy()
    nan_rate[7] = np.nan
    with pytest.raises(InvalidParam):  # rates must be finite
        GridStrategy(grid=g, positions=zeros, rates=nan_rate)


@pytest.mark.parametrize("off, uniform", [(0.9e-9, True), (1.1e-9, False)])
def test_grid_strategy_uniformity_tolerance(off, uniform):
    # one step may differ from the first by 1e-9 of it, relative
    steps = np.full(32, 1.0 / 32)
    steps[20] *= 1.0 + off
    g = np.concatenate([[0.0], np.cumsum(steps)])
    zeros = np.zeros(33)
    if uniform:
        GridStrategy(grid=g, positions=zeros, rates=zeros)
    else:
        with pytest.raises(InvalidParam):
            GridStrategy(grid=g, positions=zeros, rates=zeros)
    g[9] = np.nan
    with pytest.raises(InvalidParam):
        GridStrategy(grid=g, positions=zeros, rates=zeros)


# ---------------------------------------------------------------------------
# system matrix
# ---------------------------------------------------------------------------


def test_system_matrix_single_agent():
    market = MarketParams(lam=0.5, gamma=0.8, sigma=1.2, s0=0.0)
    M = system_matrix(market, np.array([0.9]))
    # single agent: acceleration = alpha sigma^2 X / (2 lam), no rate feedback
    assert M.shape == (2, 2)
    assert M[0, 0] == 0.0 and M[0, 1] == 1.0
    assert M[1, 0] == pytest.approx(0.9 * 1.2**2 / (2 * 0.5))
    assert M[1, 1] == pytest.approx(0.0)


def test_system_matrix_shape_and_coupling():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0)
    M = system_matrix(market, np.array([0.8, 0.8, 0.8]))
    assert M.shape == (6, 6)
    assert np.array_equal(M[:3, :3], np.zeros((3, 3)))
    assert np.array_equal(M[:3, 3:], np.eye(3))


@pytest.mark.parametrize("alphas", [(0.4, 1.3), (0.2, 0.7, 1.1, 1.6, 2.4)])
def test_system_matrix_rate_rows_solve_second_order_form(alphas):
    # the conditions read lam (I + J) X'' = A X + gamma (I - J) X' - b, so the
    # rate rows of M must be (I + J)^{-1} times those coefficients
    market = MarketParams(lam=0.7, gamma=0.9, sigma=1.3, s0=0.0)
    n = len(alphas)
    eye, J = np.eye(n), np.ones((n, n))
    M = system_matrix(market, np.array(alphas))
    A = market.sigma**2 * np.diag(alphas)
    want_pos = np.linalg.solve(eye + J, A / market.lam)
    want_rate = np.linalg.solve(eye + J, market.gamma * (eye - J) / market.lam)
    assert np.allclose(M[n:, :n], want_pos, rtol=0.0, atol=1e-12)
    assert np.allclose(M[n:, n:], want_rate, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_problem_dict_round_trip():
    p = two_agent_problem(drift=DriftSpec.constant(0.2))
    q = problem_from_dict(problem_to_dict(p))
    assert q.market.lam == p.market.lam
    assert q.market.drift(1.0) == 0.2
    assert [a.x0 for a in q.agents] == [2.0, -1.0]
    assert q.horizon == p.horizon


def test_problem_file_round_trip(tmp_path):
    p = two_agent_problem()
    path = tmp_path / "prob.json"
    dump_problem(p, str(path))
    q = load_problem(str(path))
    assert problem_to_dict(q) == problem_to_dict(p)


def test_problem_json_field_names(tmp_path):
    # the on-disk schema is part of the external interface
    d = problem_to_dict(two_agent_problem())
    assert set(d) == {"market", "agents", "horizon"}
    assert set(d["market"]) == {"lambda", "gamma", "sigma", "s0", "drift"}
    assert set(d["agents"][0]) == {"x0", "alpha"}
    assert d["horizon"] == {"type": "finite", "T": 2.0}


def test_problem_from_dict_errors():
    with pytest.raises(InvalidParam):
        problem_from_dict({"agents": [], "horizon": {"type": "infinite"}})
    with pytest.raises(InvalidParam):
        problem_from_dict({"market": {"lambda": 1.0}, "agents": [],
                           "horizon": {"type": "infinite"}})
    with pytest.raises(InvalidParam):
        problem_from_dict({"market": {"lambda": 1.0}, "agents": [{"alpha": 1.0}],
                           "horizon": {"type": "infinite"}})


def test_load_problem_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidParam):
        load_problem(str(path))
