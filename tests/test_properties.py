"""Symmetry properties of the equilibrium solvers, over random zero-drift games.

Relabelling the agents relabels the equilibrium, and with zero drift the
equilibrium is linear in the initial inventories. Both the discrete oracle
and the grid route of compute_equilibrium must respect this to rounding:
1e-10 of the largest inventory, on every horizon alike, since no step of the
grid solver's forward and backward marches grows by more than about e over
the horizon. Alphas are spread apart so that compute_equilibrium takes its
grid route.

The grid solver's node values do not depend on the grid (the drift's forcing
is integrated exactly), so over random finite games, degenerate ones
included, its nodes at N = 400 and N = 800 must agree to rounding.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liqgames import analysis, bvp, oracle
from liqgames.model import AgentSpec, DriftSpec, Horizon, MarketParams, validate_problem

RTOL = 1e-10


@st.composite
def games(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    alpha0 = draw(st.floats(min_value=0.1, max_value=1.5))
    spread = draw(st.floats(min_value=0.05, max_value=0.5))
    x0 = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n))
    assume(max(abs(x) for x in x0) > 0.1)
    market = MarketParams(
        lam=draw(st.floats(min_value=0.3, max_value=2.0)),
        gamma=draw(st.floats(min_value=0.0, max_value=1.5)),
        sigma=1.0,
        s0=10.0,
    )
    T = draw(st.floats(min_value=0.5, max_value=2.5))
    return market, [alpha0 + k * spread for k in range(n)], x0, T


def build(market, alphas, x0, T):
    agents = [AgentSpec(float(x), float(a)) for x, a in zip(x0, alphas)]
    return validate_problem(market, agents, Horizon.finite(T))


def solutions(problem):
    """Oracle paths and grid-route positions, one row per agent."""
    paths, report = oracle.iterate_nash(oracle.DiscreteGame(problem, n_steps=64))
    assert report.converged
    strategies, route = analysis.compute_equilibrium(problem, grid_steps=100)
    assert route == "bvp"
    return paths, np.array([s.positions for s in strategies])


def assert_close(actual, expected, rtol):
    np.testing.assert_allclose(
        actual, expected, rtol=rtol, atol=rtol * float(np.max(np.abs(expected)))
    )


@settings(max_examples=25, deadline=None)
@given(game=games(), data=st.data())
def test_permuting_agents_permutes_the_equilibrium(game, data):
    market, alphas, x0, T = game
    order = data.draw(st.permutations(range(len(x0))))
    problem = build(market, alphas, x0, T)
    swapped = solutions(
        build(market, [alphas[k] for k in order], [x0[k] for k in order], T)
    )
    for want, got in zip(solutions(problem), swapped):  # oracle, then grid route
        assert_close(got, want[list(order)], RTOL)


@settings(max_examples=25, deadline=None)
@given(
    game=games(),
    c=st.floats(min_value=0.1, max_value=5.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_scaling_inventories_scales_the_equilibrium(game, c, sign):
    market, alphas, x0, T = game
    problem = build(market, alphas, x0, T)
    scaled = solutions(build(market, alphas, [sign * c * x for x in x0], T))
    for want, got in zip(solutions(problem), scaled):  # oracle, then grid route
        assert_close(got, sign * c * want, RTOL)


def log_uniform(lo, hi):
    return st.floats(min_value=np.log10(lo), max_value=np.log10(hi)).map(lambda e: 10.0**e)


def zero_or(strategy, one_in):
    # exact zero with probability about 1/one_in
    return st.tuples(st.integers(min_value=1, max_value=one_in), strategy).map(
        lambda pair: 0.0 if pair[0] == 1 else pair[1])


@st.composite
def finite_games(draw):
    """Finite games of up to 5 agents, with risk-neutral agents, zero sigma or
    gamma, equal alphas, horizons from 0.01 to 2000 and every drift kind."""
    n = draw(st.integers(min_value=1, max_value=5))
    alphas = draw(st.lists(zero_or(st.floats(min_value=0.0, max_value=2.0), 4),
                           min_size=n, max_size=n))
    if draw(st.integers(min_value=1, max_value=4)) == 1:
        alphas = [alphas[0]] * n
    x0 = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n))
    T = draw(log_uniform(0.01, 2000.0))
    kind = draw(st.sampled_from(["zero", "constant", "sampled"]))
    if kind == "zero":
        drift = DriftSpec.zero()
    elif kind == "constant":
        drift = DriftSpec.constant(draw(st.floats(min_value=-1.0, max_value=1.0)))
    else:
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        knots = draw(st.integers(min_value=2, max_value=60))
        ts = np.sort(np.concatenate([[0.0, T], rng.uniform(0.0, T, knots - 2)]))
        drift = DriftSpec.sampled(ts, rng.uniform(-1.0, 1.0, knots))
    market = MarketParams(
        lam=draw(log_uniform(1e-3, 2.0)),
        gamma=draw(zero_or(st.floats(min_value=0.0, max_value=1.5), 4)),
        sigma=draw(zero_or(st.floats(min_value=0.0, max_value=1.5), 4)),
        s0=10.0,
        drift=drift,
    )
    agents = [AgentSpec(float(x), float(a)) for x, a in zip(x0, alphas)]
    return validate_problem(market, agents, Horizon.finite(T))


def node_states(problem, n_steps):
    strategies = bvp.solve_finite(problem, n_steps).strategies
    return np.array([s.positions for s in strategies] + [s.rates for s in strategies])


# multiple shooting's banded system came out singular on this one
LONG_STIFF = validate_problem(
    MarketParams(lam=0.008, gamma=0.5, sigma=0.6, s0=10.0, drift=DriftSpec.constant(0.3)),
    [AgentSpec(1.0, 0.4), AgentSpec(2.0, 1.0), AgentSpec(-1.0, 1.6)], Horizon.finite(500.0))


@settings(max_examples=60, deadline=None)
@given(problem=finite_games())
@example(problem=LONG_STIFF)
def test_grid_solver_nodes_do_not_depend_on_the_grid(problem):
    coarse, fine = node_states(problem, 400), node_states(problem, 800)
    gap = np.max(np.abs(coarse - fine[:, ::2]))
    assert gap <= 1e-10 * max(1.0, float(np.max(np.abs(coarse))))
