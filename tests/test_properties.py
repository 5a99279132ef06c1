"""Symmetry properties of the equilibrium solvers, over random zero-drift games.

Relabelling the agents relabels the equilibrium, and with zero drift the
equilibrium is linear in the initial inventories. Both the discrete oracle
and the grid route of compute_equilibrium must respect this to rounding:
1e-10 of the largest inventory, on every horizon alike, since the grid
solver's multiple shooting lets rounding grow by at most e^4 inside a
segment. Alphas are spread apart so that compute_equilibrium takes its grid
route.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liqgames import analysis, oracle
from liqgames.model import AgentSpec, Horizon, MarketParams, validate_problem

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
