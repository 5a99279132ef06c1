"""Discrete-game oracle: convergence order and independence cross-checks.

The oracle discretizes each agent's objective directly (midpoint rule, one
banded solve of the stacked first-order conditions, banded Cholesky best
responses to verify it) and knows nothing about the analytic machinery, so
agreement with the closed forms and the continuous solver is evidence for
both sides.
"""

import numpy as np
import pytest

from liqgames import analysis, bvp, closed_form, oracle
from liqgames.errors import InvalidParam, SingularNashSystem
from liqgames.model import (
    AgentSpec,
    DriftSpec,
    Horizon,
    MarketParams,
    validate_problem,
)


def two_trader_problem():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = (AgentSpec(1.12, 0.8), AgentSpec(2.06, 0.8))
    return validate_problem(market, agents, Horizon.finite(2.0))


# ---------------------------------------------------------------------------
# agreement with the analytic routes
# ---------------------------------------------------------------------------


def test_single_agent_second_order_convergence():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    problem = validate_problem(market, [AgentSpec(1.12, 0.8)], Horizon.finite(2.0))
    ref = closed_form.single_agent_finite(market, problem.agents[0], 2.0)
    errs = []
    for n_steps in (100, 200, 400):
        game = oracle.DiscreteGame(problem, n_steps=n_steps)
        paths, report = oracle.iterate_nash(game)
        assert report.converged
        errs.append(float(oracle.compare(game, paths, [ref])[0]))
    assert errs[2] < 1e-6
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_two_agent_equilibrium_convergence():
    problem = two_trader_problem()
    ref = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    errs = []
    for n_steps in (100, 200, 400):
        game = oracle.DiscreteGame(problem, n_steps=n_steps)
        paths, report = oracle.iterate_nash(game)
        assert report.converged
        assert report.sweeps < 200
        errs.append(float(np.max(oracle.compare(game, paths, ref))))
    assert errs[1] < 1e-2  # grid-level agreement at the default resolution
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_risk_neutral_best_response_is_exactly_linear():
    # alpha = 0, b = 0: the discrete cost is a pure quadratic in the rates,
    # minimized by equal steps; no discretization error at all
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    problem = validate_problem(market, [AgentSpec(1.12, 0.0)], Horizon.finite(2.0))
    game = oracle.DiscreteGame(problem, n_steps=64)
    response = game.best_response(0, np.zeros((1, 65)))
    linear = 1.12 * (1.0 - game.grid / 2.0)
    assert np.max(np.abs(response - linear)) < 1e-12


def test_heterogeneous_drift_game_matches_bvp():
    market = MarketParams(lam=1.0, gamma=0.6, sigma=1.0, s0=10.0,
                          drift=DriftSpec.constant(0.4))
    problem = validate_problem(market, (AgentSpec(1.12, 0.5), AgentSpec(2.06, 1.5)),
                               Horizon.finite(2.0))
    game = oracle.DiscreteGame(problem, n_steps=400)
    paths, report = oracle.iterate_nash(game)
    assert report.converged
    sol = bvp.solve_finite(problem, 400)
    gaps = oracle.compare(game, paths, sol.strategies)
    assert np.max(gaps) < 1e-5


def test_objective_consistent_with_analytic_evaluator():
    # the discrete payoff drops the agent-independent constant x s0 - g x^2/2
    problem = two_trader_problem()
    ref = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    game = oracle.DiscreteGame(problem, n_steps=200)
    paths, _ = oracle.iterate_nash(game)
    for i in range(2):
        res = analysis.mean_variance(ref[i], [ref[1 - i]], problem, i)
        disc = game.objective(i, paths) + res.constant_part
        assert abs(disc - res.mean_variance_value) < 1e-3 * abs(res.mean_variance_value)


# ---------------------------------------------------------------------------
# fixed-point structure
# ---------------------------------------------------------------------------


def test_converged_profile_is_mutual_best_response():
    problem = two_trader_problem()
    game = oracle.DiscreteGame(problem, n_steps=100)
    paths, report = oracle.iterate_nash(game)
    assert report.converged
    for i in range(2):
        trial = paths.copy()
        trial[i] = game.best_response(i, paths)
        gain = game.objective(i, trial) - game.objective(i, paths)
        assert gain > -1e-14  # exact argmax never loses
        assert gain < 1e-9  # and at the fixed point it gains nothing


def test_best_response_maximizes_against_perturbations():
    problem = two_trader_problem()
    game = oracle.DiscreteGame(problem, n_steps=100)
    paths, _ = oracle.iterate_nash(game)
    best = game.objective(0, paths)
    rng = np.random.default_rng(0)
    for _ in range(5):
        bump = rng.standard_normal(game.n_steps - 1)
        trial = paths.copy()
        trial[0, 1:-1] += 1e-2 * bump
        assert game.objective(0, trial) < best


def test_compare_flags_corrupted_paths():
    problem = two_trader_problem()
    ref = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    game = oracle.DiscreteGame(problem, n_steps=100)
    paths, _ = oracle.iterate_nash(game)
    clean = np.max(oracle.compare(game, paths, ref))
    bad = paths.copy()
    bad[0, 50] += 0.1
    dirty = np.max(oracle.compare(game, bad, ref))
    assert clean < 1e-4
    assert dirty > 1e-2


def test_non_convergence_is_reported_not_raised(monkeypatch):
    # a verification sweep that finds the solve's profile is not a fixed point
    game = oracle.DiscreteGame(two_trader_problem(), n_steps=64)
    exact = game.best_response

    def off_by_a_little(i, paths):
        return exact(i, paths) + 1e-6

    monkeypatch.setattr(game, "best_response", off_by_a_little)
    paths, report = oracle.iterate_nash(game)
    assert not report.converged
    assert report.sweeps == 1
    assert report.max_update > report.tol
    assert paths.shape == (2, 65)


def test_singular_system_raises_typed_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(oracle, "solve_banded", singular)
    with pytest.raises(SingularNashSystem):
        oracle.iterate_nash(oracle.DiscreteGame(two_trader_problem(), n_steps=64))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_oracle_input_validation():
    problem = two_trader_problem()
    with pytest.raises(InvalidParam):
        oracle.DiscreteGame(problem, n_steps=4)
    market = problem.market
    infinite = validate_problem(market, problem.agents, Horizon.infinite())
    with pytest.raises(InvalidParam):
        oracle.DiscreteGame(infinite)
    game = oracle.DiscreteGame(problem, n_steps=64)
    paths, _ = oracle.iterate_nash(game)
    with pytest.raises(InvalidParam):
        game.best_response(7, paths)
    with pytest.raises(InvalidParam):
        oracle.compare(game, paths, [])
