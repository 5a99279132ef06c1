"""Grid solver for the coupled equilibrium boundary value problem.

The exactness tests use a manufactured solution derived here from scratch:
with one common risk aversion and constant drift b, the aggregate S = sum X_i
solves  alpha sigma^2 S - (n-1) gamma S' - (n+1) lam S'' = n b,  and each
agent adds theta-mode corrections around S/n. Both linear systems are solved
with plain 2x2 algebra and plain exponentials, none of the solver machinery.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from liqgames import bvp, closed_form
from liqgames.errors import GridMismatch, InvalidParam
from liqgames.model import (
    AgentSpec,
    DriftSpec,
    GridStrategy,
    Horizon,
    MarketParams,
    validate_problem,
)


def make_problem(lam=1.0, gamma=1.0, sigma=1.0, alphas=(0.8, 0.8),
                 x0=(1.12, 2.06), T=2.0, drift=None, s0=0.0):
    kwargs = {} if drift is None else {"drift": drift}
    market = MarketParams(lam=lam, gamma=gamma, sigma=sigma, s0=s0, **kwargs)
    agents = [AgentSpec(x, a) for x, a in zip(x0, alphas)]
    return validate_problem(market, agents, Horizon.finite(T))


def solve(problem, n_steps=400):
    system = bvp.assemble(problem)
    return bvp.solve_finite(system, problem.x0, problem.T, n_steps)


def manufactured_solution(market, alphas, x0, b, T, t):
    """Equal-alpha equilibrium with constant drift, from first principles."""
    lam, gamma = market.lam, market.gamma
    a_s2 = alphas[0] * market.sigma**2
    n = len(x0)
    disc_r = math.sqrt((n - 1) ** 2 * gamma**2 + 4 * (n + 1) * a_s2 * lam)
    rp = (-(n - 1) * gamma + disc_r) / (2 * (n + 1) * lam)
    rm = (-(n - 1) * gamma - disc_r) / (2 * (n + 1) * lam)
    disc_t = math.sqrt(gamma**2 + 4 * a_s2 * lam)
    tp = (gamma + disc_t) / (2 * lam)
    tm = (gamma - disc_t) / (2 * lam)

    s_part = n * b / a_s2
    total = float(np.sum(x0))
    # aggregate: S = s_part + A e^{rp t} + B e^{rm t}, S(0) = total, S(T) = 0
    mat = np.array([[1.0, 1.0], [math.exp(rp * T), math.exp(rm * T)]])
    A, B = np.linalg.solve(mat, [total - s_part, -s_part])

    out = []
    x_part = b / a_s2
    mat_th = np.array([[1.0, 1.0], [math.exp(tp * T), math.exp(tm * T)]])
    for xi in x0:
        # particular response to the aggregate modes carries weight 1/n
        base0 = x_part + A / n + B / n
        baseT = x_part + (A / n) * math.exp(rp * T) + (B / n) * math.exp(rm * T)
        c1, c2 = np.linalg.solve(mat_th, [xi - base0, -baseT])
        out.append(x_part + (A / n) * np.exp(rp * t) + (B / n) * np.exp(rm * t)
                   + c1 * np.exp(tp * t) + c2 * np.exp(tm * t))
    return np.array(out)


# ---------------------------------------------------------------------------
# agreement with closed forms
# ---------------------------------------------------------------------------


def test_matches_closed_form_equal_alpha():
    problem = make_problem()
    sol = solve(problem)
    reference = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    grid = sol.strategies[0].grid
    for s, ref in zip(sol.strategies, reference):
        assert np.max(np.abs(s.positions - ref.position(grid))) < 1e-10


def test_boundaries_exact():
    problem = make_problem(alphas=(0.3, 1.1), x0=(1.5, -0.7))
    sol = solve(problem, 200)
    for s, xi in zip(sol.strategies, problem.x0):
        assert s.positions[0] == xi
        assert s.positions[-1] == 0.0
    assert sol.terminal_defect < 1e-10


def test_single_agent_matches_sinh():
    problem = make_problem(alphas=(1.0,), x0=(2.0,), lam=0.5, gamma=0.3, T=2.0)
    sol = solve(problem)
    ref = closed_form.single_agent_finite(problem.market, problem.agents[0], 2.0)
    grid = sol.strategies[0].grid
    assert np.max(np.abs(sol.strategies[0].positions - ref.position(grid))) < 1e-11


# ---------------------------------------------------------------------------
# manufactured constant-drift solution
# ---------------------------------------------------------------------------


def test_constant_drift_manufactured_solution():
    b = 0.6
    problem = make_problem(lam=0.9, gamma=0.5, sigma=1.2, alphas=(0.7, 0.7, 0.7),
                           x0=(1.5, -0.4, 2.2), T=1.8, drift=DriftSpec.constant(b))
    sol = solve(problem, 400)
    grid = sol.strategies[0].grid
    want = manufactured_solution(problem.market, problem.alphas, problem.x0,
                                 b, 1.8, grid)
    got = np.array([s.positions for s in sol.strategies])
    assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("n_steps", [8, 50, 200])
def test_constant_drift_exact_at_any_grid(n_steps):
    # the forcing integral of every interval is exact, so even 8 steps
    # reproduce the manufactured solution to rounding
    b = 0.6
    problem = make_problem(lam=0.9, gamma=0.5, sigma=1.2, alphas=(0.7, 0.7),
                           x0=(1.5, -0.4), T=1.8, drift=DriftSpec.constant(b))
    sol = solve(problem, n_steps)
    grid = sol.strategies[0].grid
    want = manufactured_solution(problem.market, problem.alphas, problem.x0, b, 1.8, grid)
    got = np.array([s.positions for s in sol.strategies])
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_drift_superposition():
    # the solution map is affine in (x0, b): X(x0, b) = X(x0, 0) + X(0, b)
    base = make_problem(alphas=(0.4, 0.9), x0=(1.0, -2.0), T=1.5)
    with_drift = make_problem(alphas=(0.4, 0.9), x0=(1.0, -2.0), T=1.5,
                              drift=DriftSpec.constant(0.8))
    drift_only = make_problem(alphas=(0.4, 0.9), x0=(0.0, 0.0), T=1.5,
                              drift=DriftSpec.constant(0.8))
    full = np.array([s.positions for s in solve(with_drift, 200).strategies])
    homog = np.array([s.positions for s in solve(base, 200).strategies])
    part = np.array([s.positions for s in solve(drift_only, 200).strategies])
    assert np.max(np.abs(full - homog - part)) < 1e-10


def test_agent_permutation_symmetry():
    problem = make_problem(alphas=(0.4, 0.9, 1.3), x0=(1.0, -2.0, 0.5), T=1.5)
    swapped = make_problem(alphas=(1.3, 0.9, 0.4), x0=(0.5, -2.0, 1.0), T=1.5)
    a = solve(problem, 200).strategies
    b = solve(swapped, 200).strategies
    assert np.max(np.abs(a[0].positions - b[2].positions)) < 1e-12
    assert np.max(np.abs(a[2].positions - b[0].positions)) < 1e-12


def test_stiff_horizon_global_solve():
    # growth * T ~ 87 overflows single shooting; the global branch must
    # still reproduce the closed form at machine precision
    problem = make_problem(lam=0.05, gamma=1.0, sigma=1.0, alphas=(2.0, 2.0),
                           x0=(1.0, 2.0), T=4.0)
    sol = solve(problem, 400)
    reference = closed_form.equal_alpha_finite(problem.market, problem.agents, 4.0)
    grid = sol.strategies[0].grid
    for s, ref in zip(sol.strategies, reference):
        assert np.max(np.abs(s.positions - ref.position(grid))) < 1e-12
    assert bvp.residual_report(sol.strategies, problem).relative < 1e-12


def test_stiff_horizon_with_drift():
    # same stiff spectrum plus forcing on the global route: the exact
    # per-interval forcing must keep the node values at machine precision
    problem = make_problem(lam=0.05, gamma=1.0, sigma=1.0, alphas=(2.0, 2.0),
                           x0=(1.0, 2.0), T=4.0, drift=DriftSpec.constant(0.4))
    sol = solve(problem, 400)
    grid = sol.strategies[0].grid
    want = manufactured_solution(problem.market, (2.0, 2.0), (1.0, 2.0), 0.4, 4.0, grid)
    for i, s in enumerate(sol.strategies):
        assert np.max(np.abs(s.positions - want[i])) < 1e-12


def dense_global_system(E, steps, x_left, n_steps):
    """Block-by-block dense reference for bvp._global_system."""
    m = E.shape[0]
    n = m // 2
    size = (n_steps + 1) * m
    A = np.zeros((size, size))
    rhs = np.zeros(size)
    A[:n, :n] = np.eye(n)
    rhs[:n] = x_left
    for k in range(n_steps):
        r = n + k * m
        A[r:r + m, k * m:(k + 1) * m] = -E
        A[r:r + m, (k + 1) * m:(k + 2) * m] = np.eye(m)
        rhs[r:r + m] = steps[k]
    A[size - n:, n_steps * m:n_steps * m + n] = np.eye(n)
    return A, rhs


@pytest.mark.parametrize("n, n_steps", [(3, 9), (10, 37)])
def test_global_system_matches_block_reference(n, n_steps):
    alphas = np.linspace(0.4, 1.6, n)
    problem = make_problem(lam=0.05, alphas=alphas, x0=np.linspace(-1.0, 2.0, n), T=3.0)
    E = expm(bvp.assemble(problem).matrix * (problem.T / n_steps))
    E[-1, 0] = 0.0  # an exact zero must not be stored
    steps = np.random.default_rng(n).normal(size=(n_steps, 2 * n))
    A = bvp._global_system(E, n_steps)
    A_ref, rhs_ref = dense_global_system(E, steps, problem.x0, n_steps)
    assert A.format == "csc" and A.has_sorted_indices
    assert np.array_equal(A.toarray(), A_ref)
    assert A.nnz == np.count_nonzero(A_ref)

    Z = bvp._global_route(E, n_steps, problem.x0, steps)
    want = np.linalg.solve(A_ref, rhs_ref).reshape(n_steps + 1, 2 * n)
    assert np.max(np.abs(Z - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# node rates
# ---------------------------------------------------------------------------


def test_node_rates_are_exact():
    # the strategies carry the rate block of the solved node states, so the
    # rates are grid-independent and match the closed form, end nodes included
    stiff = make_problem(lam=0.02, alphas=(0.5, 1.0, 1.8), x0=(1.0, 2.0, -1.0), T=8.0)
    coarse = np.array([s.rates for s in solve(stiff, 400).strategies])
    fine = np.array([s.rates for s in solve(stiff, 1600).strategies])
    assert np.max(np.abs(coarse - fine[:, ::4])) <= 1e-12 * np.max(np.abs(coarse))

    problem = make_problem()
    sol = solve(problem, 400)
    grid = sol.strategies[0].grid
    reference = [ref.rate(grid) for ref in
                 closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)]
    got = np.array([s.rates for s in sol.strategies])
    assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))


# ---------------------------------------------------------------------------
# residual report
# ---------------------------------------------------------------------------


def bump_node(strategies, field):
    s = strategies[0]
    values = {"positions": s.positions.copy(), "rates": s.rates.copy()}
    values[field][200] += 1e-3
    return [GridStrategy(grid=s.grid, **values), strategies[1]]


@pytest.mark.parametrize("corrupt", [
    lambda strategies: bump_node(strategies, "positions"),
    lambda strategies: bump_node(strategies, "rates"),
    lambda strategies: strategies[::-1],
], ids=["bumped_position", "bumped_rate", "swapped_agents"])
def test_residual_detects_corruption(corrupt):
    # unequal alphas, so that swapped paths solve the wrong equations
    problem = make_problem(alphas=(0.4, 1.3))
    sol = solve(problem, 400)
    clean = bvp.residual_report(sol.strategies, problem).relative
    dirty = bvp.residual_report(corrupt(list(sol.strategies)), problem).relative
    assert clean < 1e-12
    assert dirty > 1e-6


def test_grid_residual_reads_every_interval():
    problem = make_problem()
    sol = solve(problem, 400)
    assert bvp.residual_report(sol.strategies, problem).n_probes == 400
    # exponential-sum members are sampled at the grid nodes
    exact = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    mixed = bvp.residual_report([sol.strategies[0], exact[1]], problem)
    assert mixed.n_probes == 400 and mixed.relative < 1e-12
    with pytest.raises(GridMismatch):  # the grid must span the problem's horizon
        bvp.residual_report(sol.strategies, make_problem(T=2.5))


def test_residual_report_counts_probes():
    problem = make_problem()
    strategies = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    report = bvp.residual_report(strategies, problem, n_probes=73)
    assert report.n_probes == 73
    assert report.relative < 1e-12
    d = report.to_dict()
    assert {"max_residual", "scale", "relative"} <= set(d)


# ---------------------------------------------------------------------------
# sampled drift between the nodes
# ---------------------------------------------------------------------------


def node_gap(problem, n_steps, factor):
    """max|X_N - X_{factor N}| at the shared nodes over max(1, max|X_N|)."""
    coarse = np.array([s.positions for s in solve(problem, n_steps).strategies])
    fine = np.array([s.positions for s in solve(problem, factor * n_steps).strategies])
    return np.max(np.abs(coarse - fine[:, ::factor])) / max(1.0, np.max(np.abs(coarse)))


@pytest.mark.parametrize("n_steps", [8, 13])
def test_sampled_drift_is_grid_independent(n_steps):
    # kinks every 0.1 fall between the nodes of the coarse grid and on the
    # nodes of the x50 finer one; the coarse intervals split at them
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 2.0, 21)
    rough = DriftSpec.sampled(ts, rng.uniform(-1.0, 1.0, ts.size))
    problem = make_problem(alphas=(0.3, 1.1), drift=rough)
    growth = np.max(np.linalg.eigvals(bvp.assemble(problem).matrix).real)
    assert growth * problem.T <= 16.0  # shooting route
    assert node_gap(problem, n_steps, 50) <= 1e-12


def test_knots_on_nodes_add_no_exponentials(monkeypatch):
    # T k / 40 misses the nodes j T / 400 by rounding for some k; such knots
    # are on the nodes, so no interval splits
    T = 1.3
    ts = np.array([T * k / 40 for k in range(40)] + [T])
    problem = make_problem(alphas=(0.3, 1.1), T=T, drift=DriftSpec.sampled(ts, np.sin(ts)))
    shapes = []
    real = bvp.expm
    monkeypatch.setattr(bvp, "expm", lambda A: shapes.append(A.shape) or real(A))
    solve(problem, 400)
    assert shapes == [(6, 6), (4, 4)]  # the step's block exponential, e^{M T}


def test_stiff_sampled_drift_is_grid_independent():
    rng = np.random.default_rng(11)
    ts = np.sort(np.concatenate([[0.0, 8.0], rng.uniform(0.0, 8.0, 35)]))
    drift = DriftSpec.sampled(ts, rng.uniform(-1.0, 1.0, ts.size))
    problem = make_problem(lam=0.02, alphas=(0.5, 1.0, 1.8), x0=(1.0, 2.0, -1.0), T=8.0,
                           drift=drift)
    growth = np.max(np.linalg.eigvals(bvp.assemble(problem).matrix).real)
    assert growth * problem.T > 16.0  # global route
    assert node_gap(problem, 400, 4) <= 1e-12


# ---------------------------------------------------------------------------
# infinite horizon
# ---------------------------------------------------------------------------


def test_two_player_infinite_residual_and_boundaries():
    market = MarketParams(lam=2.0, gamma=0.1, sigma=1.0, s0=0.0)
    agents = [AgentSpec(5.0, 0.33), AgentSpec(5.0, 0.66)]
    problem = validate_problem(market, agents, Horizon.infinite())
    strategies = closed_form.two_player_infinite(market, agents[0], agents[1])[:2]
    report = bvp.residual_report(strategies, problem)
    assert report.relative < 1e-12
    for s, a in zip(strategies, agents):
        assert s.position(0.0) == pytest.approx(a.x0, abs=1e-12)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_solve_finite_validates_inputs():
    problem = make_problem()
    system = bvp.assemble(problem)
    with pytest.raises(InvalidParam):
        bvp.solve_finite(system, [1.0], 2.0, 400)  # wrong x0 length
    with pytest.raises(InvalidParam):
        bvp.solve_finite(system, problem.x0, -1.0, 400)
    with pytest.raises(InvalidParam):
        bvp.solve_finite(system, problem.x0, 2.0, 4)
