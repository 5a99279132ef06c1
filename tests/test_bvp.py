"""Grid solver for the coupled equilibrium boundary value problem.

The convergence test uses a manufactured solution derived here from scratch:
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
from liqgames.errors import InvalidParam, QuadratureUnderResolved
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
    return bvp.solve_finite(system, problem.x0, problem.T, n_steps, problem=problem)


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


def test_constant_drift_convergence_order():
    b = 0.6
    problem = make_problem(lam=0.9, gamma=0.5, sigma=1.2, alphas=(0.7, 0.7),
                           x0=(1.5, -0.4), T=1.8, drift=DriftSpec.constant(b))
    errs = []
    for n_steps in (50, 100, 200):
        sol = solve(problem, n_steps)
        grid = sol.strategies[0].grid
        want = manufactured_solution(problem.market, problem.alphas, problem.x0,
                                     b, 1.8, grid)
        got = np.array([s.positions for s in sol.strategies])
        errs.append(np.max(np.abs(got - want)))
    # at least second order; the per-step Simpson kernel is actually fourth
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


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
    # residual probes difference the grid, so (growth * dt)^4 limits them here
    assert sol.residuals.relative < 1e-6


def test_stiff_horizon_with_drift():
    # same stiff spectrum plus forcing: the drift check re-runs the global
    # solve on the quadrature defect, the node values must still match the
    # exact solution
    problem = make_problem(lam=0.05, gamma=1.0, sigma=1.0, alphas=(2.0, 2.0),
                           x0=(1.0, 2.0), T=4.0, drift=DriftSpec.constant(0.4))
    sol = solve(problem, 400)
    grid = sol.strategies[0].grid
    want = manufactured_solution(problem.market, (2.0, 2.0), (1.0, 2.0), 0.4, 4.0, grid)
    for i, s in enumerate(sol.strategies):
        assert np.max(np.abs(s.positions - want[i])) < 1e-8


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

    Z = bvp._global_route(E, n_steps)(problem.x0, steps)
    want = np.linalg.solve(A_ref, rhs_ref).reshape(n_steps + 1, 2 * n)
    assert np.max(np.abs(Z - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# residual report
# ---------------------------------------------------------------------------


def test_residual_detects_corruption():
    problem = make_problem()
    sol = solve(problem, 400)
    clean = bvp.residual_report(sol.strategies, problem).relative
    grid = sol.strategies[0].grid
    bad_positions = sol.strategies[0].positions.copy()
    bad_positions[200] += 1e-3
    corrupted = [GridStrategy(grid=grid, positions=bad_positions), sol.strategies[1]]
    dirty = bvp.residual_report(corrupted, problem).relative
    assert clean < 1e-8
    assert dirty > 1e3 * clean


def test_residual_report_counts_probes():
    problem = make_problem()
    strategies = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    report = bvp.residual_report(strategies, problem, n_probes=73)
    assert report.n_probes == 73
    assert report.relative < 1e-12
    d = report.to_dict()
    assert {"max_residual", "scale", "relative"} <= set(d)


# ---------------------------------------------------------------------------
# quadrature safety
# ---------------------------------------------------------------------------


def test_underresolved_sampled_drift_raises():
    # kinks every 0.1 sit between the nodes of a coarse grid but land on
    # the nodes of the x20 finer one, so only the coarse solve must raise
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 2.0, 21)
    rough = DriftSpec.sampled(ts, rng.uniform(-1.0, 1.0, ts.size))
    problem = make_problem(alphas=(0.3, 1.1), drift=rough)
    with pytest.raises(QuadratureUnderResolved):
        solve(problem, 8)
    sol = solve(problem, 400)
    assert sol.quadrature_error < 1e-8


def richardson_difference(problem, n_steps):
    """max|X_N - X_2N| at the shared nodes over max(1, max|X_N|), by brute force."""
    coarse = np.array([s.positions for s in solve(problem, n_steps).strategies])
    fine = np.array([s.positions for s in solve(problem, 2 * n_steps).strategies])
    return np.max(np.abs(coarse - fine[:, ::2])) / max(1.0, np.max(np.abs(coarse)))


def test_quadrature_error_measures_the_delivered_solution():
    # the estimate re-solves only the quadrature defect, yet must equal the
    # gap between the N-step and 2N-step solutions on both routes
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 2.0, 21)
    rough = DriftSpec.sampled(ts, rng.uniform(-1.0, 1.0, ts.size))
    mild = make_problem(alphas=(0.3, 1.1), drift=rough)
    stiff = make_problem(lam=0.05, alphas=(0.5, 2.0), x0=(1.0, 2.0), T=4.0,
                         drift=DriftSpec.constant(0.4))
    growth = np.max(np.linalg.eigvals(bvp.assemble(stiff).matrix).real)
    assert growth * stiff.T > 16.0  # global route
    for problem, n_steps, low in ((mild, 40, 1e-9), (stiff, 400, 1e-10)):
        estimate = solve(problem, n_steps).quadrature_error
        assert low < estimate < 1e-8
        assert estimate == pytest.approx(richardson_difference(problem, n_steps), rel=1e-2)


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
