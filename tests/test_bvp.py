"""Shooting solver for the coupled equilibrium boundary value problem.

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
from liqgames.errors import InvalidParam, QuadratureUnderResolved, UnsupportedCase
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


def solve(problem, n_steps=400, **kwargs):
    system = bvp.assemble(problem)
    return bvp.solve_finite(system, problem.x0, problem.T, n_steps,
                            problem=problem, **kwargs)


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


def test_solve_and_lstsq_agree():
    problem = make_problem(alphas=(0.3, 1.1), x0=(1.5, -0.7))
    a = solve(problem, 200, method="solve").strategies
    b = solve(problem, 200, method="lstsq").strategies
    for sa, sb in zip(a, b):
        assert np.max(np.abs(sa.positions - sb.positions)) < 1e-9


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
    # same stiff spectrum plus forcing: quadrature bookkeeping runs in a
    # damped frame, the node values must still match the exact solution
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
    A, rhs = bvp._global_system(E, steps, problem.x0, n_steps)
    A_ref, rhs_ref = dense_global_system(E, steps, problem.x0, n_steps)
    assert A.format == "csc" and A.has_sorted_indices
    assert np.array_equal(A.toarray(), A_ref)
    assert A.nnz == np.count_nonzero(A_ref)
    assert np.array_equal(rhs, rhs_ref)

    Z = bvp._global_solve(E, steps, problem.x0, n_steps)
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


# ---------------------------------------------------------------------------
# scalar reductions
# ---------------------------------------------------------------------------


def test_scalar_aggregate_matches_sum():
    problem = make_problem()
    strategies = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    total = float(np.sum(problem.x0))
    pos, _ = bvp.solve_scalar("aggregate", problem.market, 0.8, 2,
                              None, total, 2.0, 400)
    grid = np.linspace(0.0, 2.0, 401)
    want = strategies[0].position(grid) + strategies[1].position(grid)
    assert np.max(np.abs(pos - want)) < 1e-10


def test_scalar_single_kind_deviation_mode():
    # alpha sigma^2 X + gamma X' - lam X'' = 0 with gamma = 0 decays at
    # sqrt(alpha sigma^2 / lam); check against the plain sinh solution
    market = MarketParams(lam=0.5, gamma=0.0, sigma=1.0, s0=0.0)
    pos, _ = bvp.solve_scalar("single", market, 1.0, 1, None, 1.0, 2.0, 200)
    grid = np.linspace(0.0, 2.0, 201)
    nu = math.sqrt(1.0 / 0.5)
    want = np.sinh(nu * (2.0 - grid)) / math.sinh(nu * 2.0)
    assert np.max(np.abs(pos - want)) < 1e-12
    with pytest.raises(InvalidParam):
        bvp.solve_scalar("nonsense", market, 1.0, 1, None, 1.0, 2.0, 200)


def test_reduction_route_matches_direct():
    problem = make_problem(drift=DriftSpec.constant(0.5))
    direct = solve(problem, 400)
    reduced = bvp.solve_finite_by_reduction(problem, 400)
    for a, b in zip(direct.strategies, reduced.strategies):
        assert np.max(np.abs(a.positions - b.positions)) < 1e-9


def test_reduction_rejects_unequal_alphas():
    problem = make_problem(alphas=(0.3, 1.1))
    with pytest.raises(UnsupportedCase):
        bvp.solve_finite_by_reduction(problem, 200)


# ---------------------------------------------------------------------------
# infinite horizon
# ---------------------------------------------------------------------------


def test_solve_infinite_equal_alpha():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0)
    agents = [AgentSpec(1.0, 1.0), AgentSpec(2.0, 1.0)]
    problem = validate_problem(market, agents, Horizon.infinite())
    system = bvp.assemble(problem)
    strategies = bvp.solve_infinite(system, problem.x0, problem)
    reference = closed_form.equal_alpha_infinite(market, agents)
    t = np.linspace(0.0, 15.0, 61)
    for s, ref in zip(strategies, reference):
        assert np.max(np.abs(s.position(t) - ref.position(t))) < 1e-12


def test_solve_infinite_two_player_heterogeneous():
    market = MarketParams(lam=2.0, gamma=0.1, sigma=1.0, s0=0.0)
    agents = [AgentSpec(5.0, 0.33), AgentSpec(5.0, 0.66)]
    problem = validate_problem(market, agents, Horizon.infinite())
    system = bvp.assemble(problem)
    strategies = bvp.solve_infinite(system, problem.x0, problem)
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
