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
from liqgames.errors import GridMismatch, HorizonMismatch, InvalidParam
from liqgames.model import (
    AgentSpec,
    DriftSpec,
    ExpSumStrategy,
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
    return bvp.solve_finite(problem, n_steps)


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
    # growth * T ~ 87 would overflow single shooting; split into segments,
    # the solve must still reproduce the closed form at machine precision
    problem = make_problem(lam=0.05, gamma=1.0, sigma=1.0, alphas=(2.0, 2.0),
                           x0=(1.0, 2.0), T=4.0)
    sol = solve(problem, 400)
    reference = closed_form.equal_alpha_finite(problem.market, problem.agents, 4.0)
    grid = sol.strategies[0].grid
    for s, ref in zip(sol.strategies, reference):
        assert np.max(np.abs(s.positions - ref.position(grid))) < 1e-12
    assert bvp.residual_report(sol.strategies, problem).relative < 1e-12


def test_stiff_horizon_with_drift():
    # same stiff spectrum plus forcing, over several segments: the exact
    # per-interval forcing must keep the node values at machine precision
    problem = make_problem(lam=0.05, gamma=1.0, sigma=1.0, alphas=(2.0, 2.0),
                           x0=(1.0, 2.0), T=4.0, drift=DriftSpec.constant(0.4))
    sol = solve(problem, 400)
    grid = sol.strategies[0].grid
    want = manufactured_solution(problem.market, (2.0, 2.0), (1.0, 2.0), 0.4, 4.0, grid)
    for i, s in enumerate(sol.strategies):
        assert np.max(np.abs(s.positions - want[i])) < 1e-12


def test_moderate_growth_horizon_solves_to_rounding():
    # growth * T ~ 13: single shooting amplified rounding by e^13 here (terminal
    # defect 4e-10); segments bound the amplification by e^4
    problem = make_problem(lam=0.3, alphas=(0.5, 1.0, 1.8), x0=(1.0, 2.0, -1.0), T=3.0,
                           drift=DriftSpec.constant(0.3))
    growth = np.max(np.linalg.eigvals(bvp.assemble(problem)[0]).real)
    assert 12.0 < growth * problem.T < 16.0
    sol = solve(problem, 400)
    assert sol.terminal_defect <= 1e-13 * np.max(np.abs(problem.x0))
    assert bvp.residual_report(sol.strategies, problem).relative <= 1e-12


def dense_global_system(P):
    """Block-by-block dense reference for bvp._global_system."""
    K, m, _ = P.shape
    n = m // 2
    size = (K + 1) * m
    A = np.zeros((size, size))
    A[:n, :n] = np.eye(n)
    for j in range(K):
        r = n + j * m
        A[r:r + m, j * m:(j + 1) * m] = -P[j]
        A[r:r + m, (j + 1) * m:(j + 2) * m] = np.eye(m)
    A[size - n:, K * m:K * m + n] = np.eye(n)
    return A


@pytest.mark.parametrize("n, n_segments", [(3, 9), (10, 37)])
def test_global_system_matches_block_reference(n, n_segments):
    P = np.random.default_rng(n).normal(size=(n_segments, 2 * n, 2 * n))
    P[n_segments // 2, -1, 0] = 0.0  # an exact zero stays a zero
    ab, (kl, ku) = bvp._global_system(P)
    A_ref = dense_global_system(P)
    size = A_ref.shape[0]
    assert (kl, ku) == (3 * n - 1, n) and ab.shape == (2 * kl + ku + 1, size)
    i, j = np.indices(A_ref.shape)
    in_band = (i - j <= kl) & (j - i <= ku)
    A = np.zeros_like(A_ref)
    A[in_band] = ab[(kl + ku + i - j)[in_band], j[in_band]]
    assert np.array_equal(A, A_ref)  # so no entry of A_ref lies outside the band
    assert not ab[:kl].any()  # gbsv's fill-in rows start empty
    assert np.count_nonzero(ab) == np.count_nonzero(A_ref)  # nothing outside the matrix


@pytest.mark.parametrize("n, lam, T, n_steps, segments", [
    (3, 1.0, 2.0, 40, "root N"),
    (10, 0.05, 3.0, 37, "several"),
    (3, 0.05, 3.0, 15, "one per interval"),
])
def test_multiple_shooting_matches_dense_node_system(n, lam, T, n_steps, segments):
    problem = make_problem(lam=lam, alphas=np.linspace(0.4, 1.6, n),
                           x0=np.linspace(-1.0, 2.0, n), T=T)
    M = bvp.assemble(problem)[0]
    growth = np.max(np.linalg.eigvals(M).real)
    ends = bvp._segment_ends(growth, T, n_steps)
    lengths = np.diff(ends)
    assert ends[0] == 0 and ends[-1] == n_steps
    if segments == "root N":  # growth T within budget: ceil(sqrt(N)) intervals each
        assert lengths.tolist() == [7, 7, 7, 7, 7, 5]
    elif segments == "several":
        assert lengths[0] > 1 and lengths[-1] < lengths[0]  # with a remainder
    else:
        assert np.all(lengths == 1)
    E = expm(M * (T / n_steps))
    steps = np.random.default_rng(n_steps).normal(size=(n_steps, 2 * n))
    Z = bvp._multiple_shooting(M, E, T, ends, problem.x0, steps)
    A_ref = dense_global_system(np.broadcast_to(E, (n_steps, 2 * n, 2 * n)))
    rhs = np.concatenate([problem.x0, steps.ravel(), np.zeros(n)])
    want = np.linalg.solve(A_ref, rhs).reshape(n_steps + 1, 2 * n)
    assert np.max(np.abs(Z - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n_steps, layout", [
    (40, "one segment"),
    (41, "segment rule"),
    (15, "one per interval"),
])
def test_lockstep_march_matches_sequential_march(n_steps, layout):
    # the reference accumulates each segment's forcing and marches its
    # interior one node at a time, segment after segment
    problem = make_problem(alphas=(0.5, 1.0, 1.8), x0=(1.0, 2.0, -1.0))
    M = bvp.assemble(problem)[0]
    m, n, T = M.shape[0], problem.n, problem.T
    growth = np.max(np.linalg.eigvals(M).real)
    ends = {
        "one segment": np.array([0, n_steps]),
        "segment rule": bvp._segment_ends(growth, T, n_steps),
        "one per interval": np.arange(n_steps + 1),
    }[layout]
    if layout == "segment rule":  # prime N leaves a shorter last segment
        assert np.diff(ends).tolist() == [7, 7, 7, 7, 7, 6]
    E = expm(M * (T / n_steps))
    steps = np.random.default_rng(n_steps).normal(size=(n_steps, m))
    Z = bvp._multiple_shooting(M, E, T, ends, problem.x0, steps)

    props, forcing = [], []
    for a, b in zip(ends[:-1], ends[1:]):
        props.append(E if b - a == 1 else expm(M * (T * (b - a) / n_steps)))
        acc = np.zeros(m)
        for k in range(a, b):
            acc = E @ acc + steps[k]
        forcing.append(acc)
    rhs = np.concatenate([problem.x0, *forcing, np.zeros(n)])
    W = np.linalg.solve(dense_global_system(np.array(props)), rhs).reshape(-1, m)
    want = np.empty_like(Z)
    want[ends] = W
    for a, b, z in zip(ends[:-1], ends[1:], W):
        for k in range(a, b - 1):
            z = E @ z + steps[k]
            want[k + 1] = z
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
    report = bvp.residual_report(strategies, problem)
    assert report.n_probes == 4  # theta and rho modes, each anchored at 0 and at T
    assert report.relative < 1e-12
    d = report.to_dict()
    assert {"max_residual", "scale", "relative"} <= set(d)


def per_mode_residual(strategies, problem):
    """Every report field of the mode-by-mode check, one agent and mode at a time.

    Modes are taken in the report's order: by (rate, anchor), then the
    constant mode, which holds every rate-0 term and the drift.
    """
    m = problem.market
    n, T = problem.n, problem.T
    b = m.drift.value if m.drift.kind == "constant" else 0.0
    coefs = {}
    for i, s in enumerate(strategies):
        for c, r, a in zip(s.coefs, s.rates, s.anchors):
            if c != 0.0:
                key = (math.inf, 0.0) if r == 0.0 else (float(r), float(a))
                coefs.setdefault(key, [0.0] * n)[i] += float(c)
    if b != 0.0:
        coefs.setdefault((math.inf, 0.0), [0.0] * n)
    modes = sorted(coefs)
    max_res = scale = start_err = end_err = 0.0
    for i, agent in enumerate(problem.agents):
        res, parts, x_start, x_end = 0.0, [0.0] * 5, 0.0, 0.0
        for key in modes:
            r, a = (0.0, 0.0) if key[0] == math.inf else key
            c = coefs[key][i]
            others = sum(coefs[key]) - c
            terms = (
                agent.alpha * m.sigma**2 * c,
                -2.0 * m.lam * (r * r) * c,
                -b if r == 0.0 else 0.0,
                -m.gamma * r * others,
                -m.lam * (r * r) * others,
            )
            start = float(np.exp(-r * a))
            end = 0.0 if T is None else float(np.exp(r * (T - a)))
            peak = max(start, end)
            res += abs(sum(terms)) * peak
            parts = [p + abs(term) * peak for p, term in zip(parts, terms)]
            x_start += c * start
            x_end += c * end
        max_res = max(max_res, res)
        scale = max([scale] + parts)
        start_err = max(start_err, abs(x_start - agent.x0))
        end_err = max(end_err, abs(x_end))
    return {
        "max_residual": max_res,
        "scale": scale,
        "relative": max_res / scale,
        "boundary_start": start_err,
        "boundary_end": end_err,
        "n_probes": len(modes),
    }


@pytest.mark.parametrize("case", ["equal_alpha_n7_constant_drift", "het2inf"])
def test_exp_sum_residual_equals_per_agent_reference(case):
    market = MarketParams(lam=0.8, gamma=0.6, sigma=0.9, s0=10.0)
    if case == "het2inf":
        agents = [AgentSpec(1.0, 0.5), AgentSpec(2.0, 1.5)]
        problem = validate_problem(market, agents, Horizon.infinite())
        strategies = list(closed_form.two_player_infinite(market, *agents)[:2])
    else:
        agents = [AgentSpec(x, 0.7) for x in np.linspace(-1.0, 3.0, 7)]
        drifting = MarketParams(lam=0.8, gamma=0.6, sigma=0.9, s0=10.0,
                                drift=DriftSpec.constant(0.3))
        problem = validate_problem(drifting, agents, Horizon.finite(1.5))
        # the zero-drift equilibrium, so the drift leaves a real residual
        strategies = closed_form.equal_alpha_finite(market, agents, 1.5)
    report = bvp.residual_report(strategies, problem).to_dict()
    want = per_mode_residual(strategies, problem)
    assert report["max_residual"] > 0.0
    for field, value in want.items():
        assert report[field] == value, field


def test_exp_sum_residual_sees_a_fast_transient():
    # a defect that has decayed by t = 1e-3: the modes see it at any rate
    market = MarketParams(lam=0.8, gamma=0.6, sigma=0.9, s0=10.0)
    agents = [AgentSpec(1.0, 0.7), AgentSpec(2.0, 0.7)]
    problem = validate_problem(market, agents, Horizon.finite(2.0))
    strategies = closed_form.equal_alpha_finite(market, agents, 2.0)
    eps = 0.5
    transient = ExpSumStrategy(coefs=[eps, -eps], rates=[-1e4, -2e4], anchors=[0.0, 0.0],
                               horizon=Horizon.finite(2.0))
    strategies[0] = strategies[0].plus(transient)
    report = bvp.residual_report(strategies, problem)
    assert report.relative > 1e-6
    # the boundary values are right: only the residual can see the defect
    assert max(report.boundary_start, report.boundary_end) <= 1e-12


def test_residual_report_checks_the_strategy_horizon():
    market = MarketParams(lam=0.8, gamma=0.6, sigma=0.9, s0=10.0)
    agents = [AgentSpec(1.0, 0.7), AgentSpec(2.0, 0.7)]
    finite = validate_problem(market, agents, Horizon.finite(2.0))
    infinite_strategies = closed_form.equal_alpha_infinite(market, agents)
    with pytest.raises(HorizonMismatch):
        bvp.residual_report(infinite_strategies, finite)
    with pytest.raises(HorizonMismatch):
        bvp.residual_report(closed_form.equal_alpha_finite(market, agents, 2.5), finite)
    # an exponential-sum member of a grid profile is checked too
    grid = solve(finite, 64).strategies
    with pytest.raises(HorizonMismatch):
        bvp.residual_report([grid[0], infinite_strategies[1]], finite)


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
    growth = np.max(np.linalg.eigvals(bvp.assemble(problem)[0]).real)
    assert growth * problem.T <= bvp._SEGMENT_GROWTH  # one shooting segment
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
    growth = np.max(np.linalg.eigvals(bvp.assemble(problem)[0]).real)
    assert growth * problem.T > bvp._SEGMENT_GROWTH  # several shooting segments
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
    assert report.boundary_end == 0.0 and report.n_probes == 2  # two modes, both decaying
    for s, a in zip(strategies, agents):
        assert s.position(0.0) == pytest.approx(a.x0, abs=1e-12)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_solve_finite_validates_inputs():
    # a validated Problem fixes x0 and T > 0; the solver checks the rest
    with pytest.raises(InvalidParam):
        bvp.solve_finite(make_problem(), 4)
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0)
    infinite = validate_problem(market, [AgentSpec(1.0, 0.5)], Horizon.infinite())
    with pytest.raises(HorizonMismatch):
        bvp.solve_finite(infinite)
