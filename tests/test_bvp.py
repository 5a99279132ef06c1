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
from scipy.linalg import block_diag, expm

from liqgames import analysis, bvp, closed_form
from liqgames.errors import HorizonMismatch, InvalidParam, OutOfDomain
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


def node_states(problem, n_steps):
    """(2n, N + 1) solved node states: every agent's inventories, then rates."""
    sol = solve(problem, n_steps)
    return np.array([s.positions for s in sol.strategies] + [s.rates for s in sol.strategies])


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
    # growth * T ~ 87: a forward march of every mode would grow rounding by
    # e^87; marched in their own directions they reproduce the closed form
    problem = make_problem(lam=0.05, gamma=1.0, sigma=1.0, alphas=(2.0, 2.0),
                           x0=(1.0, 2.0), T=4.0)
    sol = solve(problem, 400)
    reference = closed_form.equal_alpha_finite(problem.market, problem.agents, 4.0)
    grid = sol.strategies[0].grid
    for s, ref in zip(sol.strategies, reference):
        assert np.max(np.abs(s.positions - ref.position(grid))) < 1e-12
    assert bvp.residual_report(sol.strategies, problem).relative < 1e-12


def test_stiff_horizon_with_drift():
    # same stiff spectrum plus forcing, forward and backward: the exact
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
    # defect 4e-10); no march of the decoupled solve grows past about e
    problem = make_problem(lam=0.3, alphas=(0.5, 1.0, 1.8), x0=(1.0, 2.0, -1.0), T=3.0,
                           drift=DriftSpec.constant(0.3))
    growth = np.max(np.linalg.eigvals(bvp.assemble(problem)[0]).real)
    assert 12.0 < growth * problem.T < 16.0
    sol = solve(problem, 400)
    assert sol.terminal_defect <= 1e-13 * np.max(np.abs(problem.x0))
    assert bvp.residual_report(sol.strategies, problem).relative <= 1e-12


def dense_global_system(P):
    """Dense system of W_{j+1} = P_j W_j + f_j over K steps, inventories pinned at both ends."""
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


def kinked_drift(T, n_knots, seed):
    # knots at random times, so most fall strictly inside intervals
    rng = np.random.default_rng(seed)
    ts = np.sort(np.concatenate([[0.0, T], rng.uniform(0.0, T, n_knots)]))
    return DriftSpec.sampled(ts, rng.uniform(-1.0, 1.0, ts.size))


@pytest.mark.parametrize("n, lam, T, n_steps", [
    (3, 1.0, 2.0, 40),
    (10, 0.05, 3.0, 37),
    (3, 0.05, 3.0, 15),
])
def test_solve_finite_matches_dense_node_system(n, lam, T, n_steps):
    # the reference solves the exact interval map of M itself at every node,
    # with no decoupling: X_0 = x0, Z_{k+1} = E Z_k + s_k, X_N = 0
    problem = make_problem(lam=lam, alphas=np.linspace(0.4, 1.6, n),
                           x0=np.linspace(-1.0, 2.0, n), T=T, drift=kinked_drift(T, 9, n_steps))
    M, u = bvp.assemble(problem)
    E, p1, p2 = bvp._propagators(M, u, T / n_steps)
    steps = bvp._forcing_steps(M, u, problem.market.drift, T, n_steps, p1, p2)
    A_ref = dense_global_system(np.broadcast_to(E, (n_steps, 2 * n, 2 * n)))
    rhs = np.concatenate([problem.x0, steps.ravel(), np.zeros(n)])
    want = np.linalg.solve(A_ref, rhs).reshape(n_steps + 1, 2 * n)
    Z = node_states(problem, n_steps).T
    assert np.max(np.abs(Z - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n_steps", [1, 13, 15, 40, 41])
def test_lockstep_march_matches_sequential_march(n_steps):
    # blocks of ceil(sqrt(N)) steps: one of 1 (mapped by G itself), 4 + 4 +
    # 4 + 1, 4 + 4 + 4 + 3, five of 7 + 5, five of 7 + 6. The reference
    # marches every node one after another, from 0 and from I for the end
    # state, then again from the solved start
    problem = make_problem(alphas=(0.5, 1.0, 1.8), x0=(1.0, 2.0, -1.0))
    M = bvp.assemble(problem)[0]
    m, n, T = M.shape[0], problem.n, problem.T
    D, C, k = bvp._split(M, T)
    assert 0 < k < m  # both marches run
    steps = np.random.default_rng(n_steps).normal(size=(n_steps, m))
    Ch = C * (T / n_steps)
    G = expm(Ch)
    W = bvp._march(D, k, Ch, G, steps, problem.x0, n_steps)

    p, H = np.zeros(m), np.eye(m)
    for s in steps:
        p, H = G @ p + s, G @ H
    # y_0 = (w_f(0), w_b(T)); w(0) = (y_0 forward, y_N backward), w(T) the rest
    Pf, Pb = np.diag(np.arange(m) < k).astype(float), np.diag(np.arange(m) >= k).astype(float)
    Dx = D[:n]
    A = np.vstack([Dx @ (Pf + Pb @ H), Dx @ (Pf @ H + Pb)])
    y = np.linalg.solve(A, np.concatenate([problem.x0 - Dx @ Pb @ p, -Dx @ Pf @ p]))
    Y = [y]
    for s in steps:
        Y.append(G @ Y[-1] + s)
    Y = np.array(Y)
    w = np.hstack([Y[:, :k], Y[::-1, k:]])  # the backward part runs from node N down
    assert np.max(np.abs(W - w)) <= 1e-12 * np.max(np.abs(w))


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
# the continuous solution between nodes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam, T", [(1.0, 2.0), (1e-3, 2000.0)], ids=["mild", "very_stiff"])
def test_one_interval_solution_matches_closed_form_between_nodes(lam, T):
    problem = make_problem(lam=lam, alphas=(0.8, 0.8, 0.8), x0=(1.0, 2.0, -1.0), T=T)
    sol = bvp.solve_finite(problem, 1)
    reference = closed_form.equal_alpha_finite(problem.market, problem.agents, T)
    for t in T * np.array([1e-4, 0.137, 0.5, 0.731, 0.9999]):
        want = np.array([ref.position(t) for ref in reference])
        assert np.max(np.abs(sol.positions(t) - want)) <= 1e-12 * np.max(np.abs(problem.x0))


@pytest.mark.parametrize("drift", [None, DriftSpec.constant(0.3), kinked_drift(2.0, 9, 5)],
                         ids=["zero", "constant", "sampled"])
def test_one_interval_and_node_solutions_agree(drift):
    # one interval and 40: the same states at both ends, rates included, and
    # the continuous solution of the 40-node march passes through its nodes
    problem = make_problem(alphas=(0.5, 1.0, 1.8), x0=(1.0, 2.0, -1.0), drift=drift)
    n = problem.n
    one = bvp.solve_finite(problem, 1)
    nodes = bvp.solve_finite(problem, 40)
    grid = solve(problem, 40)
    Z = np.array([s.positions for s in grid.strategies] + [s.rates for s in grid.strategies]).T
    scale = np.max(np.abs(Z))
    assert np.max(np.abs(one.Z[[0, -1], n:] - Z[[0, -1], n:])) <= 1e-12 * scale
    assert np.array_equal(one.positions(0.0), problem.x0)
    assert np.array_equal(one.positions(2.0), np.zeros(n))
    assert np.abs(one.Z[-1, :n]).max() <= 1e-12 * scale
    for t, z in zip(nodes.grid[1:-1], nodes.Z[1:-1]):
        assert np.max(np.abs(nodes.positions(t) - z[:n])) <= 1e-13 * scale


def test_continuous_solution_domain_and_ends():
    problem = make_problem(alphas=(0.4, 1.3), drift=DriftSpec.constant(0.3))
    sol = bvp.solve_finite(problem, 1)
    assert np.array_equal(sol.positions(0.0), problem.x0)
    # exactly zero at T and up to the rounding slack past it, as grid strategies
    for t in (2.0, 2.0 * (1 + 1e-13)):
        x = sol.positions(t)
        assert np.array_equal(x, np.zeros(2)) and not np.any(np.signbit(x))
    for bad in (-1e-9, 2.0 + 1e-6, math.nan):
        with pytest.raises(OutOfDomain):
            sol.positions(bad)
    with pytest.raises(InvalidParam):
        bvp.solve_finite(problem, 0)


# ---------------------------------------------------------------------------
# residual report
# ---------------------------------------------------------------------------


def bump_node(strategies, field):
    s = strategies[0]
    values = {"positions": s.positions.copy(), "rates": s.rates.copy()}
    values[field][200] += 1e-3
    return [GridStrategy(grid=s.grid, **values), strategies[1]]


@pytest.mark.parametrize("corrupt", [
    lambda strategies, problem: (bump_node(strategies, "positions"), problem),
    lambda strategies, problem: (bump_node(strategies, "rates"), problem),
    lambda strategies, problem: (strategies[::-1], problem),
    # solved under zero drift, checked against constant drift: a fresh map
    lambda strategies, problem: (strategies, make_problem(alphas=(0.4, 1.3),
                                                          drift=DriftSpec.constant(0.3))),
], ids=["bumped_position", "bumped_rate", "swapped_agents", "wrong_problem"])
def test_residual_detects_corruption(corrupt):
    # unequal alphas, so that swapped paths solve the wrong equations
    problem = make_problem(alphas=(0.4, 1.3))
    sol = solve(problem, 400)
    clean = bvp.residual_report(sol.strategies, problem).relative
    dirty = bvp.residual_report(*corrupt(list(sol.strategies), problem)).relative
    assert clean < 1e-12
    assert dirty > 1e-6


def test_grid_residual_certifies_the_split(monkeypatch):
    # the check reads the nodes in the solver's own decoupled coordinates, so
    # a basis that M does not leave invariant, shared by solve and check,
    # leaves no defect at the nodes: the split itself must be certified
    problem = make_problem(alphas=(0.4, 1.3))
    real = bvp._split

    def skewed(M, T):
        D, C, k = real(M, T)
        return D + 1e-6 * np.max(np.abs(D)), C, k

    monkeypatch.setattr(bvp, "_split", skewed)
    report = bvp.residual_report(solve(problem, 400).strategies, problem)
    assert report.max_residual / report.scale < 1e-12
    assert report.relative > 1e-7


def test_interval_map_is_read_only_and_kept_per_problem_object():
    problem = make_problem(alphas=(0.4, 1.3), drift=DriftSpec.constant(0.3))
    sol = solve(problem, 40)
    imap = sol.map
    assert bvp._decoupled(problem, 40) is imap  # the check reads the solve's map
    for name in ("M", "D", "C", "g", "G", "steps"):
        a = getattr(imap, name)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    # an equal problem is another object: its map is built afresh
    twin = make_problem(alphas=(0.4, 1.3), drift=DriftSpec.constant(0.3))
    fresh = bvp._decoupled(twin, 40)
    assert fresh is not imap
    assert np.array_equal(fresh.G, imap.G) and np.array_equal(fresh.steps, imap.steps)


def test_grid_residual_reads_every_interval():
    problem = make_problem()
    sol = solve(problem, 400)
    assert bvp.residual_report(sol.strategies, problem).n_probes == 400
    # exponential-sum members are sampled at the grid nodes
    exact = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    mixed = bvp.residual_report([sol.strategies[0], exact[1]], problem)
    assert mixed.n_probes == 400 and mixed.relative < 1e-12
    with pytest.raises(HorizonMismatch):  # the grid must span the problem's horizon
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
    eps, s = 0.5, strategies[0]
    strategies[0] = ExpSumStrategy(coefs=[*s.coefs, eps, -eps], rates=[*s.rates, -1e4, -2e4],
                                   anchors=[*s.anchors, 0.0, 0.0], horizon=s.horizon)
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
    """max|Z_N - Z_{factor N}| at the shared nodes over max(1, max|Z_N|), rates included."""
    coarse, fine = node_states(problem, n_steps), node_states(problem, factor * n_steps)
    return np.max(np.abs(coarse - fine[:, ::factor])) / max(1.0, np.max(np.abs(coarse)))


@pytest.mark.parametrize("n_steps", [8, 13])
def test_sampled_drift_is_grid_independent(n_steps):
    # kinks every 0.1 fall between the nodes of the coarse grid and on the
    # nodes of the x50 finer one; the coarse intervals split at them
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 2.0, 21)
    rough = DriftSpec.sampled(ts, rng.uniform(-1.0, 1.0, ts.size))
    problem = make_problem(alphas=(0.3, 1.1), drift=rough)
    assert node_gap(problem, n_steps, 50) <= 1e-12


def test_knots_on_nodes_add_no_exponentials(monkeypatch):
    # T k / 40 misses the nodes j T / 400 by rounding for some k; such knots
    # are on the nodes, also as T - T k / 40 for the backward march, so no
    # interval splits
    T = 1.3
    ts = np.array([T * k / 40 for k in range(40)] + [T])
    problem = make_problem(alphas=(0.3, 1.1), T=T, drift=DriftSpec.sampled(ts, np.sin(ts)))
    shapes = []
    real = bvp.expm
    monkeypatch.setattr(bvp, "expm", lambda A: shapes.append(A.shape) or real(A))
    solve(problem, 400)
    # the decoupled step's block exponential and e^{C L dt} of the 20-step
    # blocks; a split interval would add one per piece
    assert shapes == [(6, 6), (4, 4)]


def test_stiff_sampled_drift_is_grid_independent():
    rng = np.random.default_rng(11)
    ts = np.sort(np.concatenate([[0.0, 8.0], rng.uniform(0.0, 8.0, 35)]))
    drift = DriftSpec.sampled(ts, rng.uniform(-1.0, 1.0, ts.size))
    problem = make_problem(lam=0.02, alphas=(0.5, 1.0, 1.8), x0=(1.0, 2.0, -1.0), T=8.0,
                           drift=drift)
    assert node_gap(problem, 400, 4) <= 1e-12


def test_very_stiff_equal_alpha_matches_closed_form():
    # growth * dt ~ 5000: e^{M dt} overflows, e^{A_f dt} and e^{-A_b dt} do not
    problem = make_problem(lam=1e-3, alphas=(0.8, 0.8, 0.8), x0=(1.0, 2.0, -1.0), T=2000.0)
    sol = solve(problem, 400)
    reference = closed_form.equal_alpha_finite(problem.market, problem.agents, 2000.0)
    grid = sol.strategies[0].grid
    tol = 1e-12 * np.max(np.abs(problem.x0))
    for s, ref in zip(sol.strategies, reference):
        assert np.max(np.abs(s.positions - ref.position(grid))) <= tol


def test_very_stiff_constant_drift_is_grid_independent():
    # growth * dt ~ 75000 at N = 400
    problem = make_problem(lam=1e-4, alphas=(0.5, 1.0, 1.8), x0=(1.0, 2.0, -1.0), T=5000.0,
                           drift=DriftSpec.constant(0.3))
    assert node_gap(problem, 400, 10) <= 1e-11


def test_expm_is_exact_on_close_triangular_diagonals():
    # scipy's expm updates the squared diagonals of triangular input in closed
    # form, which cancels here (error 1.3e-4); a similarity makes it dense
    A = block_diag([[0.0, 0.0211, -0.7072], [0.0, -1.33e-15, -0.6196], [0.0, 0.0, -5.849]],
                   [[-17.526]]) * 6.2566
    Q = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
    want = Q.T @ expm(Q @ A @ Q.T) @ Q
    assert np.max(np.abs(bvp._expm(A) - want)) <= 1e-13


def test_risk_neutral_agent_on_a_long_horizon_is_grid_independent():
    # a Schur block with diagonal entries 1e-15 apart; raw expm on it moved
    # the nodes by 0.31 between N = 400 and 800
    problem = make_problem(lam=0.28, gamma=0.96, sigma=0.48, alphas=(0.0, 1.85),
                           x0=(-0.7, -0.4), T=1800.0)
    assert node_gap(problem, 400, 2) <= 1e-11


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
    coarse = bvp.solve_finite(make_problem(), 4)  # any grid solves
    with pytest.raises(InvalidParam):  # but a GridStrategy needs 8 intervals
        coarse.strategies
    for bad in (0, -3, 400.0, "400", None):
        with pytest.raises(InvalidParam):
            bvp.solve_finite(make_problem(), bad)
    with pytest.raises(InvalidParam):  # the bvp route passes grid_steps through
        analysis.compute_equilibrium(make_problem(alphas=(0.4, 1.3)), 400.0)
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0)
    infinite = validate_problem(market, [AgentSpec(1.0, 0.5)], Horizon.infinite())
    with pytest.raises(HorizonMismatch):
        bvp.solve_finite(infinite)
