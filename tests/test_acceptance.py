"""End-to-end acceptance gate.

Each test below checks one numbered shipping criterion and prints exactly one
PASS/FAIL line with the measured margin (run with `pytest -v -s` to see
them). Criteria 3 and 4 audit every equilibrium profile produced by the
earlier criteria, so the expensive collections are built once in
module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from liqgames import analysis, bvp, closed_form, oracle
from liqgames.model import (
    AgentSpec,
    DriftSpec,
    Horizon,
    MarketParams,
    validate_problem,
)


def _report(num, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def benchmark_problem():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = (AgentSpec(1.12, 0.8), AgentSpec(2.06, 0.8))
    return validate_problem(market, agents, Horizon.finite(2.0))


@pytest.fixture(scope="module")
def closed_vs_bvp_draws():
    """20 random equal-alpha zero-drift draws for each n in {1, 2, 3, 5}.

    Returns (problem, closed-form profile, grid solution) triples. Draws are
    resampled until theta_hat * T <= 12 so the mode content stays physical;
    the solver itself is expected to hold the gap bound on every draw.
    """
    rng = np.random.default_rng(2024)
    out = []
    for n in (1, 2, 3, 5):
        for _ in range(20):
            while True:
                lam = rng.uniform(0.1, 3.0)
                gamma = rng.uniform(0.0, 3.0)
                a_s2 = rng.uniform(0.1, 3.0)
                T = rng.uniform(0.5, 2.0)
                theta_hat = np.sqrt(gamma**2 + 4.0 * a_s2 * lam) / (2.0 * lam)
                if theta_hat * T <= 12.0:
                    break
            x = rng.uniform(-3.0, 3.0, n)
            market = MarketParams(lam=lam, gamma=gamma, sigma=1.0, s0=0.0)
            agents = tuple(AgentSpec(float(xi), a_s2) for xi in x)
            problem = validate_problem(market, agents, Horizon.finite(T))
            reference = closed_form.equal_alpha_finite(market, agents, T)
            sol = bvp.solve_finite(problem, 400)
            out.append((problem, reference, sol))
    return out


@pytest.fixture(scope="module")
def oracle_sets():
    """The benchmark two-trader set plus 10 random heterogeneous sets with drift."""
    rng = np.random.default_rng(77)
    sets = [benchmark_problem()]
    for k in range(10):
        n = 2 if k % 2 == 0 else 3
        lam = rng.uniform(0.3, 2.0)
        gamma = rng.uniform(0.0, 1.5)
        T = rng.uniform(1.0, 2.0)
        b = rng.uniform(-1.0, 1.0)
        alphas = rng.uniform(0.2, 2.0, n)
        x = rng.uniform(-3.0, 3.0, n)
        market = MarketParams(lam=lam, gamma=gamma, sigma=1.0, s0=0.0,
                              drift=DriftSpec.constant(float(b)))
        agents = tuple(AgentSpec(float(xi), float(a)) for xi, a in zip(x, alphas))
        sets.append(validate_problem(market, agents, Horizon.finite(T)))
    out = []
    for problem in sets:
        strategies, route = analysis.compute_equilibrium(problem, grid_steps=400)
        out.append((problem, strategies, route))
    return out


def test_criterion_01_closed_form_bvp_agreement(closed_vs_bvp_draws):
    worst = 0.0
    for problem, reference, sol in closed_vs_bvp_draws:
        grid = sol.strategies[0].grid
        gap = max(float(np.max(np.abs(s.positions - r.position(grid))))
                  for s, r in zip(sol.strategies, reference))
        bound = 1e-8 * max(1.0, float(np.max(np.abs(problem.x0))))
        worst = max(worst, gap / bound)
    _report(1, worst <= 1.0, f"worst sup gap = {worst:.3e} of the 1e-8 bound")


def test_criterion_02_oracle_agreement(oracle_sets):
    t0 = time.monotonic()
    worst_gap = 0.0
    worst_ratio = (np.inf, -np.inf)
    for problem, strategies, _route in oracle_sets:
        errs = []
        for n_steps in (100, 200, 400):
            game = oracle.DiscreteGame(problem, n_steps=n_steps)
            paths, report = oracle.iterate_nash(game)
            assert report.converged
            errs.append(float(np.max(oracle.compare(game, paths, strategies))))
        worst_gap = max(worst_gap, errs[1])
        for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
            worst_ratio = (min(worst_ratio[0], ratio), max(worst_ratio[1], ratio))
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-2 and 3.0 < worst_ratio[0] and worst_ratio[1] < 5.0 \
        and elapsed <= 60.0
    _report(2, ok, f"max N=200 gap = {worst_gap:.3e}, halving ratios in "
                   f"[{worst_ratio[0]:.2f}, {worst_ratio[1]:.2f}], {elapsed:.1f}s")


def test_criterion_03_optimality_residuals(closed_vs_bvp_draws, oracle_sets):
    worst_closed = 0.0
    worst_grid = 0.0
    for problem, reference, sol in closed_vs_bvp_draws:
        worst_closed = max(worst_closed,
                           bvp.residual_report(reference, problem).relative)
        worst_grid = max(worst_grid,
                         bvp.residual_report(sol.strategies, problem).relative)
    for problem, strategies, route in oracle_sets:
        rel = bvp.residual_report(strategies, problem).relative
        if route == "closed_form":
            worst_closed = max(worst_closed, rel)
        else:
            worst_grid = max(worst_grid, rel)
    ok = worst_closed <= 1e-9 and worst_grid <= 1e-6
    _report(3, ok, f"worst closed-form residual = {worst_closed:.3e}, "
                   f"worst grid residual = {worst_grid:.3e}")


def test_criterion_04_boundary_exactness(closed_vs_bvp_draws, oracle_sets):
    worst = 0.0
    profiles = [(p, list(r) + list(s.strategies)) for p, r, s in closed_vs_bvp_draws]
    profiles += [(p, list(s)) for p, s, _ in oracle_sets]
    for problem, strategies in profiles:
        T = problem.T
        for xi, strat in zip(problem.x0, strategies[: problem.n]):
            rel = max(1.0, abs(xi))
            worst = max(worst,
                        abs(float(strat.position(0.0)) - xi) / rel,
                        abs(float(strat.position(T))) / rel)
        for xi, strat in zip(problem.x0, strategies[problem.n:]):
            rel = max(1.0, abs(xi))
            worst = max(worst,
                        abs(float(strat.position(0.0)) - xi) / rel,
                        abs(float(strat.position(T))) / rel)
    _report(4, worst <= 1e-10, f"worst relative boundary defect = {worst:.3e}")


def test_criterion_05a_risk_scan_non_monotone():
    rows = analysis.parameter_scan(benchmark_problem(), "alpha_sigma2",
                                   np.linspace(0.0, 3.0, 61), probe=(0, 1.0))
    ok = all(r.status == "ok" for r in rows)
    inc, dec = analysis.non_monotone([r.probe_value for r in rows])
    _report("5a", ok and inc and dec,
            f"61-point scan, rises and falls: ({inc}, {dec})")


def test_criterion_05b_impact_scan_turns():
    market = MarketParams(lam=1.0, gamma=0.3, sigma=1.0, s0=0.0)
    problem = validate_problem(market, (AgentSpec(0.2, 1.0), AgentSpec(4.0, 1.0)),
                               Horizon.finite(2.0))
    seg1 = np.linspace(0.00625, 0.05, 8)
    seg2 = np.linspace(0.05, 1.5, 30)[1:]
    rows = analysis.parameter_scan(problem, "lambda",
                                   np.concatenate([seg1, seg2]), probe=(0, 1.0))
    pv = np.array([r.probe_value for r in rows])
    inside = np.diff(pv[: seg1.size])
    beyond = np.diff(pv[seg1.size - 1:])
    inc, dec = analysis.non_monotone(pv.tolist())
    ok = bool(np.all(inside[:4] < 0) and np.all(beyond[:6] > 0) and inc and dec)
    _report("5b", ok, "probe falls inside (0, 0.05] and rises beyond")


def test_criterion_05c_role_flip_matches_position_sign():
    details = []
    ok = True
    for lam, want_role in ((0.15, "predatory"), (0.16, "liquidity_provision")):
        market = MarketParams(lam=lam, gamma=0.16, sigma=1.0, s0=0.0)
        problem = validate_problem(market, (AgentSpec(1.0, 0.33), AgentSpec(0.0, 0.33)),
                                   Horizon.infinite())
        strategies = closed_form.equal_alpha_infinite(market, problem.agents)
        role = analysis.classify_role(market, 0.33)
        probe = float(strategies[1].position(1.0))
        ok = ok and role.role == want_role and np.sign(probe) == np.sign(role.margin)
        details.append(f"lam={lam}: {role.role}, X2(1)={probe:+.2e}")
    _report("5c", ok, "; ".join(details))


def test_criterion_05d_liquidation_time_non_monotone():
    market = MarketParams(lam=2.0, gamma=0.1, sigma=1.0, s0=0.0)
    times = []
    for n in range(1, 41):
        if n == 1:
            agents = [AgentSpec(5.0, 0.33)]
        else:
            rest = (10.0 - 5.0) / (n - 1)
            agents = [AgentSpec(5.0, 0.33)] + [AgentSpec(rest, 0.33)] * (n - 1)
        problem = validate_problem(market, agents, Horizon.infinite())
        strategies = closed_form.equal_alpha_infinite(market, problem.agents)
        times.append(analysis.effective_liquidation_time(strategies[0]))
    inc, dec = analysis.non_monotone(times)
    peak = int(np.argmax(times)) + 1
    _report("5d", inc and dec, f"99% liquidation time peaks at n={peak}")


def test_criterion_06_comparative_statics_suites():
    rng = np.random.default_rng(42)

    def probe(lam, gamma, a_s2, x):
        market = MarketParams(lam=lam, gamma=gamma, sigma=1.0, s0=0.0)
        agents = (AgentSpec(x[0], a_s2), AgentSpec(x[1], a_s2))
        strategies = closed_form.equal_alpha_finite(market, agents, 2.0)
        return float(strategies[0].position(1.0))

    violations = 0
    for _ in range(100):
        lam, gamma = rng.uniform(0.1, 2.0, 2)
        x = np.sort(rng.uniform(0.0, 3.0, 2))[::-1]
        vals = [probe(lam, gamma, a, x) for a in np.sort(rng.uniform(0.05, 3.0, 3))]
        scale = max(1.0, max(abs(v) for v in vals))
        if not np.all(np.diff(vals) < 1e-9 * scale):
            violations += 1
    for _ in range(100):
        a_s2 = rng.uniform(0.05, 3.0)
        x1 = rng.uniform(0.0, 3.0)
        lam = rng.uniform(0.1, 2.0)
        vals = [probe(lam, g, a_s2, (x1, x1)) for g in np.sort(rng.uniform(0.05, 2.0, 3))]
        scale = max(1.0, max(abs(v) for v in vals))
        if not np.all(np.diff(vals) < 1e-9 * scale):
            violations += 1
        gamma = rng.uniform(0.05, 2.0)
        vals = [probe(lv, gamma, a_s2, (x1, x1)) for lv in np.sort(rng.uniform(0.05, 2.0, 3))]
        if not np.all(np.diff(vals) > -1e-9 * scale):
            violations += 1
    _report(6, violations == 0,
            f"{violations} monotonicity violations over 100 draws per suite")


def test_criterion_07a_infinite_horizon_stationarity():
    worst = 0.0
    cases = [
        (MarketParams(lam=0.7, gamma=0.5, sigma=1.0, s0=0.0),
         (AgentSpec(1.5, 1.1),)),
        (MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0),
         (AgentSpec(1.12, 0.8), AgentSpec(2.06, 0.8))),
        (MarketParams(lam=0.7, gamma=0.5, sigma=1.0, s0=0.0),
         (AgentSpec(1.5, 1.1), AgentSpec(0.6, 1.1), AgentSpec(2.2, 1.1))),
    ]
    for market, agents in cases:
        problem = validate_problem(market, agents, Horizon.infinite())
        strategies = closed_form.equal_alpha_infinite(market, problem.agents)
        worst = max(worst, bvp.residual_report(strategies, problem).relative)
    _report("7a", worst <= 1e-10, f"worst stationarity residual = {worst:.3e}")


def test_criterion_07b_quartic_always_two_negative_roots():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(1000):
        a1, a2 = rng.uniform(0.1, 3.0, 2)
        if abs(a1 - a2) < 1e-6:
            a2 += 0.5
        market = MarketParams(lam=rng.uniform(0.1, 3.0), gamma=rng.uniform(0.0, 2.0),
                              sigma=rng.uniform(0.5, 2.0), s0=0.0)
        tau1, tau2 = closed_form.negative_quartic_roots(market, a1, a2)
        assert tau1 < 0 and tau2 < 0
        assert abs(tau1 - tau2) > 1e-10 * max(abs(tau1), abs(tau2))
        checked += 1
    _report("7b", checked == 1000, f"{checked}/1000 draws gave two distinct negative roots")


def test_criterion_07c_finite_horizon_converges_to_infinite():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0)
    agents = (AgentSpec(1.12, 1.0), AgentSpec(2.06, 1.0))
    gaps = closed_form.finite_to_infinite_convergence(
        market, agents, np.linspace(0.0, 1.9, 39), (2.0, 5.0, 10.0, 20.0, 50.0))
    ok = bool(np.all(np.diff(gaps) < 0)) and gaps[-1] <= 1e-8
    _report("7c", ok, f"gaps {' > '.join(f'{g:.2e}' for g in gaps)}")


def test_criterion_08_no_profitable_deviation():
    worst_first = 0.0
    worst_change = -np.inf
    cases = [benchmark_problem()]
    for lam in (0.15, 0.16):
        market = MarketParams(lam=lam, gamma=0.16, sigma=1.0, s0=0.0)
        cases.append(validate_problem(market, (AgentSpec(1.0, 0.33), AgentSpec(0.0, 0.33)),
                                      Horizon.infinite()))
    for problem in cases:
        strategies, _ = analysis.compute_equilibrium(problem)
        for i in range(problem.n):
            rep = analysis.deviation_report(problem, strategies, i, n_directions=200)
            worst_first = max(worst_first, float(np.max(np.abs(rep.first_order))) / rep.scale)
            worst_change = max(worst_change, float(np.max(rep.value_changes)))
    ok = worst_first <= 1e-6 and worst_change < 0.0
    _report(8, ok, f"max |first order| = {worst_first:.3e} of scale, "
                   f"largest value change = {worst_change:.3e}")


def test_criterion_09_monte_carlo_consistency():
    t0 = time.monotonic()
    problem = benchmark_problem()
    strategies = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    # one path set, seed 0, shared by both agents as in the model
    cfg = analysis.MonteCarloConfig(paths=10_000, time_steps=400, seed=0)
    results = analysis.monte_carlo_revenues(strategies, problem, cfg)
    worst_z = 0.0
    for i, mc in enumerate(results):
        res = analysis.mean_variance(strategies[i], [strategies[1 - i]], problem, i)
        worst_z = max(worst_z,
                      abs(mc.mean - res.expected_revenue) / mc.mean_se,
                      abs(mc.variance - res.variance) / mc.variance_se,
                      abs(mc.cara_mean - res.cara_value) / mc.cara_se)
    again = analysis.monte_carlo_revenues(strategies, problem, cfg)
    assert [(r.mean, r.variance, r.cara_mean) for r in again] == \
        [(r.mean, r.variance, r.cara_mean) for r in results]
    elapsed = time.monotonic() - t0
    ok = worst_z <= 3.0 and elapsed <= 30.0
    _report(9, ok, f"worst z-score = {worst_z:.2f}, reruns bit-identical, {elapsed:.1f}s")


def test_criterion_10_threshold_agent_does_not_trade():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=0.0)
    problem = validate_problem(market, (AgentSpec(1.0, 2.0), AgentSpec(0.0, 2.0)),
                               Horizon.infinite())
    strategies = closed_form.equal_alpha_infinite(market, problem.agents)
    t = np.linspace(0.0, 50.0, 20001)
    sup = float(np.max(np.abs(strategies[1].position(t))))
    _report(10, sup <= 1e-12, f"sup |X| of the flat agent = {sup:.3e}")
