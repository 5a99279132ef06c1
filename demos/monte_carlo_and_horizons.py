"""Validate analytic revenue moments by simulation and study long horizons.

Part 1 prices the two-trader equilibrium by Monte Carlo, with one simulated
price noise shared by both traders, and checks the sample mean, variance,
and exponential-utility certainty equivalent against their closed-form
values in standard-error units.

Part 2 solves the infinite-horizon game for growing crowds splitting a fixed
opposing inventory and prints the 99% liquidation time of the large trader,
which first rises and then falls with crowd size.
"""
import numpy as np

from liqgames import analysis, closed_form
from liqgames.model import AgentSpec, Horizon, MarketParams, validate_problem


def monte_carlo_part():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = (AgentSpec(1.12, 0.8), AgentSpec(2.06, 0.8))
    problem = validate_problem(market, agents, Horizon.finite(2.0))
    strategies = closed_form.equal_alpha_finite(market, agents, 2.0)
    cfg = analysis.MonteCarloConfig(paths=20_000, time_steps=400, seed=3)
    print("agent  quantity   analytic      simulated     z")
    # both traders face the same simulated price noise
    for i, mc in enumerate(analysis.monte_carlo_revenues(strategies, problem, cfg)):
        exact = analysis.mean_variance(strategies[i], [strategies[1 - i]], problem, i)
        for name, a, m, se in (
            ("mean", exact.expected_revenue, mc.mean, mc.mean_se),
            ("variance", exact.variance, mc.variance, mc.variance_se),
            ("cara", exact.cara_value, mc.cara_mean, mc.cara_se),
        ):
            print(f"{i:<6d} {name:<10s} {a:<13.6f} {m:<13.6f} {(m - a) / se:+.2f}")
    print()


def horizon_part():
    market = MarketParams(lam=2.0, gamma=0.1, sigma=1.0, s0=0.0)
    print("crowd size n   99% liquidation time of the x=5 trader")
    for n in (1, 2, 4, 8, 12, 20, 30, 40):
        if n == 1:
            agents = [AgentSpec(5.0, 0.33)]
        else:
            agents = [AgentSpec(5.0, 0.33)] + \
                [AgentSpec(5.0 / (n - 1), 0.33)] * (n - 1)
        problem = validate_problem(market, agents, Horizon.infinite())
        strategies = closed_form.equal_alpha_infinite(market, problem.agents)
        elt = analysis.effective_liquidation_time(strategies[0])
        print(f"{n:<14d} {elt:.4f}")


def main():
    monte_carlo_part()
    horizon_part()


if __name__ == "__main__":
    main()
