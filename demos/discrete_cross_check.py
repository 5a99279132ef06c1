"""Cross-check the analytic equilibrium against the discrete game's equilibrium.

Builds the time-stepped game on successively finer grids, solves its Nash
equilibrium as one linear system of all agents' first-order conditions,
verifies the fixed point with one sweep of exact best responses, and
compares the resulting inventory paths with the continuous-time solution.
The gap should shrink by about 4x per grid halving; the fixed-point gap
should sit at rounding level.
"""
import numpy as np

from liqgames import analysis, oracle
from liqgames.model import AgentSpec, DriftSpec, Horizon, MarketParams, validate_problem


def run(problem, label):
    strategies, route = analysis.compute_equilibrium(problem, grid_steps=400)
    print(f"--- {label} (reference route: {route}) ---")
    print("N     fixed-point gap   max relative gap")
    prev = None
    for n_steps in (50, 100, 200, 400):
        game = oracle.DiscreteGame(problem, n_steps=n_steps)
        paths, report = oracle.iterate_nash(game)
        gap = float(np.max(oracle.compare(game, paths, strategies)))
        note = f"  (ratio {prev / gap:.2f})" if prev else ""
        print(f"{n_steps:<5d} {report.max_update:<17.3e} {gap:.3e}{note}")
        prev = gap
    print()


def main():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = (AgentSpec(1.12, 0.8), AgentSpec(2.06, 0.8))
    run(validate_problem(market, agents, Horizon.finite(2.0)),
        "equal risk aversion, two traders")

    market = MarketParams(lam=0.8, gamma=0.6, sigma=1.0, s0=0.0,
                          drift=DriftSpec.constant(0.4))
    agents = (AgentSpec(1.5, 0.5), AgentSpec(-0.7, 1.5), AgentSpec(2.2, 1.0))
    run(validate_problem(market, agents, Horizon.finite(1.5)),
        "heterogeneous risk aversion with drift, three traders")


if __name__ == "__main__":
    main()
