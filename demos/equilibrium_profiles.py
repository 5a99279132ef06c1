"""Solve a two-trader liquidation game and print the equilibrium schedules.

Both traders unwind positive inventory against the same linear impact costs.
The closed-form profile and the grid solver are computed independently and
the sup-norm gap between them is reported alongside the schedule table.
"""
import numpy as np

from liqgames import bvp, closed_form
from liqgames.model import AgentSpec, Horizon, MarketParams, validate_problem


def main():
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = (AgentSpec(1.12, 0.8), AgentSpec(2.06, 0.8))
    problem = validate_problem(market, agents, Horizon.finite(2.0))

    exact = closed_form.equal_alpha_finite(market, agents, 2.0)
    sol = bvp.solve_finite(problem, 400)

    grid = sol.strategies[0].grid
    gap = max(float(np.max(np.abs(s.positions - e.position(grid))))
              for s, e in zip(sol.strategies, exact))
    res = bvp.residual_report(exact, problem)

    print("t      X_1       X_2       rate_1    rate_2")
    for t in np.linspace(0.0, 2.0, 11):
        row = [e.position(t) for e in exact] + [e.rate(t) for e in exact]
        print(f"{t:4.1f}  " + "  ".join(f"{v:8.4f}" for v in row))
    print()
    print(f"closed form vs grid solver (N=400): sup gap = {gap:.3e}")
    print(f"optimality residual of the closed form: {res.relative:.3e}")


if __name__ == "__main__":
    main()
