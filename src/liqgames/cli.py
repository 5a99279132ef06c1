"""Command-line interface.

Subcommands:
  equilibrium   solve a problem file, emit a CSV path table + JSON sidecar
  scan          sweep one parameter, emit a CSV of probe values
  oracle-check  cross-validate the solver against the discrete oracle
  classify      role of an inventory-less agent for given market parameters

Exit codes: 0 success, 1 configuration error (including flags argparse
rejects, a --grid below 8 intervals, and tolerances or a t-max that are
negative or not finite),
2 solver failure (including an oracle fixed point that fails its
verification sweep), 4 tolerance breached. A run that stops on an error
writes no output file; exit 4, and exit 2 from a failed verification
sweep, still write theirs so the breach can be inspected. Numbers are
written with 17 significant digits, so re-reading a CSV reproduces the
exact floats and repeated runs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import analysis, bvp, closed_form, oracle
from .errors import InvalidParam, LiquidationGameError, UnsupportedCase
from .model import ExpSumStrategy, MarketParams, _decay_time, _sample_profile, load_problem

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_SOLVER = 2
_EXIT_TOLERANCE = 4


class _UsageError(Exception):
    """A command line that argparse rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on a bad flag, which here means solver failure
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _grid(text: str) -> int:
    value = int(text)
    if value < 8:
        raise argparse.ArgumentTypeError(f"must be an integer >= 8, got {text}")
    return value


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _emission_window(problem, strategies, t_max: Optional[float]) -> float:
    if problem.horizon.is_finite:
        if t_max is not None:
            raise InvalidParam("t-max", "only applies to infinite horizons")
        return problem.T
    if t_max is not None:
        if not (math.isfinite(t_max) and t_max > 0):
            raise InvalidParam("t-max", "must be finite and > 0")
        return t_max
    return _decay_time(strategies, math.log(100.0))  # slowest live mode down to 1 percent


def _spectral_block(problem) -> Optional[dict]:
    if problem.equal_alpha:
        return closed_form.spectral(
            problem.market, float(problem.alphas[0]), problem.n
        ).to_dict()
    if not problem.horizon.is_finite and problem.n == 2:
        taus = closed_form.negative_quartic_roots(
            problem.market, problem.agents[0].alpha, problem.agents[1].alpha
        )
        return {"quartic_roots": list(taus)}
    return None


def _sidecar_path(out: str) -> str:
    return out[:-4] + ".json" if out.endswith(".csv") else out + ".json"


def _guard_outputs(problem_path: str, *outputs: str) -> None:
    src = os.path.abspath(problem_path)
    for out in outputs:
        if os.path.abspath(out) == src:
            raise InvalidParam("out", f"would overwrite the problem file {problem_path}")


def _cmd_equilibrium(args) -> int:
    _guard_outputs(args.problem, args.out, _sidecar_path(args.out))
    problem = load_problem(args.problem)
    strategies, route = analysis.compute_equilibrium(problem, grid_steps=args.grid)
    window = _emission_window(problem, strategies, args.t_max)
    t = np.linspace(0.0, window, args.grid + 1)
    n = problem.n
    pos, rates = _sample_profile(strategies, t)

    residual = bvp.residual_report(strategies, problem)
    evaluations = [r.to_dict() for r in analysis.mean_variance_sampled(t, pos, rates, problem)]
    sidecar = {
        "route": route,
        "grid": {"n_steps": args.grid, "t_max": window},
        "spectral": _spectral_block(problem),
        "residual": residual.to_dict(),
        "agents": evaluations,
    }
    if all(isinstance(s, ExpSumStrategy) for s in strategies):
        sidecar["agents_exact"] = [
            r.to_dict() for r in analysis.mean_variance_profile(strategies, problem)
        ]
    if args.mc_paths:
        cfg = analysis.MonteCarloConfig(
            paths=args.mc_paths, time_steps=args.grid, seed=args.seed
        )
        # config by keyword: perfbench's tracer reads it from kwargs["config"]
        sidecar["monte_carlo"] = [
            mc.to_dict()
            for mc in analysis.monte_carlo_revenues(strategies, problem, config=cfg)
        ]

    # written only now, so a run that raises leaves no partial output
    header = ["t"] + [f"X_{i+1}" for i in range(n)] + [f"rate_{i+1}" for i in range(n)]
    table = np.hstack([t[:, None], pos.T, rates.T])
    row_fmt = ",".join(["%.17g"] * table.shape[1])  # same digits as _fmt
    lines = [",".join(header)]
    # one row at a time: table.tolist() would hold every cell as a Python float
    lines.extend(row_fmt % tuple(row.tolist()) for row in table)
    _write_text(args.out, "\n".join(lines) + "\n")
    side_path = _sidecar_path(args.out)
    _write_json(side_path, sidecar)

    print(f"route: {route}")
    print(f"relative residual: {residual.relative:.3e}")
    print(f"wrote {args.out} and {side_path}")
    if residual.relative > args.residual_tol:
        print(
            f"residual exceeds tolerance {args.residual_tol:.3e}",
            file=sys.stderr,
        )
        return _EXIT_TOLERANCE
    return _EXIT_OK


def _parse_values(text: str) -> np.ndarray:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidParam("values", "range form is start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise InvalidParam("values", "count must be >= 1")
        return np.linspace(start, stop, count)
    return np.array([float(v) for v in text.split(",")])


def _cmd_scan(args) -> int:
    _guard_outputs(args.problem, args.out)
    problem = load_problem(args.problem)
    values = _parse_values(args.values)
    if args.probe_agent < 1:
        raise InvalidParam("probe-agent", "agents are numbered from 1")
    results = analysis.parameter_scan(
        problem,
        args.param,
        values,
        (args.probe_agent - 1, args.probe_time),
        grid_steps=args.grid,
    )
    lines = ["param,probe_value,status"]
    for r in results:
        lines.append(f"{_fmt(r.value)},{_fmt(r.probe_value)},{r.status}")
    _write_text(args.out, "\n".join(lines) + "\n")
    n_ok = sum(1 for r in results if r.status == "ok")
    print(f"scanned {len(results)} points ({n_ok} ok), wrote {args.out}")
    return _EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.out:
        _guard_outputs(args.problem, args.out)
    problem = load_problem(args.problem)
    strategies, route = analysis.compute_equilibrium(problem, grid_steps=args.grid)
    game = oracle.DiscreteGame(problem, args.grid)
    paths, report = oracle.iterate_nash(game)
    gaps = oracle.compare(game, paths, strategies)
    out = {
        "route": route,
        "gaps": list(map(float, gaps)),
        "max_gap": float(np.max(gaps)),
        "tol": args.tol,
        "iteration": report.to_dict(),
    }
    if args.out:
        _write_json(args.out, out)
    print(f"route: {route}")
    print(f"oracle fixed-point gap: {report.max_update:.3e} (converged: {report.converged})")
    print(f"max relative gap: {out['max_gap']:.3e} (tolerance {args.tol:.3e})")
    if not report.converged:
        print("oracle fixed point failed its verification sweep", file=sys.stderr)
        return _EXIT_SOLVER
    if out["max_gap"] > args.tol:
        return _EXIT_TOLERANCE
    return _EXIT_OK


def _cmd_classify(args) -> int:
    market = MarketParams(lam=args.lam, gamma=args.gamma, sigma=args.sigma, s0=0.0)
    result = analysis.classify_role(market, args.alpha)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return _EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later main() call.

    Reuse is safe: each parse_args call fills a fresh namespace from the
    declared defaults, and no argument holds a mutable default.
    """
    parser = _ArgumentParser(
        prog="liqgames",
        description="Nash equilibria for multi-agent optimal liquidation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eq = sub.add_parser("equilibrium", help="solve a problem file")
    eq.add_argument("--problem", required=True, help="problem JSON file")
    eq.add_argument("--out", required=True, help="output CSV path")
    eq.add_argument("--grid", type=_grid, default=400, help="grid intervals, >= 8 (default 400)")
    eq.add_argument(
        "--t-max",
        type=float,
        default=None,
        help="emission window for infinite horizons (default: slowest live mode at 1%%)",
    )
    eq.add_argument(
        "--residual-tol",
        type=_tolerance,
        default=1e-6,
        help="exit 4 if the relative equilibrium residual exceeds this",
    )
    eq.add_argument("--mc-paths", type=int, default=0, help="Monte Carlo paths (0 = off)")
    eq.add_argument(
        "--seed",
        type=int,
        default=0,
        help="Monte Carlo seed of one Brownian path set shared by all agents",
    )

    sc = sub.add_parser("scan", help="sweep one parameter")
    sc.add_argument("--problem", required=True)
    sc.add_argument("--out", required=True, help="output CSV path")
    sc.add_argument(
        "--param",
        required=True,
        choices=["alpha_sigma2", "lambda", "gamma", "n", "T"],
    )
    sc.add_argument("--values", required=True, help="start:stop:count or v1,v2,...")
    sc.add_argument("--probe-agent", type=int, required=True, help="1-based agent index")
    sc.add_argument("--probe-time", type=float, required=True)
    sc.add_argument("--grid", type=_grid, default=400)

    oc = sub.add_parser("oracle-check", help="cross-validate against the discrete oracle")
    oc.add_argument("--problem", required=True)
    oc.add_argument("--grid", type=_grid, default=200)
    oc.add_argument("--tol", type=_tolerance, default=1e-2)
    oc.add_argument("--out", default=None, help="optional JSON report path")

    cl = sub.add_parser("classify", help="role of an agent with zero inventory")
    cl.add_argument("--lam", type=float, required=True, help="temporary impact lambda")
    cl.add_argument("--gamma", type=float, required=True, help="permanent impact gamma")
    cl.add_argument("--sigma", type=float, required=True, help="volatility")
    cl.add_argument("--alpha", type=float, required=True, help="risk aversion")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # looked up per call, not stored in the reused parser, so a rebound
        # handler (a tracing wrapper, say) takes effect
        command = {
            "equilibrium": _cmd_equilibrium,
            "scan": _cmd_scan,
            "oracle-check": _cmd_oracle_check,
            "classify": _cmd_classify,
        }[args.command]
        return command(args)
    except (_UsageError, InvalidParam, UnsupportedCase, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except LiquidationGameError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
