"""Seeded problem sets and CLI invocations for the benchmark workloads.

Every workload is a fixed cycle of operations. The discrete design of a
cycle (which subcommand, how many agents, which drift, stiff or not) is the
same for every seed, so the percentiles land in the same cluster of ops from
seed to seed; the seed draws the continuous parameters inside each cell.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

EQUILIBRIUM = "equilibrium"
ORACLE = "oracle"
SCAN = "scan"
MONTE_CARLO = "mc"

RESIDUAL_TOL = 1e-6  # the CLI default for --residual-tol
ORACLE_TOL = 1e-2  # the CLI default for oracle-check --tol
GRID = 400  # the CLI default for --grid
SCAN_POINTS = 61
MC_PATHS = 10_000
MC_SE_LIMIT = 5.0  # sampled mean within this many standard errors of the exact mean


@dataclass(frozen=True)
class Op:
    """One CLI call: its subcommand, the problem file content and extra flags."""

    kind: str
    label: str
    problem: dict
    flags: tuple = ()


def _market(rng: random.Random, lam: float, drift: dict, gamma_min: float = 0.1) -> dict:
    return {
        "lambda": lam,
        "gamma": rng.uniform(gamma_min, 1.0),
        "sigma": rng.uniform(0.5, 1.2),
        "s0": 10.0,
        "drift": drift,
    }


def _agents(rng: random.Random, n: int, equal_alpha: bool) -> list:
    common = rng.uniform(0.2, 2.0)
    return [
        {
            "x0": rng.uniform(-1.0, 3.0),
            "alpha": common if equal_alpha else rng.uniform(0.2, 2.0),
        }
        for _ in range(n)
    ]


def _drift(rng: random.Random, kind: str, T: float, scale: float) -> dict:
    if kind == "zero":
        return {"type": "zero"}
    if kind == "constant":
        return {"type": "constant", "value": scale * rng.uniform(-0.5, 0.5)}
    # Knots on nodes of the default grid keep the drift linear inside every
    # solver interval. "sampled" draws 20, 25, 50 or 100 intervals, whose
    # knots miss the residual's finite-difference probe stencils, so these
    # ops pass. "kinked" puts its knots every 10 grid nodes (40 intervals),
    # where half of them fall inside a stencil, and samples four periods:
    # the kinks then breach the 1e-6 residual tolerance by 10x or more on
    # every draw (exit 4), where a half period breaches it on some draws and
    # not others. These failures are residual_report's, not the solver's.
    if kind == "kinked":
        intervals, periods = 40, 4.0
    else:
        intervals, periods = rng.choice((20, 25, 50, 100)), 0.5
    level, amp = scale * rng.uniform(-0.3, 0.3), scale * rng.uniform(0.02, 0.1)
    phase = rng.uniform(0.0, 6.2)
    grid = [T * k / intervals for k in range(intervals)] + [T]
    return {
        "type": "sampled",
        "grid": grid,
        "values": [level + amp * math.sin(2 * math.pi * periods * t / T + phase) for t in grid],
    }


def _finite(rng, n, drift_kind, *, stiff=False, equal_alpha=False) -> dict:
    T = rng.uniform(5.0, 10.0) if stiff else rng.uniform(1.0, 3.0)
    lam = rng.uniform(0.0125, 0.03) if stiff else rng.uniform(0.5, 2.0)
    # At stiff horizons the drift-quadrature check measures an absolute
    # error, and drifts as large as the mild ops' stop about 40% of stiff ops
    # there (exit 2, a few ms) while the rest run the global solve (exit 4,
    # ~140 ms). A 30x smaller drift and lambda from 0.0125 up send every
    # stiff op through the solve (with lambda near 0.01, about one stiff
    # drift op in 60 still stops early), so the stiff tail does not change
    # size from seed to seed.
    scale = 0.03 if stiff else 1.0
    # Stiff draws with gamma below about 0.3 land near the 1e-6 residual
    # tolerance (1.2e-6 to 5e-5), so a few would pass on some seeds and the
    # failure count would change by seed. From 0.4 up the residual was
    # 1.5e-5 or more on every draw of 28 seeds: every stiff op fails.
    gamma_min = 0.4 if stiff else 0.1
    return {
        "market": _market(rng, lam, _drift(rng, drift_kind, T, scale), gamma_min),
        "agents": _agents(rng, n, equal_alpha),
        "horizon": {"type": "finite", "T": T},
    }


def _infinite(rng, n, *, equal_alpha) -> dict:
    return {
        "market": _market(rng, rng.uniform(0.5, 2.0), {"type": "zero"}),
        "agents": _agents(rng, n, equal_alpha),
        "horizon": {"type": "infinite"},
    }


def grid_equilibrium(rng: random.Random) -> list:
    # 45 mild ops over every n and drift, 4 mild ops whose sampled drift
    # has kinks under the residual's probes, then 15 stiff ops (about a
    # quarter) at n=10. Stiff times grow steeply with n (about 50 ms at
    # n=2, 400 ms at n=20), so a stiff tail over every n would put op_ms.p90
    # on the gap between two sizes; one size keeps it inside the stiff
    # cluster. The n=5 block is large enough that op_ms.p50 stays inside it.
    ops = []
    for n, count in ((2, 2), (3, 2), (5, 8), (10, 2), (20, 1)):
        for drift in ("zero", "constant", "sampled"):
            for _ in range(count):
                ops.append(Op(EQUILIBRIUM, f"grid-n{n}-{drift}-mild", _finite(rng, n, drift)))
    for n in (2, 5, 5, 10):
        ops.append(Op(EQUILIBRIUM, f"grid-n{n}-kinked-mild", _finite(rng, n, "kinked")))
    for drift in ("zero", "constant", "sampled"):
        for _ in range(5):
            ops.append(
                Op(EQUILIBRIUM, f"grid-n10-{drift}-stiff", _finite(rng, 10, drift, stiff=True))
            )
    return ops


def closed_equilibrium(rng: random.Random) -> list:
    # Sizes are weighted so that op_ms.p50 falls inside the block of small
    # finite and n=5 ops and op_ms.p90 inside the block of n=20 finite ops.
    cells = (
        ("het2inf", 2, False, False, 4),
        ("eqinf", 2, True, False, 1),
        ("eqinf", 3, True, False, 1),
        ("eqfin", 2, True, True, 2),
        ("eqfin", 3, True, True, 2),
        ("eqinf", 5, True, False, 2),
        ("eqfin", 5, True, True, 2),
        ("eqinf", 10, True, False, 1),
        ("eqfin", 10, True, True, 1),
        ("eqinf", 20, True, False, 1),
        ("eqfin", 20, True, True, 4),
    )
    ops = []
    for name, n, equal_alpha, finite, count in cells:
        for _ in range(count):
            problem = (
                _finite(rng, n, "zero", equal_alpha=True)
                if finite
                else _infinite(rng, n, equal_alpha=equal_alpha)
            )
            ops.append(Op(EQUILIBRIUM, f"{name}-n{n}", problem))
    return ops


_SCAN_RANGES = {
    "lambda": (0.5, 2.0),
    "gamma": (0.0, 1.0),
    "T": (1.5, 3.0),
    "alpha_sigma2": (0.1, 3.0),
}


def batch_checks(rng: random.Random) -> list:
    # Per scan and Monte Carlo op, four oracle checks (4:1:1). The n=5 block
    # is large enough that op_ms.p50 stays inside it, clear of the n=10
    # oracle ops above it; op_ms.p90 falls inside the Monte Carlo block.
    oracle_sizes = [2, 2, 3, 3, 3, 5, 5, 5, 5, 5, 5, 5, 5, 5, 10, 10]
    rng.shuffle(oracle_sizes)
    ops = []
    for k, (param, (lo, hi)) in enumerate(_SCAN_RANGES.items()):
        for n in oracle_sizes[4 * k : 4 * k + 4]:
            ops.append(Op(ORACLE, f"oracle-n{n}", _finite(rng, n, "zero")))
        problem = _finite(rng, 2, "zero")
        problem["horizon"]["T"] = 3.0
        flags = (
            "--param", param,
            "--values", f"{lo}:{hi}:{SCAN_POINTS}",
            "--probe-agent", "1",
            "--probe-time", "1.0",
        )
        ops.append(Op(SCAN, f"scan-{param}", problem, flags))
        mc_problem = _finite(rng, 2, "zero", equal_alpha=True)
        ops.append(
            Op(MONTE_CARLO, "mc-n2", mc_problem,
               ("--mc-paths", str(MC_PATHS), "--seed", str(rng.randrange(2**31))))
        )
    return ops


WORKLOADS = {
    "grid_equilibrium": grid_equilibrium,
    "closed_equilibrium": closed_equilibrium,
    "batch_checks": batch_checks,
}

# Independent draws of each workload's design per cycle. Op times depend on
# the drawn parameters as well as on the design cell, and a percentile that
# falls inside a cell is an order statistic of that cell's draws. With 2
# draws per cycle the percentiles spread up to 0.13 (IQR/median) over ten
# seeds on closed_equilibrium, whose n=20 equal-alpha finite ops (op_ms.p90)
# take about 105 to 220 ms by draw, and 0.10 on batch_checks.
REPLICATES = {"grid_equilibrium": 2, "closed_equilibrium": 8, "batch_checks": 4}


def build(workload: str, seed: int) -> list:
    """The op cycle of one workload; the same seed gives the same ops."""
    rng = random.Random(f"{workload}/{seed}")
    ops = [op for _ in range(REPLICATES[workload]) for op in WORKLOADS[workload](rng)]
    rng.shuffle(ops)
    return ops
