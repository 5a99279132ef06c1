"""Output checks, one pass rule per op kind.

`check` returns (passed, wrong). An op that did not pass counts as failed.
`wrong` names an output that contradicts what the CLI reported: exit 0 with
a residual over tolerance, a malformed file, a Monte Carlo mean far from
the exact one. A failure the CLI reports itself (exit 4 with the breaching
residual in the sidecar, a scan row with an error status) is failed but not
wrong.
"""
from __future__ import annotations

import json
import math

import workloads as W


def sidecar_path(out: str) -> str:
    return out[:-4] + ".json"


def _read_lines(path: str) -> list:
    with open(path) as fh:
        return fh.read().splitlines()


def _equilibrium(op, rc, out):
    if rc not in (0, 4):
        return False, None
    try:
        with open(sidecar_path(out)) as fh:
            side = json.load(fh)
        relative = float(side["residual"]["relative"])
        lines = _read_lines(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, f"unreadable output ({exc!r})"
    n = len(op.problem["agents"])
    if len(lines) != W.GRID + 2 or len(lines[0].split(",")) != 1 + 2 * n:
        return False, "CSV has the wrong shape"
    if (relative <= W.RESIDUAL_TOL) != (rc == 0):
        return False, f"exit {rc} with relative residual {relative:.3e}"
    if rc != 0:
        return False, None
    if op.kind == W.MONTE_CARLO:
        try:
            pairs = list(zip(side["monte_carlo"], side["agents_exact"], strict=True))
        except (KeyError, ValueError) as exc:
            return False, f"sidecar lacks Monte Carlo results ({exc!r})"
        for sampled, exact in pairs:
            gap = abs(sampled["mean"] - exact["expected_revenue"])
            if not gap <= W.MC_SE_LIMIT * sampled["mean_se"]:
                return False, f"Monte Carlo mean {gap / sampled['mean_se']:.1f} SE from exact"
    return True, None


def _oracle(op, rc, out):
    if rc != 0:
        return False, None
    try:
        with open(out) as fh:
            report = json.load(fh)
        converged = report["iteration"]["converged"]
        max_gap = float(report["max_gap"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, f"unreadable output ({exc!r})"
    if not (converged and max_gap <= W.ORACLE_TOL):
        return False, f"exit 0 with converged={converged}, max gap {max_gap:.3e}"
    return True, None


def _scan(op, rc, out):
    if rc != 0:
        return False, None
    try:
        rows = [line.split(",") for line in _read_lines(out)[1:]]
        values = [(float(v), float(p), s) for v, p, s in rows]
    except (OSError, ValueError) as exc:
        return False, f"unreadable output ({exc!r})"
    if len(values) != W.SCAN_POINTS:
        return False, f"{len(values)} scan rows"
    passed = all(status == "ok" and math.isfinite(probe) for _, probe, status in values)
    return passed, None


_RULES = {
    W.EQUILIBRIUM: _equilibrium,
    W.MONTE_CARLO: _equilibrium,
    W.ORACLE: _oracle,
    W.SCAN: _scan,
}


def check(op, rc, out):
    """Apply the pass rule of op's kind to exit code rc and output path out."""
    return _RULES[op.kind](op, rc, out)


def outputs(op, out) -> list:
    """Every file the op writes."""
    return [out, sidecar_path(out)] if op.kind in (W.EQUILIBRIUM, W.MONTE_CARLO) else [out]
