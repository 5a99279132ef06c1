"""Spans around the library's public functions, installed from outside.

Each wrapper replaces a name where its caller looks it up (a module global
bound by `from x import f`, a module attribute called as `mod.f`, or a
method on a class), so the library runs unmodified. Spans stay in memory
and are written out once, after the traced pass.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# span name -> the (module, attribute) or (module, class, method) places
# that callers on the CLI path look it up.
TARGETS = {
    "cli.main": [("liqgames.cli", "main")],
    "cli.equilibrium": [("liqgames.cli", "_cmd_equilibrium")],
    "cli.scan": [("liqgames.cli", "_cmd_scan")],
    "cli.oracle_check": [("liqgames.cli", "_cmd_oracle_check")],
    "model.load_problem": [("liqgames.cli", "load_problem")],
    "model.validate_problem": [
        ("liqgames.model", "validate_problem"),
        ("liqgames.analysis", "validate_problem"),
    ],
    "closed_form.equal_alpha_finite": [("liqgames.closed_form", "equal_alpha_finite")],
    "closed_form.equal_alpha_infinite": [("liqgames.closed_form", "equal_alpha_infinite")],
    "closed_form.two_player_infinite": [("liqgames.closed_form", "two_player_infinite")],
    "bvp.assemble": [("liqgames.bvp", "assemble")],
    "bvp.solve_finite": [("liqgames.bvp", "solve_finite")],
    "bvp.expm": [("liqgames.bvp", "expm")],
    "bvp.splu": [("liqgames.bvp", "splu")],
    "bvp.residual_report": [("liqgames.bvp", "residual_report")],
    "analysis.compute_equilibrium": [("liqgames.analysis", "compute_equilibrium")],
    "analysis.mean_variance": [("liqgames.analysis", "mean_variance")],
    "analysis.mean_variance_sampled": [("liqgames.analysis", "mean_variance_sampled")],
    "analysis.monte_carlo_revenues": [("liqgames.analysis", "monte_carlo_revenues")],
    "analysis.parameter_scan": [("liqgames.analysis", "parameter_scan")],
    "oracle.DiscreteGame": [("liqgames.oracle", "DiscreteGame", "__init__")],
    "oracle.iterate_nash": [("liqgames.oracle", "iterate_nash")],
    "oracle.best_response": [("liqgames.oracle", "DiscreteGame", "best_response")],
    "oracle.compare": [("liqgames.oracle", "compare")],
}

# Self times repeated from a single-threaded BLAS pass as `<name>.self_ms.1t`.
SINGLE_THREAD = [
    name
    for name in TARGETS
    if name.startswith(("bvp.", "oracle.")) or name == "analysis.monte_carlo_revenues"
]

# Layer metrics that are not per-function spans: name -> unit.
EXTRA_METRICS = {
    "analysis.compute_equilibrium.route_bvp_frac": "ratio",
    "analysis.monte_carlo_revenues.computed_mb": "MB",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric the traced pass reports, with its unit."""
    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.errors"] = "count"
    for name in SINGLE_THREAD:
        units[f"{name}.self_ms.1t"] = "ms"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """Records (name, start_ns, end_ns, parent, op, raised) for each call."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.bvp_routes = 0
        self.mc_bytes = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, raised)
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name, args, kwargs, result):
        if name == "analysis.compute_equilibrium" and result[1] == "bvp":
            self.bvp_routes += 1
        elif name == "analysis.monte_carlo_revenues":
            config = args[3] if len(args) > 3 else kwargs["config"]
            self.mc_bytes += config.paths * config.time_steps * 8

    def install(self):
        """Replace every target with its wrapper; undone by uninstall()."""
        for name, places in TARGETS.items():
            for place in places:
                owner = importlib.import_module(place[0])
                if len(place) == 3:
                    owner = getattr(owner, place[1])
                attr = place[-1]
                original = getattr(owner, attr)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\traised\n")
            for span in self.spans:
                fh.write("\t".join(str(int(v) if isinstance(v, bool) else v) for v in span) + "\n")

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op calls, self time and errors for each target, from the spans."""
        child_ns = defaultdict(int)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = dict.fromkeys(TARGETS, 0)
        self_ns = dict.fromkeys(TARGETS, 0)
        errors = dict.fromkeys(TARGETS, 0)
        for idx, (name, start, end, _, _, raised) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[idx]
            errors[name] += raised
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_ms"] = self_ns[name] / 1e6 / n_ops
            out[f"{name}.errors"] = errors[name] / n_ops
        solves = calls["analysis.compute_equilibrium"]
        out["analysis.compute_equilibrium.route_bvp_frac"] = (
            self.bvp_routes / solves if solves else 0.0
        )
        out["analysis.monte_carlo_revenues.computed_mb"] = self.mc_bytes / 1e6 / n_ops
        return out
