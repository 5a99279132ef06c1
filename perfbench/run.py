"""liqgames benchmark: the CLI end to end, and a traced per-layer pass.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the repository root. Each op is one in-process call of
`liqgames.cli.main(argv)` on a problem file generated from the seed; a
closed loop with one client repeats the workload's fixed op cycle, whole
cycles only, until the time is up. Interpreter start-up is measured apart,
in fresh interpreters, as setup_s. With --trace 0 the last line of output
is a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced pass (see tracing.py), run alongside an
untraced pass of the same cycles and again in a subprocess with
single-threaded BLAS. Without --trace both passes run, each in its own
fresh process, and so does every workload under `--workload all` (the
default). A run lasts run_seconds from BENCHMARK.json. --seconds is
accepted for callers that pass the run length, and must equal it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import tracing
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

E2E_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "solved_per_s": "1/s",
    "passed_frac": "ratio",
    "peak_rss_mb": "MB",
}


class _Sink:
    """Swallows the CLI's console output."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


_SINK = _Sink()


def _import_seconds() -> float:
    """Fresh interpreter start until `import liqgames.cli` returns."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "import liqgames.cli; print(time.monotonic())"
    )
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(done.stdout.strip()) - start


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Writes a workload's problem files, then runs and checks its op cycle."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from liqgames import cli

        self.cli = cli
        self.workdir = workdir
        self.calls = []
        for k, op in enumerate(W.build(workload, seed)):
            problem = workdir / f"problem{k}.json"
            problem.write_text(json.dumps(op.problem))
            if op.kind == W.ORACLE:
                out = str(workdir / f"oracle{k}.json")
                argv = ["oracle-check", "--problem", str(problem), "--out", out]
            else:
                out = str(workdir / f"out{k}.csv")
                sub = "scan" if op.kind == W.SCAN else "equilibrium"
                argv = [sub, "--problem", str(problem), "--out", out]
            self.calls.append((op, argv + list(op.flags), out))
        self.digests = {}
        self.outcomes = {}
        self.wrong = []

    def _call(self, argv):
        with contextlib.redirect_stdout(_SINK), contextlib.redirect_stderr(_SINK):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an op that crashes counts as failed
                rc = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return rc, elapsed

    def warm_up(self) -> None:
        """One untimed op per label: lazy imports and first-call costs."""
        firsts = {}
        for k, (op, _, _) in enumerate(self.calls):
            firsts.setdefault(op.label, k)
        self.run_cycle(0, only=set(firsts.values()))

    def run_cycle(self, cycle: int, tracer=None, only=None) -> list:
        """Run every op once; returns (label, seconds, passed, rc, bytes) per op."""
        records = []
        for k, (op, argv, out) in enumerate(self.calls):
            if only is not None and k not in only:
                continue
            files = checks.outputs(op, out)
            for path in files:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            if tracer is not None:
                tracer.op = cycle * len(self.calls) + k
            rc, elapsed = self._call(argv)
            passed, wrong = checks.check(op, rc, out)
            written = [p for p in files if os.path.exists(p)]
            if passed:
                digest = _digest(written)
                if self.digests.setdefault(k, digest) != digest:
                    wrong = "output differs from an earlier run of the same input"
            if self.outcomes.setdefault(k, (passed, rc)) != (passed, rc):
                wrong = f"outcome {(passed, rc)} differs from {self.outcomes[k]} on the same input"
            if wrong:
                self.wrong.append(f"{op.label} (op {k}): {wrong}")
            nbytes = sum(os.path.getsize(p) for p in written)
            records.append((op.label, elapsed, passed, rc, nbytes))
        return records

    def run(self, seconds: float, between) -> tuple:
        """Whole cycles, stopping at the cycle boundary nearest `seconds`.

        between(elapsed) runs after each cycle and is left out of the loop
        time. Returns (records, cycles, loop seconds).
        """
        records = []
        cycle = 1
        start = time.perf_counter()
        paused = 0.0
        while True:
            cycle_start = time.perf_counter()
            records += self.run_cycle(cycle)
            cycle += 1
            now = time.perf_counter()
            elapsed = now - start
            if elapsed + (now - cycle_start) / 2 >= seconds:
                return records, cycle - 1, elapsed - paused
            pause = time.perf_counter()
            between(elapsed)
            paused += time.perf_counter() - pause


def _tally(records) -> Counter:
    return Counter(f"{label} exit {rc}" for label, _, passed, rc, _ in records if not passed)


def end_to_end(runner: Runner, seconds: float) -> tuple:
    _import_seconds()  # writes the bytecode cache that later CLI runs find
    setup = []

    def sample_setup(elapsed):
        # Spread over the run, so the median sees the same machine as the ops.
        if len(setup) < SETUP_SAMPLES * elapsed / seconds:
            setup.append(_import_seconds())

    runner.warm_up()
    records, cycles, loop_seconds = runner.run(seconds, sample_setup)
    while len(setup) < SETUP_SAMPLES:
        setup.append(_import_seconds())
    latencies = [r[1] for r in records]
    passed = sum(r[2] for r in records)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ms.p50": statistics.median(latencies) * 1e3,
        "op_ms.p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "solved_per_s": passed / loop_seconds,
        "passed_frac": passed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"timed cycles: {cycles} of {len(runner.calls)} ops")
    return metrics, records


def _traced_cycle(runner: Runner, tracer, cycle: int) -> list:
    tracer.install()
    try:
        return runner.run_cycle(cycle, tracer)
    finally:
        tracer.uninstall()


def _layer_metrics(tracer, records, spans_path: Path) -> dict:
    """Per-op layer metrics of the traced records; writes the spans out."""
    metrics = tracer.layer_metrics(len(records))
    metrics["cli.bytes_written"] = sum(r[4] for r in records) / len(records)
    SPANS.mkdir(exist_ok=True)
    tracer.write(str(spans_path))
    return metrics


def layers(runner: Runner, workload: str, seed: int, seconds: float) -> tuple:
    runner.warm_up()
    tracer = tracing.Tracer()
    untraced, traced = [], []
    cycle, start = 1, time.perf_counter()
    # Untraced and traced cycles alternate, so that both see the same machine.
    while not traced or time.perf_counter() - start < seconds:
        untraced += runner.run_cycle(cycle)
        traced += _traced_cycle(runner, tracer, cycle + 1)
        cycle += 2
    cycles = len(traced) // len(runner.calls)
    metrics = _layer_metrics(tracer, traced, SPANS / f"{workload}-seed{seed}-default.spans.tsv")
    metrics["trace.overhead_frac"] = (
        sum(r[1] for r in traced) / sum(r[1] for r in untraced) - 1.0
    )
    single = _single_thread_layers(workload, seed, cycles, runner.workdir, seconds)
    for name in tracing.SINGLE_THREAD:
        metrics[f"{name}.self_ms.1t"] = single["metrics"][f"{name}.self_ms"]
    by_cycle = {}
    for name, _, _, _, op, _ in tracer.spans:
        by_cycle.setdefault(op // len(runner.calls), Counter())[name] += 1
    calls = {k: v for k, v in metrics.items() if k.endswith(".calls")}
    single_calls = {k: v for k, v in single["metrics"].items() if k.endswith(".calls")}
    first = next(iter(by_cycle.values()))
    failed = sum(not r[2] for r in untraced + traced) / len(untraced + traced)
    print(f"cycles: {cycles} untraced and {cycles} traced, alternating, of {len(runner.calls)} ops")
    print(f"failed_frac {failed:.6g} here, {single['failed_frac']:.6g} single-thread")
    if any(c != first for c in by_cycle.values()):
        runner.wrong.append("call counts differ between traced cycles")
    if calls != single_calls:
        differ = sorted(k for k in calls if calls[k] != single_calls.get(k))
        runner.wrong.append(f"call counts differ in the single-thread pass: {differ}")
    if failed != single["failed_frac"]:
        runner.wrong.append("failed_frac differs in the single-thread pass")
    return metrics, untraced + traced


def _single_thread_layers(workload: str, seed: int, cycles: int, workdir: Path,
                          seconds: int) -> dict:
    with open(workdir / "single-thread.json", "w+") as fh:
        subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--single-thread-pass", fh.name, "--cycles", str(cycles)],
            check=True, env={**os.environ, **ONE_THREAD}, timeout=60 + 2 * seconds,
            stdout=subprocess.DEVNULL,
        )
        fh.seek(0)
        return json.load(fh)


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"  {name:55s} {metrics[name]:14.6g} {unit}")


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        if args.single_thread_pass:
            runner.warm_up()
            tracer = tracing.Tracer()
            records = []
            for cycle in range(1, args.cycles + 1):
                records += _traced_cycle(runner, tracer, cycle)
            metrics = _layer_metrics(
                tracer, records, SPANS / f"{args.workload}-seed{args.seed}-1t.spans.tsv"
            )
            failed = sum(not r[2] for r in records) / len(records)
            with open(args.single_thread_pass, "w") as fh:
                json.dump({"metrics": metrics, "failed_frac": failed}, fh)
            return 0
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
        print("env " + json.dumps(environment()))
        if args.trace:
            metrics, records = layers(runner, args.workload, args.seed, args.seconds)
            units = tracing.metric_units()
        else:
            metrics, records = end_to_end(runner, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not r[2] for r in records)
    print(
        f"output checks: {len(records)} ops, {len(records) - failed} passed, {failed} failed "
        f"(failed_frac {failed / len(records):.6g}), {len(runner.wrong)} wrong"
    )
    for what, count in sorted(_tally(records).items()):
        print(f"  failed: {what} x{count}")
    for what in runner.wrong[:20]:
        print(f"  WRONG: {what}")
    by_label = {}
    for label, elapsed, *_ in records:
        by_label.setdefault(label, []).append(elapsed * 1e3)
    print("median ms by op label:")
    for label, times in sorted(by_label.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  {label:30s} {statistics.median(times):10.3f} x{len(times)}")
    _print_metrics(metrics, units)
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload and pass in a fresh process, so setup_s and peak RSS are its own."""
    names = W.WORKLOADS if args.workload == "all" else [args.workload]
    passes = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    for name in names:
        for trace in passes:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--trace", str(trace)],
                check=True, stdout=subprocess.PIPE, text=True, timeout=120 + 4 * args.seconds,
            )
            print(done.stdout, end="")
            results[f"{name} trace {trace}"] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    if listed != [E2E_UNITS, tracing.metric_units()]:
        print("error: BENCHMARK.json lists other metrics than run.py reports", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *W.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--single-thread-pass", help=argparse.SUPPRESS)
    parser.add_argument("--cycles", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must equal run_seconds in BENCHMARK.json ({spec['run_seconds']})")
    alone = args.workload != "all" and (args.trace is not None or args.single_thread_pass)
    if not (SRC / "liqgames" / "cli.py").is_file():
        print(f"error: no liqgames sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_workload(args) if alone else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
