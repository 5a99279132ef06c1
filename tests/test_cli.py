"""Command-line interface: exit codes, file formats, reproducibility.

Commands run in-process through main(argv) so exit codes and streams are
checked directly; one subprocess test confirms the installed console script
wires up to the same entry point.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from liqgames import analysis, bvp, cli, closed_form, oracle
from liqgames.cli import main
from liqgames.model import (
    AgentSpec,
    DriftSpec,
    Horizon,
    MarketParams,
    dump_problem,
    load_problem,
    validate_problem,
)


@pytest.fixture
def problem_file(tmp_path):
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    problem = validate_problem(
        market, (AgentSpec(1.12, 0.8), AgentSpec(2.06, 0.8)), Horizon.finite(2.0)
    )
    path = tmp_path / "prob.json"
    dump_problem(problem, str(path))
    return path


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", skip_header=1)


# ---------------------------------------------------------------------------
# equilibrium command
# ---------------------------------------------------------------------------


def test_equilibrium_csv_and_sidecar(tmp_path, problem_file, capsys):
    out = tmp_path / "eq.csv"
    assert main(["equilibrium", "--problem", str(problem_file), "--out", str(out)]) == 0
    assert "route: closed_form" in capsys.readouterr().out

    header = out.read_text().splitlines()[0]
    assert header == "t,X_1,X_2,rate_1,rate_2"
    data = read_csv(out)
    assert data.shape == (401, 5)

    # 17 significant digits round-trip doubles exactly
    problem = load_problem(str(problem_file))
    ref = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    for i in (0, 1):
        assert np.array_equal(data[:, 1 + i], ref[i].position(data[:, 0]))

    side = json.loads((tmp_path / "eq.json").read_text())
    assert side["route"] == "closed_form"
    assert side["residual"]["relative"] < 1e-12
    assert side["grid"] == {"n_steps": 400, "t_max": 2.0}
    assert len(side["agents"]) == 2
    assert len(side["agents_exact"]) == 2
    assert "theta_plus" in side["spectral"]
    sampled_e = side["agents"][0]["expected_revenue"]
    exact_e = side["agents_exact"][0]["expected_revenue"]
    assert abs(sampled_e - exact_e) < 1e-6 * abs(exact_e)


def test_equilibrium_reruns_are_byte_identical(tmp_path, problem_file):
    args = ["equilibrium", "--problem", str(problem_file), "--mc-paths", "500"]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    a_side = (tmp_path / "a.json").read_bytes()
    b_side = (tmp_path / "b.json").read_bytes()
    assert a_side == b_side
    assert b"monte_carlo" in a_side


def test_equilibrium_monte_carlo_is_one_seeded_path_set(tmp_path, problem_file):
    out = tmp_path / "mc.csv"
    argv = ["equilibrium", "--problem", str(problem_file), "--out", str(out),
            "--mc-paths", "500", "--grid", "64", "--seed", "9"]
    assert main(argv) == 0
    side = json.loads((tmp_path / "mc.json").read_text())
    problem = load_problem(str(problem_file))
    strategies = closed_form.equal_alpha_finite(problem.market, problem.agents, 2.0)
    cfg = analysis.MonteCarloConfig(paths=500, time_steps=64, seed=9)
    want = [mc.to_dict() for mc in analysis.monte_carlo_revenues(strategies, problem, cfg)]
    assert side["monte_carlo"] == want
    for sampled, exact in zip(side["monte_carlo"], side["agents_exact"], strict=True):
        assert abs(sampled["mean"] - exact["expected_revenue"]) <= 5.0 * sampled["mean_se"]


def test_equilibrium_bvp_route_and_tolerance_gate(tmp_path):
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    problem = validate_problem(
        market, (AgentSpec(1.12, 0.5), AgentSpec(2.06, 1.5)), Horizon.finite(2.0)
    )
    src = tmp_path / "het.json"
    dump_problem(problem, str(src))
    out = tmp_path / "het_out.csv"
    assert main(["equilibrium", "--problem", str(src), "--out", str(out)]) == 0
    side = json.loads((tmp_path / "het_out.json").read_text())
    assert side["route"] == "bvp"
    assert side["residual"]["relative"] < 1e-6
    assert "agents_exact" not in side  # grid strategies have no exact route

    # the same solve fails the gate when the tolerance is below its residual
    tol = side["residual"]["relative"] / 2.0
    code = main(["equilibrium", "--problem", str(src), "--out",
                 str(tmp_path / "het_t.csv"), "--residual-tol", repr(tol)])
    assert code == 4


def test_grid_equilibrium_takes_one_schur_form(tmp_path, monkeypatch):
    # the residual check reads the solve's own interval map, so a grid op
    # splits M's spectrum once, not once to solve and again to check
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0, drift=DriftSpec.constant(0.3))
    problem = validate_problem(
        market, (AgentSpec(1.12, 0.5), AgentSpec(2.06, 1.5)), Horizon.finite(2.0)
    )
    src = tmp_path / "het.json"
    dump_problem(problem, str(src))
    calls = []
    real = bvp.dgees
    monkeypatch.setattr(bvp, "dgees", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert main(["equilibrium", "--problem", str(src), "--out", str(tmp_path / "eq.csv")]) == 0
    assert json.loads((tmp_path / "eq.json").read_text())["route"] == "bvp"
    assert len(calls) == 1


@pytest.mark.parametrize("alphas, drift, route", [
    ((0.8, 0.8), DriftSpec.zero(), "closed_form"),
    ((0.5, 1.5), DriftSpec.sampled([0.0, 0.7, 2.0], [0.1, -0.3, 0.2]), "bvp"),
])
def test_csv_round_trip_reproduces_sidecar_agents(tmp_path, alphas, drift, route):
    # the sidecar's agents block is a function of the emitted columns alone
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0, drift=drift)
    agents = [AgentSpec(x, a) for x, a in zip((1.12, 2.06), alphas)]
    src = tmp_path / "prob.json"
    dump_problem(validate_problem(market, agents, Horizon.finite(2.0)), str(src))
    out = tmp_path / "eq.csv"
    assert main(["equilibrium", "--problem", str(src), "--out", str(out)]) == 0
    side = json.loads((tmp_path / "eq.json").read_text())
    assert side["route"] == route
    data = read_csv(out)
    results = analysis.mean_variance_sampled(
        data[:, 0], data[:, 1:3].T, data[:, 3:5].T, load_problem(str(src))
    )
    assert [r.to_dict() for r in results] == side["agents"]


def test_equilibrium_stiff_reruns_are_byte_identical(tmp_path):
    market = MarketParams(lam=0.02, gamma=1.0, sigma=1.0, s0=10.0)
    agents = (AgentSpec(1.0, 0.5), AgentSpec(-0.4, 1.0), AgentSpec(2.0, 1.8))
    problem = validate_problem(market, agents, Horizon.finite(8.0))
    src = tmp_path / "stiff.json"
    dump_problem(problem, str(src))
    codes = [
        main(["equilibrium", "--problem", str(src), "--out", str(tmp_path / name)])
        for name in ("a.csv", "b.csv")
    ]
    assert codes == [0, 0]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert json.loads((tmp_path / "a.json").read_text())["route"] == "bvp"


def test_emission_window_follows_the_slowest_live_mode(tmp_path):
    # equal alpha and equal x0: the theta mode's coefficient is exactly 0, so
    # the aggregate's rho_minus sets the window
    market = MarketParams(lam=0.8, gamma=0.6, sigma=0.9, s0=10.0)
    problem = validate_problem(market, [AgentSpec(1.5, 0.7)] * 3, Horizon.infinite())
    src = tmp_path / "twins3.json"
    dump_problem(problem, str(src))
    out = tmp_path / "twins3_out.csv"
    assert main(["equilibrium", "--problem", str(src), "--out", str(out)]) == 0
    side = json.loads((tmp_path / "twins3_out.json").read_text())
    rho = side["spectral"]["rho_minus"]
    assert side["grid"]["t_max"] == pytest.approx(math.log(100.0) / abs(rho), rel=1e-12)


def test_equilibrium_infinite_emission_window(tmp_path):
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    problem = validate_problem(
        market, (AgentSpec(1.0, 0.8), AgentSpec(0.5, 0.8)), Horizon.infinite()
    )
    src = tmp_path / "inf.json"
    dump_problem(problem, str(src))
    out = tmp_path / "inf_out.csv"
    assert main(["equilibrium", "--problem", str(src), "--out", str(out)]) == 0
    side = json.loads((tmp_path / "inf_out.json").read_text())
    data = read_csv(out)
    # default window: slowest decay mode down to one percent
    assert data[-1, 0] == side["grid"]["t_max"]
    assert side["grid"]["t_max"] > 2.0
    assert np.max(np.abs(data[-1, 1:3])) < 1e-2 * 1.0
    assert "quartic_roots" in side["spectral"]

    assert main(["equilibrium", "--problem", str(src), "--out",
                 str(tmp_path / "inf5.csv"), "--t-max", "5"]) == 0
    assert read_csv(tmp_path / "inf5.csv")[-1, 0] == 5.0
    for bad in ("nan", "inf", "0"):
        assert main(["equilibrium", "--problem", str(src), "--out",
                     str(tmp_path / "bad.csv"), "--t-max", bad]) == 1
    assert not (tmp_path / "bad.csv").exists()


def test_t_max_rejected_for_finite_horizon(tmp_path, problem_file):
    code = main(["equilibrium", "--problem", str(problem_file), "--out",
                 str(tmp_path / "x.csv"), "--t-max", "5"])
    assert code == 1


def test_output_collision_guards(tmp_path, problem_file):
    before = problem_file.read_bytes()
    assert main(["equilibrium", "--problem", str(problem_file), "--out", str(problem_file)]) == 1
    # sidecar of prob.csv is prob.json, which is the problem file itself
    assert main(["equilibrium", "--problem", str(problem_file), "--out",
                 str(tmp_path / "prob.csv")]) == 1
    assert problem_file.read_bytes() == before


def test_solver_failure_maps_to_exit_2(tmp_path):
    # inventories at the float limit: the marched nodes overflow, a typed
    # solver error, not a RuntimeWarning, and nothing is written
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = (AgentSpec(1e308, 0.5), AgentSpec(1e308, 1.5))
    problem = validate_problem(market, agents, Horizon.finite(0.01))
    src = tmp_path / "overflow.json"
    dump_problem(problem, str(src))
    out = tmp_path / "r.csv"
    assert main(["equilibrium", "--problem", str(src), "--out", str(out),
                 "--grid", "400"]) == 2
    assert not out.exists()
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("x0, alphas, T", [
    (1e250, (0.5, 1.5), 0.01),
    (1e250, (0.5, 0.5), 0.01),
    (100.0, (2.0, 1.5), 5.0),  # finite moments, e^{-alpha E + alpha^2 V / 2} overflows
], ids=["bvp", "closed_form", "cara"])
def test_overflowing_revenue_moments_map_to_exit_2(tmp_path, x0, alphas, T, capsys):
    # inventories near 1e250 solve, but their revenue moments overflow: a
    # typed error (the suite turns RuntimeWarnings into errors), nothing written
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    agents = [AgentSpec(x0, a) for a in alphas]
    src = tmp_path / "huge.json"
    dump_problem(validate_problem(market, agents, Horizon.finite(T)), str(src))
    out = tmp_path / "r.csv"
    assert main(["equilibrium", "--problem", str(src), "--out", str(out)]) == 2
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "r.json").exists()


def test_config_errors_map_to_exit_1(tmp_path, problem_file):
    assert main(["equilibrium", "--problem", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["equilibrium", "--problem", str(bad),
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["scan", "--problem", str(problem_file), "--out", str(tmp_path / "s.csv"),
                 "--param", "lambda", "--values", "1:2",
                 "--probe-agent", "1", "--probe-time", "1.0"]) == 1


@pytest.mark.parametrize("drift", [
    {"type": "constant", "value": float("nan")},
    {"type": "constant", "value": float("inf")},
    {"type": "sampled", "grid": [0.0, 2.0], "values": [0.1, float("-inf")]},
], ids=["constant_nan", "constant_inf", "sampled_inf"])
def test_non_finite_drift_is_a_config_error(tmp_path, drift):
    # json writes and reads NaN and Infinity literals; validation must reject them
    src = tmp_path / "drift.json"
    src.write_text(json.dumps({
        "market": {"lambda": 1.0, "gamma": 1.0, "sigma": 1.0, "s0": 10.0, "drift": drift},
        "agents": [{"x0": 1.12, "alpha": 0.5}, {"x0": 2.06, "alpha": 1.5}],
        "horizon": {"type": "finite", "T": 2.0},
    }))
    out = tmp_path / "eq.csv"
    assert main(["equilibrium", "--problem", str(src), "--out", str(out)]) == 1
    assert main(["scan", "--problem", str(src), "--out", str(out), "--param", "lambda",
                 "--values", "0.5,1", "--probe-agent", "1", "--probe-time", "1"]) == 1
    assert not out.exists()
    assert not (tmp_path / "eq.json").exists()


_NOT_NUMBERS = [
    ("horizon", "T", None),  # once read as the infinite horizon and solved there
    ("horizon", "T", True),
    ("horizon", "T", "2.0"),
    ("market", "lambda", True),
    ("market", "lambda", "0.3"),
    ("market", "gamma", 10**400),
    ("agent", "x0", False),
    ("agent", "alpha", [0.5]),
    ("drift", "value", None),
    ("drift", "value", [1]),
    ("drift", "value", "0.3"),
    ("drift", "value", True),
    ("drift", "grid", {"a": 1}),
    ("drift", "grid", [0.0, "2.0"]),
    ("drift", "values", [0.1, True]),
    ("drift", "values", [0.1, [0.2]]),
]


@pytest.mark.parametrize("section, key, value", _NOT_NUMBERS,
                         ids=[f"{s}.{k}={json.dumps(v)[:12]}" for s, k, v in _NOT_NUMBERS])
def test_problem_fields_must_be_numbers(tmp_path, capsys, section, key, value):
    # one rule for every number in a problem file: a finite real, not a bool
    # and not a string; anything else is a config error that writes nothing
    drift = ({"type": "constant", "value": 0.3} if key == "value" else
             {"type": "sampled", "grid": [0.0, 2.0], "values": [0.1, 0.2]})
    market = {"lambda": 1.0, "gamma": 1.0, "sigma": 1.0, "s0": 10.0, "drift": drift}
    agent = {"x0": 1.12, "alpha": 0.5}
    horizon = {"type": "finite", "T": 2.0}
    {"horizon": horizon, "market": market, "agent": agent, "drift": drift}[section][key] = value
    src = tmp_path / "p.json"
    src.write_text(json.dumps({"market": market, "agents": [agent, {"x0": 2.06, "alpha": 1.5}],
                               "horizon": horizon}))
    out = tmp_path / "eq.csv"
    assert main(["equilibrium", "--problem", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid parameter") and err.count("\n") == 1, err
    assert not out.exists()
    assert not (tmp_path / "eq.json").exists()


def test_usage_errors_map_to_exit_1(tmp_path, problem_file, capsys):
    # argparse's own exit code 2 would read as a solver failure
    out = str(tmp_path / "x.csv")
    assert main(["equilibrium", "--problem", str(problem_file)]) == 1
    assert main(["equilibrium", "--problem", str(problem_file), "--out", out,
                 "--grid", "abc"]) == 1
    assert main(["oracle-check", "--problem", str(problem_file),
                 "--damping", "0.5"]) == 1
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_reused_parser_gives_fresh_parser_outputs(tmp_path, problem_file):
    # one parser serves every main() call in a process; no flag value or
    # default may carry over from one call to the next
    market = MarketParams(lam=1.0, gamma=1.0, sigma=1.0, s0=10.0)
    infinite = tmp_path / "inf.json"
    dump_problem(validate_problem(market, (AgentSpec(1.0, 0.8), AgentSpec(0.5, 0.8)),
                                  Horizon.infinite()), str(infinite))
    fin, inf = str(problem_file), str(infinite)
    calls = [
        ["equilibrium", "--problem", fin, "--out", "{d}/bad.csv", "--bogus"],
        ["equilibrium", "--problem", fin, "--out", "{d}/eq.csv"],
        ["oracle-check", "--problem", fin, "--grid", "60", "--out", "{d}/oracle.json"],
        ["equilibrium", "--problem", fin, "--out", "{d}/mc5.csv", "--mc-paths", "200",
         "--seed", "5"],
        ["equilibrium", "--problem", fin, "--out", "{d}/mc0.csv", "--mc-paths", "200"],
        ["equilibrium", "--problem", inf, "--out", "{d}/inf3.csv", "--t-max", "3"],
        ["equilibrium", "--problem", inf, "--out", "{d}/inf.csv"],
    ]

    def run(name, fresh):
        d = tmp_path / name
        d.mkdir()
        codes = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            codes.append(main([a.format(d=d) for a in argv]))
        return codes, {f.name: f.read_bytes() for f in sorted(d.iterdir())}

    reused = run("reused", fresh=False)
    assert cli._build_parser() is cli._build_parser()
    fresh = run("fresh", fresh=True)
    assert reused[0] == fresh[0] == [1, 0, 0, 0, 0, 0, 0]
    assert reused[1].keys() == fresh[1].keys() and len(reused[1]) == 11
    for name, data in reused[1].items():
        assert data == fresh[1][name], name
    assert reused[1]["mc5.json"] != reused[1]["mc0.json"]


def test_rebound_handlers_take_effect_after_the_parser_is_built(problem_file, monkeypatch):
    # the reused parser stores no handler: each call looks the handlers up by name
    assert main(["classify", "--lam", "1", "--gamma", "1", "--sigma", "1", "--alpha", "1"]) == 0
    seen = []
    for name in ("_cmd_equilibrium", "_cmd_scan", "_cmd_oracle_check", "_cmd_classify"):
        monkeypatch.setattr(cli, name, lambda args, name=name: seen.append(name) or 0)
    assert main(["equilibrium", "--problem", str(problem_file), "--out", "x.csv"]) == 0
    assert main(["scan", "--problem", str(problem_file), "--out", "x.csv", "--param", "n",
                 "--values", "1,2", "--probe-agent", "1", "--probe-time", "0.5"]) == 0
    assert main(["oracle-check", "--problem", str(problem_file)]) == 0
    assert main(["classify", "--lam", "1", "--gamma", "1", "--sigma", "1", "--alpha", "1"]) == 0
    assert seen == ["_cmd_equilibrium", "_cmd_scan", "_cmd_oracle_check", "_cmd_classify"]


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
def test_non_finite_or_negative_tolerances_are_rejected(tmp_path, problem_file, value):
    out = tmp_path / "x.csv"
    assert main(["equilibrium", "--problem", str(problem_file), "--out", str(out),
                 "--residual-tol", value]) == 1
    assert main(["oracle-check", "--problem", str(problem_file), "--tol", value]) == 1
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0", "2", "7"])
def test_too_coarse_emission_grid_writes_nothing(tmp_path, problem_file, grid):
    # every --grid takes the solver's minimum of 8 intervals, checked at parse time
    out = tmp_path / "coarse.csv"
    assert main(["equilibrium", "--problem", str(problem_file), "--out", str(out),
                 "--grid", grid, "--mc-paths", "200"]) == 1
    assert not out.exists()
    assert not (tmp_path / "coarse.json").exists()
    report = tmp_path / "oracle.json"
    assert main(["oracle-check", "--problem", str(problem_file), "--out", str(report),
                 "--grid", grid]) == 1
    assert not report.exists()


# ---------------------------------------------------------------------------
# scan command
# ---------------------------------------------------------------------------


def test_scan_writes_probe_rows(tmp_path, problem_file):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--problem", str(problem_file), "--out", str(out),
                 "--param", "alpha_sigma2", "--values", "0:3:7",
                 "--probe-agent", "1", "--probe-time", "1.0"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,probe_value,status"
    assert len(lines) == 8
    assert all(line.endswith(",ok") for line in lines[1:])
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == list(np.linspace(0.0, 3.0, 7))


def test_scan_records_failed_points(tmp_path, problem_file):
    out = tmp_path / "s3.csv"
    assert main(["scan", "--problem", str(problem_file), "--out", str(out),
                 "--param", "lambda", "--values", "0.0,0.5",
                 "--probe-agent", "1", "--probe-time", "1.0"]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "0,nan,InvalidParam"
    assert lines[2].endswith(",ok")


# ---------------------------------------------------------------------------
# oracle-check and classify commands
# ---------------------------------------------------------------------------


def test_oracle_check_exit_codes(tmp_path, problem_file):
    report = tmp_path / "report.json"
    assert main(["oracle-check", "--problem", str(problem_file),
                 "--out", str(report)]) == 0
    side = json.loads(report.read_text())
    assert side["iteration"]["converged"] is True
    assert side["max_gap"] < 1e-2

    assert side["iteration"]["sweeps"] == 1
    assert side["iteration"]["max_update"] <= side["iteration"]["tol"]

    assert main(["oracle-check", "--problem", str(problem_file),
                 "--max-sweeps", "2"]) == 1  # the iteration knobs are gone
    scan_out = tmp_path / "scan.csv"
    assert main(["scan", "--problem", str(problem_file), "--out", str(scan_out),
                 "--param", "lambda", "--values", "0.5,1", "--probe-agent", "1",
                 "--probe-time", "1", "--grid", "400"]) == 1  # so is the scan's grid
    assert not scan_out.exists()
    assert main(["oracle-check", "--problem", str(problem_file),
                 "--tol", "1e-12"]) == 4


def test_oracle_failures_map_to_exit_2(tmp_path, problem_file, monkeypatch):
    exact = oracle.DiscreteGame.best_response

    def off_by_a_little(self, i, paths):
        return exact(self, i, paths) + 1e-6

    report = tmp_path / "report.json"
    with monkeypatch.context() as patch:
        patch.setattr(oracle.DiscreteGame, "best_response", off_by_a_little)
        assert main(["oracle-check", "--problem", str(problem_file),
                     "--out", str(report)]) == 2
    assert json.loads(report.read_text())["iteration"]["converged"] is False

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(oracle, "solve_banded", singular)
    assert main(["oracle-check", "--problem", str(problem_file)]) == 2


def test_classify_prints_role(capsys):
    assert main(["classify", "--lam", "0.15", "--gamma", "0.16",
                 "--sigma", "1.0", "--alpha", "0.33"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["role"] == "predatory"
    assert out["margin"] < 0


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_classify_rejects_non_finite_alpha(alpha, capsys):
    assert main(["classify", "--lam", "0.15", "--gamma", "0.16",
                 "--sigma", "1.0", "--alpha", alpha]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "alpha" in captured.err


def test_console_script_entry_point(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys; from liqgames.cli import main; sys.exit(main(sys.argv[1:]))",
         "classify", "--lam", "0.16", "--gamma", "0.16",
         "--sigma", "1.0", "--alpha", "0.33"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["role"] == "liquidity_provision"
