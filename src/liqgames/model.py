"""Domain types for n-agent optimal liquidation under linear price impact.

The market model: trading at rate dX/dt moves the quoted price permanently
(coefficient gamma per unit of net inventory change, shared by all agents)
and costs a temporary spread proportional to the aggregate trading rate
(coefficient lam). Each agent i starts from inventory x0_i, must reach zero
by the horizon, and scores revenue by mean minus (alpha_i/2) times variance.

This module holds parameter records, the two strategy representations
(exponential sums and sampled grids), problem validation, and JSON I/O.
All types are immutable after construction; arrays are frozen read-only.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    GridMismatch,
    HorizonMismatch,
    InvalidParam,
    OutOfDomain,
    UnsupportedCase,
)

__all__ = [
    "DriftSpec",
    "MarketParams",
    "AgentSpec",
    "Horizon",
    "Problem",
    "ExpSumStrategy",
    "GridStrategy",
    "SpectralData",
    "Strategy",
    "validate_problem",
    "system_matrix",
    "alphas_equal",
    "problem_to_dict",
    "problem_from_dict",
    "load_problem",
    "dump_problem",
]

# Tolerance for "equal risk aversion" routing decisions.
_ALPHA_EQ_RTOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _real(name: str, value) -> float:
    """value as a float; InvalidParam(name) unless it is a finite real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParam(name, "must be a finite number")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise InvalidParam(name, "must be a finite number")
    return value


def _real_array(name: str, values) -> np.ndarray:
    """values as a float array; InvalidParam(name) unless all are real numbers, none a bool."""
    try:
        a = np.asarray(values)
        ok = a.dtype.kind in "iuf" and not (
            isinstance(values, (list, tuple)) and any(isinstance(v, bool) for v in values))
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise InvalidParam(name, "must be an array of numbers")
    return a.astype(float)


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DriftSpec:
    """Deterministic drift b(t) of the unaffected price.

    kind is one of "zero", "constant", "sampled". Sampled drifts are linearly
    interpolated between a strictly increasing sample grid. The constant
    value and every sample must be a finite number, not a bool.
    """

    kind: str
    value: float = 0.0
    grid: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "sampled"):
            raise InvalidParam("drift", f"unknown kind {self.kind!r}")
        object.__setattr__(self, "value", _real("drift", self.value))
        if self.kind == "sampled":
            if self.grid is None or self.values is None:
                raise InvalidParam("drift", "sampled drift needs grid and values")
            g = _real_array("drift", self.grid)
            v = _real_array("drift", self.values)
            if g.ndim != 1 or g.shape != v.shape or g.size < 2:
                raise InvalidParam("drift", "grid and values must be 1d, equal length >= 2")
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
                raise InvalidParam("drift", "sampled grid and values must be finite")
            if not np.all(np.diff(g) > 0):
                raise InvalidParam("drift", "sample grid must be strictly increasing")
            object.__setattr__(self, "grid", _freeze(g))
            object.__setattr__(self, "values", _freeze(v))
        else:
            object.__setattr__(self, "grid", None)
            object.__setattr__(self, "values", None)

    @classmethod
    def zero(cls) -> "DriftSpec":
        return cls(kind="zero")

    @classmethod
    def constant(cls, value: float) -> "DriftSpec":
        return cls(kind="constant", value=value)

    @classmethod
    def sampled(cls, grid, values) -> "DriftSpec":
        return cls(kind="sampled", grid=grid, values=values)

    @property
    def is_zero(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "constant":
            return self.value == 0.0
        return bool(np.all(self.values == 0.0))

    def covers(self, T: float) -> bool:
        """Whether b(t) is defined on all of [0, T]."""
        if self.kind != "sampled":
            return True
        return self.grid[0] <= 0.0 and self.grid[-1] >= T

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(t)
        elif self.kind == "constant":
            out = np.full_like(t, self.value)
        else:
            out = np.interp(t, self.grid, self.values)
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        if self.kind == "zero":
            return {"type": "zero"}
        if self.kind == "constant":
            return {"type": "constant", "value": self.value}
        return {
            "type": "sampled",
            "grid": [float(x) for x in self.grid],
            "values": [float(x) for x in self.values],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DriftSpec":
        if not isinstance(d, dict) or "type" not in d:
            raise InvalidParam("drift", "expected an object with a 'type' field")
        kind = d["type"]
        if kind == "zero":
            return cls.zero()
        if kind == "constant":
            return cls.constant(d.get("value", 0.0))
        if kind == "sampled":
            return cls.sampled(d.get("grid"), d.get("values"))
        raise InvalidParam("drift", f"unknown kind {kind!r}")


@dataclass(frozen=True, eq=False)
class MarketParams:
    """Market impact and price parameters.

    lam    temporary impact coefficient, > 0
    gamma  permanent impact coefficient, >= 0
    sigma  price volatility, >= 0
    s0     initial unaffected price
    drift  deterministic drift of the unaffected price
    """

    lam: float
    gamma: float
    sigma: float
    s0: float = 0.0
    drift: DriftSpec = field(default_factory=DriftSpec.zero)

    def __post_init__(self):
        for name in ("lam", "gamma", "sigma", "s0"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.lam <= 0:
            raise InvalidParam("lambda", "temporary impact must be > 0")
        if self.gamma < 0:
            raise InvalidParam("gamma", "permanent impact must be >= 0")
        if self.sigma < 0:
            raise InvalidParam("sigma", "volatility must be >= 0")
        if not isinstance(self.drift, DriftSpec):
            raise InvalidParam("drift", "must be a DriftSpec")


@dataclass(frozen=True)
class AgentSpec:
    """One agent: initial inventory x0 and risk aversion alpha >= 0."""

    x0: float
    alpha: float

    def __post_init__(self):
        for name in ("x0", "alpha"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.alpha < 0:
            raise InvalidParam("alpha", "risk aversion must be >= 0")


@dataclass(frozen=True)
class Horizon:
    """Trading horizon: finite with deadline T, or infinite."""

    T: Optional[float] = None

    def __post_init__(self):
        if self.T is not None:
            object.__setattr__(self, "T", _real("T", self.T))
            if self.T <= 0:
                raise InvalidParam("T", "horizon length must be > 0")

    @classmethod
    def finite(cls, T: float) -> "Horizon":
        """The horizon ending at T; InvalidParam unless T is a finite number > 0."""
        return cls(T=_real("T", T))

    @classmethod
    def infinite(cls) -> "Horizon":
        return cls(T=None)

    @property
    def is_finite(self) -> bool:
        return self.T is not None

    def to_dict(self) -> dict:
        if self.is_finite:
            return {"type": "finite", "T": self.T}
        return {"type": "infinite"}

    @classmethod
    def from_dict(cls, d: dict) -> "Horizon":
        if not isinstance(d, dict) or "type" not in d:
            raise InvalidParam("horizon", "expected an object with a 'type' field")
        if d["type"] == "finite":
            if "T" not in d:
                raise InvalidParam("horizon", "finite horizon needs T")
            return cls.finite(d["T"])
        if d["type"] == "infinite":
            return cls.infinite()
        raise InvalidParam("horizon", f"unknown type {d['type']!r}")


def alphas_equal(alphas) -> bool:
    a = np.asarray(alphas, dtype=float)
    return float(np.ptp(a)) <= _ALPHA_EQ_RTOL * max(1.0, float(np.max(np.abs(a))))


@dataclass(frozen=True, eq=False)
class Problem:
    """A validated liquidation game. Construct through validate_problem."""

    market: MarketParams
    agents: Tuple[AgentSpec, ...]
    horizon: Horizon

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def x0(self) -> np.ndarray:
        return np.array([a.x0 for a in self.agents])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([a.alpha for a in self.agents])

    @property
    def equal_alpha(self) -> bool:
        return alphas_equal(self.alphas)

    @property
    def T(self) -> Optional[float]:
        return self.horizon.T


def validate_problem(market: MarketParams, agents: Sequence[AgentSpec], horizon: Horizon) -> Problem:
    """Check a parameter set for solvability and return the validated problem.

    Finite horizons accept any number of agents with alpha >= 0 and any drift
    covering [0, T]. Infinite horizons require sigma > 0, alpha > 0 for every
    agent, vanishing drift, and either equal risk aversions or exactly two
    agents.
    """
    if not isinstance(market, MarketParams):
        raise InvalidParam("market", "must be a MarketParams")
    agents = tuple(agents)
    if len(agents) == 0:
        raise InvalidParam("agents", "at least one agent required")
    for a in agents:
        if not isinstance(a, AgentSpec):
            raise InvalidParam("agents", "entries must be AgentSpec")
    if not isinstance(horizon, Horizon):
        raise InvalidParam("horizon", "must be a Horizon")

    if horizon.is_finite:
        if not market.drift.covers(horizon.T):
            raise InvalidParam("drift", "sampled drift does not cover [0, T]")
    else:
        if market.sigma <= 0:
            raise InvalidParam("sigma", "infinite horizon requires sigma > 0")
        if any(a.alpha <= 0 for a in agents):
            raise InvalidParam("alpha", "infinite horizon requires alpha > 0 for every agent")
        if not market.drift.is_zero:
            raise InvalidParam("drift", "infinite horizon requires zero drift")
        if len(agents) > 2 and not alphas_equal([a.alpha for a in agents]):
            raise UnsupportedCase(
                "infinite horizon with more than two agents requires equal risk aversion"
            )
    return Problem(market=market, agents=agents, horizon=horizon)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def _last_time(T: float) -> float:
    """Latest time at which a strategy on horizon T evaluates; see _check_profile."""
    return T + 1e-12 * max(1.0, T)


def _in_domain(t, T: Optional[float]) -> np.ndarray:
    """t as a float array; OutOfDomain for NaN, before 0 or past T (None: no end)."""
    t = np.asarray(t, dtype=float)
    # float compares for scalars, min/max for arrays: this runs on every evaluation
    if t.ndim == 0:
        lo = hi = float(t)
    elif t.size:
        lo, hi = t.min(), t.max()
    else:
        return t
    # negated, so that NaN fails both
    if not lo >= 0.0:
        raise OutOfDomain(f"t must be >= 0, got {lo}")
    if T is not None and not hi <= _last_time(T):
        raise OutOfDomain(f"t must be <= {T}, got {hi}")
    return t


@dataclass(frozen=True, eq=False)
class ExpSumStrategy:
    """Inventory path X(t) = sum_k c_k exp(r_k (t - a_k)).

    Each term stores the anchor time a_k at which its coefficient is the
    term's value, so positive-rate terms (anchored at the horizon end) are
    never evaluated by exponentiating a positive quantity; that keeps the
    representation exact for arbitrarily stiff rate constants. The closed
    forms are all such sums, except the risk-neutral single-agent line,
    a GridStrategy (closed_form.single_agent_finite).

    Finite-horizon strategies must end at zero inventory; infinite-horizon
    strategies must have strictly decaying terms. position and rate evaluate
    X and X' (checks and integrals over a profile read _mode_table instead);
    before 0 or past a finite T they raise OutOfDomain, not extrapolate.
    """

    coefs: np.ndarray
    rates: np.ndarray
    anchors: np.ndarray
    horizon: Horizon

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefs, dtype=float))
        r = np.atleast_1d(np.asarray(self.rates, dtype=float))
        a = np.atleast_1d(np.asarray(self.anchors, dtype=float))
        if c.ndim != 1 or not (c.shape == r.shape == a.shape):
            raise InvalidParam("terms", "coefs, rates, anchors must be 1d and align")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(r)) and np.all(np.isfinite(a))):
            raise InvalidParam("terms", "term data must be finite")
        object.__setattr__(self, "coefs", _freeze(c))
        object.__setattr__(self, "rates", _freeze(r))
        object.__setattr__(self, "anchors", _freeze(a))
        if not isinstance(self.horizon, Horizon):
            raise InvalidParam("horizon", "must be a Horizon")
        if self.horizon.is_finite:
            x_end = abs(self.position(self.horizon.T))
            if x_end > 1e-12 * max(1.0, abs(self.position(0.0))):
                raise InvalidParam("terms", "finite-horizon strategy must end at zero inventory")
        else:
            if np.any(self.rates >= 0):
                raise InvalidParam("rates", "infinite-horizon terms must decay strictly")

    def _accumulate(self, t, derivative: bool):
        t = _in_domain(t, self.horizon.T)
        out = np.zeros_like(t)
        for c, r, a in zip(self.coefs, self.rates, self.anchors):
            e = np.exp(r * (t - a))
            out += c * e * (r if derivative else 1.0)
        return out if out.ndim else float(out)

    def position(self, t):
        return self._accumulate(t, False)

    def rate(self, t):
        """Trading rate dX/dt."""
        return self._accumulate(t, True)

    def initial_position(self) -> float:
        return float(self.position(0.0))


def _check_profile(profile: Sequence[Strategy], problem: Problem) -> Optional[np.ndarray]:
    """The shared grid of a whole profile for problem, None if it holds no grid member.

    Every whole-profile consumer runs this first. InvalidParam unless there
    is one strategy per agent; HorizonMismatch for any member off the
    problem's horizon (a grid's ends at its last node; each finite end must
    be by the other's _last_time, so every accepted member evaluates on all
    of [0, T]); GridMismatch when grid members sit on different grids.
    """
    if len(profile) != problem.n:
        raise InvalidParam("profile", f"expected {problem.n} strategies, got {len(profile)}")
    horizon = problem.horizon
    for s in profile:
        hz = s.horizon
        if hz.is_finite != horizon.is_finite:
            raise HorizonMismatch("strategy horizon does not match the problem")
        if horizon.is_finite and max(hz.T, horizon.T) > _last_time(min(hz.T, horizon.T)):
            raise HorizonMismatch(f"strategy horizon {hz.T} != problem horizon {horizon.T}")
    grids = [s.grid for s in profile if isinstance(s, GridStrategy)]
    for g in grids[1:]:
        if g.shape != grids[0].shape or not np.array_equal(g, grids[0]):
            raise GridMismatch("grid strategies must share one grid")
    return grids[0] if grids else None


def _sample_profile(profile: Sequence[Strategy], t) -> Tuple[np.ndarray, np.ndarray]:
    """(n, len(t)) positions and rates of every member at times t.

    Each row is the member's own position(t) and rate(t); at a grid
    member's nodes, interpolation returns the stored node values exactly.
    """
    return (np.array([s.position(t) for s in profile], dtype=float),
            np.array([s.rate(t) for s in profile], dtype=float))


def _decay_time(profile: Sequence[ExpSumStrategy], decay: float) -> float:
    """Time by which the slowest live mode of an infinite-horizon profile falls by e^-decay.

    Live modes are those of _mode_table: a mode that no agent holds does not
    set the window, one held by a rounding-size coefficient does. A profile
    that holds no inventory at all has no live mode and falls back to every
    term's rate.
    """
    rates = _mode_table(profile)[1]
    if rates.size == 0:
        rates = np.concatenate([s.rates for s in profile])
    return decay / abs(float(np.max(rates)))


def _exp_sum_drift(problem: Problem) -> float:
    """The constant drift b that an exponential-sum profile is checked and integrated under.

    A sampled drift of zeros is the zero drift the closed forms solve; any
    other sampled drift raises UnsupportedCase.
    """
    drift = problem.market.drift
    if drift.kind == "sampled" and not drift.is_zero:
        raise UnsupportedCase("exponential-sum profiles need a zero or constant drift")
    return drift.value if drift.kind == "constant" else 0.0


def _uniform(steps: np.ndarray) -> bool:
    """Whether every grid step is within 1e-9 relative of the first."""
    return bool(np.all(np.abs(steps - steps[0]) <= 1e-9 * abs(steps[0])))


def _mode_table(profile: Sequence[ExpSumStrategy]):
    """(C, rates, anchors) of an exponential-sum profile over its distinct modes.

    C[i, k] is agent i's coefficient of the mode e^{rates[k] (t - anchors[k])}.
    Terms share a mode only when rate and anchor are exactly equal, and a zero
    coefficient adds no mode. Modes are sorted by (rate, anchor); an agent
    with one term per mode has exactly that term's coefficient in C.
    """
    c, r, a = (np.concatenate([getattr(s, f) for s in profile])
               for f in ("coefs", "rates", "anchors"))
    agent = np.repeat(np.arange(len(profile)), [s.coefs.size for s in profile])
    live = c != 0.0
    modes, which = np.unique(np.stack([r[live], a[live]], axis=1), axis=0, return_inverse=True)
    C = np.zeros((len(profile), modes.shape[0]))
    np.add.at(C, (agent[live], which.reshape(-1)), c[live])
    return C, modes[:, 0], modes[:, 1]


@dataclass(frozen=True, eq=False)
class GridStrategy:
    """Inventory path and trading rate sampled on a uniform grid over [0, T].

    positions and rates are the node values of X and X' (the strategies of
    bvp.solve_finite carry its solved node states); each is linearly
    interpolated in between. The final position must be exactly zero.
    Evaluating outside [0, T] raises OutOfDomain instead of clamping.
    """

    grid: np.ndarray
    positions: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        if g.ndim != 1 or g.shape != p.shape:
            raise InvalidParam("grid", "grid and positions must be 1d and equal length")
        if r.shape != p.shape:
            raise InvalidParam("rates", "one rate per grid node required")
        if g.size < 9:
            raise InvalidParam("grid", "need at least 8 intervals")
        if g[0] != 0.0:
            raise InvalidParam("grid", "grid must start at 0")
        steps = np.diff(g)
        if not np.all(steps > 0):
            raise InvalidParam("grid", "grid must be strictly increasing")
        if not _uniform(steps):
            raise InvalidParam("grid", "grid must be uniform")
        if p[-1] != 0.0:
            raise InvalidParam("positions", "final position must be exactly zero")
        if not np.all(np.isfinite(p)):
            raise InvalidParam("positions", "positions must be finite")
        if not np.all(np.isfinite(r)):
            raise InvalidParam("rates", "rates must be finite")
        object.__setattr__(self, "grid", _freeze(g))
        object.__setattr__(self, "positions", _freeze(p))
        object.__setattr__(self, "rates", _freeze(r))

    @property
    def horizon(self) -> Horizon:
        return Horizon.finite(float(self.grid[-1]))

    def position(self, t):
        t = _in_domain(t, float(self.grid[-1]))
        out = np.interp(t, self.grid, self.positions)
        return out if out.ndim else float(out)

    def rate(self, t):
        t = _in_domain(t, float(self.grid[-1]))
        out = np.interp(t, self.grid, self.rates)
        return out if out.ndim else float(out)

    def initial_position(self) -> float:
        return float(self.positions[0])


Strategy = Union[ExpSumStrategy, GridStrategy]


# ---------------------------------------------------------------------------
# spectral data and system matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Mode structure of the equilibrium dynamics for one parameter set.

    theta_plus/theta_minus are the growth/decay rates of the inventory
    differences from the average; rho_plus/rho_minus drive the aggregate.
    kappa is the single-agent decay rate sqrt(alpha sigma^2 / (2 lam)). xi is
    the dimensionless competition ratio 4 alpha sigma^2 lam / gamma^2, None
    when gamma = 0 (role classification then falls back to the rate gap).
    quartic_roots holds the two decaying rates of the heterogeneous
    two-player infinite-horizon case when applicable.
    """

    theta_hat: float
    rho_hat: float
    theta_plus: float
    theta_minus: float
    rho_plus: float
    rho_minus: float
    kappa: float
    xi: Optional[float]
    system_matrix: np.ndarray
    quartic_roots: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        object.__setattr__(self, "system_matrix", _freeze(self.system_matrix))

    def to_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "rho_hat": self.rho_hat,
            "theta_plus": self.theta_plus,
            "theta_minus": self.theta_minus,
            "rho_plus": self.rho_plus,
            "rho_minus": self.rho_minus,
            "kappa": self.kappa,
            "xi": self.xi,
            "quartic_roots": list(self.quartic_roots) if self.quartic_roots else None,
            "system_matrix": [list(map(float, row)) for row in self.system_matrix],
        }


def system_matrix(market: MarketParams, alphas) -> np.ndarray:
    """First-order coefficient matrix M of the equilibrium ODE system.

    The coupled second-order optimality conditions for n agents, written for
    Z = (X, dX/dt), take the form dZ/dt = M Z + f(t) with

        M = [[0, I], [(A - J A / (n+1)) / lam, (gamma/lam) (I - 2 J/(n+1))]]

    where A = sigma^2 diag(alpha_1..alpha_n) and J is the all-ones matrix.
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    n = a.size
    A = market.sigma**2 * np.diag(a)
    J = np.ones((n, n))
    eye = np.eye(n)
    lower_left = (A - J @ A / (n + 1)) / market.lam
    lower_right = (market.gamma / market.lam) * (eye - 2.0 * J / (n + 1))
    top = np.hstack([np.zeros((n, n)), eye])
    bottom = np.hstack([lower_left, lower_right])
    return np.vstack([top, bottom])


# ---------------------------------------------------------------------------
# JSON problem I/O
# ---------------------------------------------------------------------------


def problem_to_dict(problem: Problem) -> dict:
    m = problem.market
    return {
        "market": {
            "lambda": m.lam,
            "gamma": m.gamma,
            "sigma": m.sigma,
            "s0": m.s0,
            "drift": m.drift.to_dict(),
        },
        "agents": [{"x0": a.x0, "alpha": a.alpha} for a in problem.agents],
        "horizon": problem.horizon.to_dict(),
    }


def problem_from_dict(d: dict) -> Problem:
    if not isinstance(d, dict):
        raise InvalidParam("config", "top level must be an object")
    try:
        md = d["market"]
        ad = d["agents"]
        hd = d["horizon"]
    except (KeyError, TypeError) as exc:
        raise InvalidParam("config", f"missing section: {exc}") from exc
    if not isinstance(md, dict):
        raise InvalidParam("market", "must be an object")
    if "lambda" not in md:
        raise InvalidParam("lambda", "missing")
    market = MarketParams(
        lam=md["lambda"],
        gamma=md.get("gamma", 0.0),
        sigma=md.get("sigma", 0.0),
        s0=md.get("s0", 0.0),
        drift=DriftSpec.from_dict(md["drift"]) if "drift" in md else DriftSpec.zero(),
    )
    if not isinstance(ad, list) or not ad:
        raise InvalidParam("agents", "must be a non-empty list")
    agents = []
    for entry in ad:
        if not isinstance(entry, dict) or "x0" not in entry:
            raise InvalidParam("agents", "each agent needs x0 (and alpha)")
        agents.append(AgentSpec(x0=entry["x0"], alpha=entry.get("alpha", 0.0)))
    horizon = Horizon.from_dict(hd)
    return validate_problem(market, agents, horizon)


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParam("config", f"invalid JSON: {exc}") from exc
    return problem_from_dict(data)


def dump_problem(problem: Problem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")
