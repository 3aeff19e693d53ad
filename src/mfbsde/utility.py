"""Consumption optimisation under mean-field recursive utility.

Wealth follows a geometric jump diffusion drained by the consumption
rate.  Utility is the initial value of a linear mean-field backward
equation whose running term is log(consumption * wealth) and whose
terminal value is a positive multiple of terminal wealth.  The adjoint
pair (p, lambda) gives the candidate optimal rate pi = lambda / p from
the first-order condition of the Hamiltonian.

The utility J(pi) is evaluated through the closed-form engine, whose
one pass over the paths forms the wealth and the pathwise log term
chunk by chunk, and adds the latter to F1's per-path sample.  When the
mean coefficients of Z or K are nonzero the source rows need wealth
derivatives, which are closed-form only for deterministic consumption;
stochastic rates are then cross-checked with the Picard solver instead.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    CoefficientGrid,
    LinearCoefficients,
    TerminalCondition,
    _phi_mean,
    mean_yzk,
    terminal_value,
    wealth_linear,
)
from .errors import CapabilityError, ConfigError, DomainError
from .levy_paths import PathEnsemble, _check_jump_tilt, _cumulate_nodes, \
    _exponent_writer, _log_exponential, _on_nodes, _over_row_blocks
from .linear import GammaEnsemble, _assemble, _left_quadrature, \
    _node_index, neumann_solve, y_closed_formula
from .picard import RegressionBasis, picard_full_freeze

__all__ = [
    "WealthParams",
    "UtilityCoefficients",
    "ControlProcess",
    "AdjointState",
    "simulate_wealth",
    "adjoint_p",
    "adjoint_lambda",
    "solve_adjoints",
    "optimal_pi",
    "hamiltonian",
    "dh_dpi",
    "evaluate_j",
    "picard_utility_y0",
]

P_FLOOR = 1e-8


@dataclass(frozen=True)
class WealthParams:
    """Geometric wealth dynamics: drift b0 and volatility s0 of t, jump
    exposures g0(t, mark) > -1 (in the forms of `UtilityCoefficients`),
    initial wealth x0 > 0."""

    x0: float
    b0: object = 0.0
    sigma0: object = 0.0
    gamma0: object = 0.0

    def on_grid(self, grid, levy, nodes=slice(None)):
        """(b0, s0, g0) on the grid nodes, or on `nodes` of them."""
        if not self.x0 > 0:
            raise ConfigError("initial wealth must be positive")
        t = grid.nodes[nodes]
        b0 = _on_nodes(self.b0, "b0", t)
        s0 = _on_nodes(self.sigma0, "sigma0", t)
        g0 = _on_nodes(self.gamma0, "gamma0", t, levy.marks)
        _check_jump_tilt(g0, t, levy.marks, "gamma0")
        return b0, s0, g0


@dataclass(frozen=True)
class UtilityCoefficients:
    """Coefficients of the utility equation: (alpha0, beta0, eta0)
    multiply the pathwise triplet, (alpha1, beta1, eta1) its means;
    theta is the terminal wealth multiplier (positive, bounded kind).
    Each alpha or beta is a number or a callable of t, each eta a number,
    one value per atom or a callable of (t, mark); `on_grid` names a
    coefficient of another form or not finite in a ConfigError."""

    alpha0: object = 0.0
    alpha1: object = 0.0
    beta0: object = 0.0
    beta1: object = 0.0
    eta0: object = 0.0
    eta1: object = 0.0
    theta: Optional[TerminalCondition] = None

    def on_grid(self, grid, levy, nodes=slice(None)):
        """(a0, a1, b0, b1, e0, e1) on the grid nodes, or on `nodes` of
        them."""
        t = grid.nodes[nodes]
        a0 = _on_nodes(self.alpha0, "alpha0", t)
        a1 = _on_nodes(self.alpha1, "alpha1", t)
        b0 = _on_nodes(self.beta0, "beta0", t)
        b1 = _on_nodes(self.beta1, "beta1", t)
        e0 = _on_nodes(self.eta0, "eta0", t, levy.marks)
        e1 = _on_nodes(self.eta1, "eta1", t, levy.marks)
        _check_jump_tilt(e0, t, levy.marks, "eta0")
        if np.any(e1 < -1.0):
            raise ConfigError("utility jump coefficient eta1 must be >= -1")
        return a0, a1, b0, b1, e0, e1


@dataclass
class ControlProcess:
    """Nonnegative consumption rate, (M+1,) or (n, M+1); `deterministic`
    says it is the same on every path, which the utility routes check."""

    values: np.ndarray
    deterministic: bool

    @staticmethod
    def from_constant(c: float, grid) -> "ControlProcess":
        if not 0.0 <= c < math.inf:
            raise ConfigError("consumption rate must be nonnegative, finite")
        return ControlProcess(np.full(grid.steps + 1, float(c)), True)

    def paths(self, n: int) -> np.ndarray:
        if self.values.ndim == 1:
            return np.broadcast_to(self.values, (n, self.values.size))
        return self.values


def _wealth_chunk(x0: float, wealth, pi: ControlProcess, ens: PathEnsemble,
                  log_rate: bool = False):
    """chunk(rows, level, rate, run) writes log X = log x0 + L_w -
    cumsum(pi dt) of the paths `rows`, L_w the exponent of `wealth` =
    (b0, s0, g0), or log(pi X) with `log_rate`, into the node-major
    (M+1, k) `level` (`rate`, `run`: scratch) and returns their X(T)."""
    dt, rates = ens.grid.dt, pi.paths(ens.n_paths)
    write = _exponent_writer(ens, *(c[:-1] for c in wealth))

    def chunk(rows: slice, level, rate, run) -> np.ndarray:
        write(rows, level, run[1:])
        rate[...] = rates[rows].T
        np.multiply(rate[:-1], dt, out=run[1:])
        _cumulate_nodes(run[1:])
        level[1:] -= run[1:]
        level += math.log(x0)
        x_t = np.exp(level[-1])
        if log_rate:
            level += np.log(rate, out=rate)
        return x_t

    return chunk


def _log_wealth(x0: float, wealth, pi: ControlProcess, ens: PathEnsemble):
    """The whole log X, shape (n, M+1), node-major: `_wealth_chunk` row
    block by row block on the block workers."""
    out = np.empty((ens.n_paths, ens.grid.steps + 1), order="F")
    chunk = _wealth_chunk(x0, wealth, pi, ens)
    _over_row_blocks(range(ens.n_paths), (2, out.shape[1]),
                     lambda b, rows, p: chunk(rows, out.T[:, rows], *p))
    return out


def simulate_wealth(wp: WealthParams, pi: ControlProcess, ens: PathEnsemble
                    ) -> np.ndarray:
    """Strictly positive wealth X = x0 times the stochastic exponential of
    (b0 - pi, s0, g0); the rate is checked as in `evaluate_j`, zero allowed."""
    _check_rate(pi, ens, "simulate_wealth", zero_ok=True)
    logx = _log_wealth(wp.x0, wp.on_grid(ens.grid, ens.levy), pi, ens)
    return np.exp(logx, out=logx)


def adjoint_p(theta: TerminalCondition, ens: PathEnsemble,
              basis: RegressionBasis) -> np.ndarray:
    """Conditional-expectation adjoint p(t_i) = E[theta | F_{t_i}].

    Constant theta propagates exactly; otherwise each node gets a
    regression estimate, and the terminal node is set to theta pathwise.
    """
    n, m = ens.n_paths, ens.grid.steps
    p = np.empty((n, m + 1), order="F")
    p[:] = terminal_value(theta, ens)[:, None]
    if theta.kind != "constant":
        from .coefficient_route import _Regressions  # as picard._route
        reg = _Regressions(ens, basis)
        for i in range(m):
            p[:, i] = reg.fit(i, p[:, m])
    return p


@dataclass
class AdjointState:
    """Adjoints of the consumption problem on the grid."""

    p: np.ndarray             # (n, M+1)
    lam: np.ndarray           # (n, M+1)
    mean_lam: np.ndarray      # (M+1,) analytic exp(int (a0+a1))
    floor_hits: int = 0


def adjoint_lambda(uc: UtilityCoefficients, ens: PathEnsemble):
    """Explicit forward adjoint lambda with lambda(0) = 1.

    E[lambda] = exp(int (a0 + a1)) is plugged in analytically.  The
    integrating factor Upsilon is the reciprocal of the exponential
    propagator built from (a0, b0, e0); the bracket collects the mean
    feed-in terms, including the Brownian cross term -b0 b1 E[lambda]
    and the jump compensator reduction, so that an Euler step of the
    forward equation reproduces lambda to first order in dt.

    Returns (lam, upsilon, mean_lam).
    """
    grid, levy = ens.grid, ens.levy
    a0, a1, b0, b1, e0, e1 = uc.on_grid(grid, levy)
    dt = grid.dt
    n, m = ens.n_paths, grid.steps
    w = levy.weights

    mean_lam = np.exp(_left_quadrature(a0 + a1, dt))

    # integrating factor: inverse of the (a0, b0, e0) propagator
    ups = _log_exponential(ens, a0[:-1], b0[:-1], e0[:-1]).T
    np.negative(ups, out=ups)
    np.exp(ups, out=ups)

    drift = (a1[:-1] - b0[:-1] * b1[:-1]) * dt \
        - (e1[:-1] * w * dt).sum(axis=1)
    ratio = e1[:-1] / (1.0 + e0[:-1])
    # bracket(t_i) = 1 + sum_{l<i} Upsilon_l E[lambda_l] grow_l, one node
    # at a time on node-major columns
    bracket = np.empty((n, m + 1), order="F")
    bracket[:, 0] = 0.0
    d = np.empty((n, 1 + levy.n_atoms), order="F")
    for i in range(m):
        ens.increments(i, out=d)
        grow = bracket[:, i + 1]
        np.multiply(b1[i], d[:, 0], out=grow)
        grow += drift[i]
        for a in range(levy.n_atoms):
            d[:, 1 + a] *= ratio[i, a]
            grow += d[:, 1 + a]
        np.multiply(ups[:, i], mean_lam[i], out=d[:, 0])
        grow *= d[:, 0]
        grow += bracket[:, i]
    bracket += 1.0
    lam = np.divide(bracket, ups, out=bracket)
    return lam, ups, mean_lam


def solve_adjoints(uc: UtilityCoefficients, ens: PathEnsemble,
                   basis: RegressionBasis) -> AdjointState:
    """Both adjoints of the consumption problem on one ensemble."""
    if uc.theta is None:
        raise ConfigError("utility coefficients need a terminal theta")
    lam, ups, mean_lam = adjoint_lambda(uc, ens)
    del ups   # (n, M+1) and read by nothing: free it before p is built
    p = adjoint_p(uc.theta, ens, basis)
    return AdjointState(p=p, lam=lam, mean_lam=mean_lam)


def optimal_pi(adj: AdjointState) -> ControlProcess:
    """First-order optimal rate pi = lambda / p, with p floored at 1e-8
    (warning counts reported through adj.floor_hits).  lambda is
    regressed and can dip to 0 or below, where the rate is not positive
    and `evaluate_j` rejects it; a warning counts those node values.
    """
    hits = int((adj.p < P_FLOOR).sum())
    if hits:
        warnings.warn(
            f"adjoint p fell below the floor on {hits} node values; "
            "clipped before division", stacklevel=2,
        )
    adj.floor_hits = hits
    pi = np.maximum(adj.p, P_FLOOR)
    np.divide(adj.lam, pi, out=pi)
    bad = int((pi <= 0.0).sum())
    if bad:
        warnings.warn(
            f"adjoint lambda <= 0 gives a non-positive rate on {bad} "
            "node values", stacklevel=2,
        )
    det = bool(np.all(pi == pi[0]))
    return ControlProcess(pi[0].copy() if det else pi, det)


def hamiltonian(t, x, y, z, k, ybar, zbar, kbar, pi, p, q, r, lam,
                wp: WealthParams, uc: UtilityCoefficients, grid, levy
                ) -> float:
    """Pointwise Hamiltonian of the consumption problem at the grid node
    t of [0, T] (a ConfigError otherwise).

    Jump integrals are weighted atom sums.  Concave in pi for lam > 0
    (second derivative -lam / pi^2).
    """
    if pi <= 0 or x <= 0:
        raise DomainError("hamiltonian needs pi > 0 and x > 0")
    i = _node_index(grid, t, "t", "hamiltonian")
    # each coefficient evaluated at node i only: one-row arrays
    (b0,), (s0,), (g0,) = wp.on_grid(grid, levy, [i])
    (a0,), (a1,), (b0u,), (b1u,), (e0,), (e1,) = \
        uc.on_grid(grid, levy, [i])
    w = levy.weights
    k = np.asarray(k, dtype=float)
    kbar = np.asarray(kbar, dtype=float)
    r = np.asarray(r, dtype=float)
    out = (b0 - pi) * x * p + s0 * x * q
    if levy.n_atoms:
        out += float((g0 * x * r * w).sum())
    util = a0 * y + a1 * ybar + b0u * z + b1u * zbar \
        + math.log(pi) + math.log(x)
    if levy.n_atoms:
        util += float(((e0 * k + e1 * kbar) * w).sum())
    return float(out + lam * util)


def dh_dpi(pi, p, lam):
    """Derivative of the Hamiltonian in the consumption rate, in the
    reduced form -p + lam / pi whose root is pi = lam / p."""
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0):
        raise DomainError("dh_dpi needs pi > 0")
    return -np.asarray(p) + np.asarray(lam) / pi


def _utility_equation(uc: UtilityCoefficients, grid, levy):
    """The utility equation in linear-engine notation and its grid, from
    one `uc.on_grid` (errors keep the utility names), with g = 0 as the
    running cost is pathwise; ConfigError without a terminal theta."""
    if uc.theta is None:
        raise ConfigError("utility coefficients need a terminal theta")
    coeffs = LinearCoefficients(
        alpha1=uc.alpha0, beta1=uc.beta0, eta1=uc.eta0,
        alpha2=uc.alpha1, beta2=uc.beta1, eta2=uc.eta1,
    )
    a0, a1, b0, b1, e0, e1 = uc.on_grid(grid, levy)
    return coeffs, CoefficientGrid(a1=a0, b1=b0, e1=e0, a2=a1, b2=b1,
                                   e2=e1, g=np.zeros(grid.steps + 1))


def _check_rate(pi: ControlProcess, ens: PathEnsemble, caller: str,
                zero_ok: bool = False) -> None:
    """ConfigError unless the rate has shape (M+1,) or (n, M+1), or if it
    is flagged deterministic but its paths differ; DomainError naming
    `caller` unless it is finite and positive (or zero, with `zero_ok`)."""
    v = pi.values
    shapes = [(ens.grid.steps + 1,), (ens.n_paths, ens.grid.steps + 1)]
    if v.shape not in shapes:
        raise ConfigError(f"the consumption rate must have a shape in "
                          f"{shapes}, got {v.shape}")
    lo = v.min()   # min and max propagate nan
    if not ((lo >= 0.0 if zero_ok else lo > 0.0) and v.max() < math.inf):
        kind = "nonnegative" if zero_ok else "strictly positive"
        raise DomainError(f"{caller} needs a {kind} finite rate")
    if pi.deterministic and v.ndim == 2 and np.any(v != v[0]):
        raise ConfigError("a consumption rate flagged deterministic must "
                          "be the same on every path")


def evaluate_j(wp: WealthParams, uc: UtilityCoefficients,
               pi: ControlProcess, ens: PathEnsemble,
               return_sample: bool = False):
    """Utility of a consumption rate via the closed-form engine, in one
    pass over the paths: each chunk of the assembly forms the running
    cost log(pi X) in log space (`_wealth_chunk`) and multiplies the
    terminal's rate-free path factors (theta and its derivative) by its
    X(T), so no (n, M+1) array is formed.  J is the mean system's V1(0);
    each wealth and utility coefficient is evaluated once.
    Nonzero mean coefficients on Z or K require a deterministic rate;
    without them (beta1 = eta1 = 0, as on every adapted rate) the
    derivative rows are skipped, and the returned MeanVector holds
    zeros in v2 and v3, not E[Z] and E[K].  Returns (J, standard error,
    MeanVector), plus with `return_sample` the per-path sample of
    `y_closed_formula`: F1's node-0 sample shifted to mean J."""
    grid, levy = ens.grid, ens.levy
    b0, s0, g0 = wp.on_grid(grid, levy)
    coeffs, cg = _utility_equation(uc, grid, levy)
    need_rows23 = np.any(cg.b2 != 0.0) or np.any(cg.e2 != 0.0)
    if need_rows23 and not pi.deterministic:
        raise CapabilityError(
            "mean coupling of Z or K with an adapted consumption rate is "
            "outside the closed-form route; use the Picard solver"
        )
    _check_rate(pi, ens, "evaluate_j")
    # theta X(T) at unit wealth: the path factors free of the rate
    tc = wealth_linear(uc.theta, np.broadcast_to(1.0, (ens.n_paths, 1)),
                       s0, g0, pi_is_deterministic=pi.deterministic)
    derivs = (s0, np.log1p(g0)) if need_rows23 else (None, None)
    running = _wealth_chunk(wp.x0, (b0, s0, g0), pi, ens, log_rate=True)
    v = neumann_solve(_assemble(coeffs, tc, ens, GammaEnsemble(
        ens, coeffs, cg), running, *derivs, need_rows23))
    j, se, _, *sample = y_closed_formula(coeffs, tc, ens, v,
                                         return_sample=return_sample)
    return (j, se, v, *sample)


def picard_utility_y0(wp: WealthParams, uc: UtilityCoefficients,
                      pi: ControlProcess, ens: PathEnsemble,
                      basis: Optional[RegressionBasis] = None,
                      tol: float = 1e-6, max_iter: int = 50):
    """Cross-check route: solve the utility equation with the Picard
    solver (wealth and log-wealth join the regression features).
    Returns (Y(0), standard error, report)."""
    grid, levy = ens.grid, ens.levy
    b0, s0, g0 = wp.on_grid(grid, levy)
    _, cg = _utility_equation(uc, grid, levy)
    _check_rate(pi, ens, "picard_utility_y0")
    logx = _log_wealth(wp.x0, (b0, s0, g0), pi, ens)
    x = np.exp(logx)
    gamma_path = np.add(logx, np.log(pi.values), order="F")
    tc = wealth_linear(uc.theta, x, s0, g0,
                       pi_is_deterministic=pi.deterministic)

    driver = cg.as_driver(grid, levy)
    driver.source = gamma_path
    phi = mean_yzk(levy.n_atoms)
    if basis is None:
        basis = RegressionBasis(degree=2, jump_features=True)
    basis = replace(basis, extras={**basis.extras, "wealth": x,
                                   "log_wealth": logx})
    sol, rep = picard_full_freeze(driver, phi, tc, ens, basis, tol,
                                  max_iter, False)
    # Y, Z and K at nodes 0 and 1 only, and the driver there: the
    # trapezoid of the first step
    v0, v1 = sol.node(0), sol.node(1)
    f0, f1 = (driver(grid.nodes[i], v[:, 0], v[:, 1], v[:, 2:],
                     _phi_mean(phi, v)) + gamma_path[:, i]
              for i, v in ((0, v0), (1, v1)))
    f_hat0 = f0 + f1
    f_hat0 *= 0.5
    target0 = v1[:, 0] + f_hat0 * grid.dt
    y0 = float(v0[:, 0].mean())
    se = float(target0.std(ddof=1) / math.sqrt(ens.n_paths))
    return y0, se, rep
