"""Consumption optimisation under mean-field recursive utility.

Wealth follows a geometric jump diffusion drained by the consumption
rate.  Utility is the initial value of a linear mean-field backward
equation whose running term is log(consumption * wealth) and whose
terminal value is a positive multiple of terminal wealth.  The adjoint
pair (p, lambda) gives the candidate optimal rate pi = lambda / p from
the first-order condition of the Hamiltonian.

The utility J(pi) is evaluated through the closed-form engine: the mean
system is fed the pathwise running cost (joint expectations with the
propagator, no factorisation), and the final quadrature keeps the
pathwise log term.  When the mean coefficients of Z or K are nonzero the
source rows need wealth derivatives, which are closed-form only for
deterministic consumption; stochastic rates are then cross-checked with
the Picard solver instead.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    LinearCoefficients,
    TerminalCondition,
    mean_yzk,
    terminal_value,
    wealth_linear,
)
from .errors import CapabilityError, ConfigError, DomainError
from .levy_paths import PathEnsemble, _check_jump_tilt, _eval_nodes, \
    _eval_nodes_atoms, _log_exponential
from .linear import assemble_system, direct_solve, neumann_solve, \
    simulate_gamma, y_closed_formula
from .picard import RegressionBasis, _frozen_driver, _mean_channel, \
    _Regressions, picard_full_freeze

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
    """Geometric wealth dynamics: drift b0, volatility s0, jump exposures
    g0(t, mark) > -1, initial wealth x0 > 0."""

    x0: float
    b0: object = 0.0
    sigma0: object = 0.0
    gamma0: object = 0.0

    def on_grid(self, grid, levy):
        if not self.x0 > 0:
            raise ConfigError("initial wealth must be positive")
        b0 = _eval_nodes(self.b0, grid.nodes)
        s0 = _eval_nodes(self.sigma0, grid.nodes)
        g0 = _eval_nodes_atoms(self.gamma0, grid.nodes, levy.marks)
        _check_jump_tilt(g0, grid.nodes, levy.marks, "gamma0")
        return b0, s0, g0


@dataclass(frozen=True)
class UtilityCoefficients:
    """Coefficients of the utility equation: (alpha0, beta0, eta0)
    multiply the pathwise triplet, (alpha1, beta1, eta1) its means;
    theta is the terminal wealth multiplier (positive, bounded kind)."""

    alpha0: object = 0.0
    alpha1: object = 0.0
    beta0: object = 0.0
    beta1: object = 0.0
    eta0: object = 0.0
    eta1: object = 0.0
    theta: Optional[TerminalCondition] = None

    def on_grid(self, grid, levy):
        a0 = _eval_nodes(self.alpha0, grid.nodes)
        a1 = _eval_nodes(self.alpha1, grid.nodes)
        b0 = _eval_nodes(self.beta0, grid.nodes)
        b1 = _eval_nodes(self.beta1, grid.nodes)
        e0 = _eval_nodes_atoms(self.eta0, grid.nodes, levy.marks)
        e1 = _eval_nodes_atoms(self.eta1, grid.nodes, levy.marks)
        _check_jump_tilt(e0, grid.nodes, levy.marks, "eta0")
        if np.any(e1 < -1.0):
            raise ConfigError("utility jump coefficient eta1 must be >= -1")
        return a0, a1, b0, b1, e0, e1


@dataclass
class ControlProcess:
    """Nonnegative consumption rate; (M+1,) when deterministic or
    (n, M+1) when adapted."""

    values: np.ndarray
    deterministic: bool

    @staticmethod
    def from_constant(c: float, grid) -> "ControlProcess":
        if c < 0:
            raise ConfigError("consumption rate must be nonnegative")
        return ControlProcess(np.full(grid.steps + 1, float(c)), True)

    @staticmethod
    def from_nodes(values, deterministic=None) -> "ControlProcess":
        v = np.asarray(values, dtype=float)
        if np.any(v < 0):
            raise ConfigError("consumption rate must be nonnegative")
        det = v.ndim == 1 if deterministic is None else deterministic
        return ControlProcess(v, det)

    def paths(self, n: int) -> np.ndarray:
        if self.values.ndim == 1:
            return np.broadcast_to(self.values, (n, self.values.size))
        return self.values


def simulate_wealth(wp: WealthParams, pi: ControlProcess, ens: PathEnsemble
                    ) -> np.ndarray:
    """Strictly positive wealth paths X = x0 times the stochastic
    exponential of (b0 - pi, s0, g0)."""
    b0, s0, g0 = wp.on_grid(ens.grid, ens.levy)
    drift = b0[:-1] - pi.paths(ens.n_paths)[:, :-1]
    logx = _log_exponential(ens, drift, s0[:-1], g0[:-1])
    logx += math.log(wp.x0)
    return np.exp(logx, out=logx)


def adjoint_p(theta: TerminalCondition, ens: PathEnsemble,
              basis: RegressionBasis) -> np.ndarray:
    """Conditional-expectation adjoint p(t_i) = E[theta | F_{t_i}].

    Constant theta propagates exactly; otherwise each node gets a
    regression estimate, and the terminal node is set to theta pathwise.
    """
    n, m = ens.n_paths, ens.grid.steps
    val = terminal_value(theta, ens)
    if theta.kind == "constant":
        return np.broadcast_to(val[:, None], (n, m + 1)).copy()
    reg = _Regressions(ens, basis)
    p = np.empty((n, m + 1))
    p[:, m] = val
    for i in range(m):
        p[:, i] = reg.fit(i, val)
    return p


@dataclass
class AdjointState:
    """Adjoints of the consumption problem on the grid."""

    p: np.ndarray             # (n, M+1)
    lam: np.ndarray           # (n, M+1)
    upsilon: np.ndarray       # (n, M+1)
    mean_lam: np.ndarray      # (M+1,) analytic exp(int (a0+a1))
    pi_hat: Optional[np.ndarray] = None
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

    mean_lam = np.exp(np.concatenate(
        [[0.0], np.cumsum((a0[:-1] + a1[:-1]) * dt)]
    ))

    # integrating factor: inverse of the (a0, b0, e0) propagator
    ups = _log_exponential(ens, a0[:-1], b0[:-1], e0[:-1])
    np.negative(ups, out=ups)
    np.exp(ups, out=ups)

    drift = (a1[:-1] - b0[:-1] * b1[:-1]) * dt
    if levy.n_atoms:
        drift = drift - (e1[:-1] * w * dt).sum(axis=1)
    grow = drift[None, :] + b1[:-1] * ens.db
    if levy.n_atoms:
        grow = grow + ((e1[:-1] / (1.0 + e0[:-1]))[None] * ens.jumps
                       ).sum(axis=2)
    bracket = np.ones((n, m + 1))
    np.cumsum(ups[:, :-1] * mean_lam[:-1] * grow, axis=1,
              out=bracket[:, 1:])
    bracket[:, 1:] += 1.0
    lam = bracket / ups
    return lam, ups, mean_lam


def lambda_euler_residual(uc: UtilityCoefficients, ens: PathEnsemble,
                          lam: np.ndarray, mean_lam: np.ndarray
                          ) -> float:
    """Mean-square gap at T between the explicit lambda and an Euler
    stepping of its forward equation (an O(dt) consistency check)."""
    grid, levy = ens.grid, ens.levy
    a0, a1, b0, b1, e0, e1 = uc.on_grid(grid, levy)
    dt = grid.dt
    w = levy.weights
    le = np.ones(ens.n_paths)
    for i in range(grid.steps):
        jump = np.zeros(ens.n_paths)
        if levy.n_atoms:
            dn = ens.jumps[:, i, :] - w * dt
            jump = ((e0[i] * le[:, None] + e1[i] * mean_lam[i]) * dn
                    ).sum(axis=1)
        le = le + (a0[i] * le + a1[i] * mean_lam[i]) * dt \
            + (b0[i] * le + b1[i] * mean_lam[i]) * ens.db[:, i] + jump
    return float(((lam[:, -1] - le) ** 2).mean())


def solve_adjoints(uc: UtilityCoefficients, ens: PathEnsemble,
                   basis: RegressionBasis) -> AdjointState:
    """Both adjoints of the consumption problem on one ensemble."""
    if uc.theta is None:
        raise ConfigError("utility coefficients need a terminal theta")
    lam, ups, mean_lam = adjoint_lambda(uc, ens)
    p = adjoint_p(uc.theta, ens, basis)
    return AdjointState(p=p, lam=lam, upsilon=ups, mean_lam=mean_lam)


def optimal_pi(adj: AdjointState) -> ControlProcess:
    """First-order optimal rate pi = lambda / p, with p floored at 1e-8
    (warning counts reported through adj.floor_hits)."""
    hits = int((adj.p < P_FLOOR).sum())
    if hits:
        warnings.warn(
            f"adjoint p fell below the floor on {hits} node values; "
            "clipped before division", stacklevel=2,
        )
    adj.floor_hits = hits
    pi = adj.lam / np.maximum(adj.p, P_FLOOR)
    adj.pi_hat = pi
    det = bool(np.all(pi == pi[0]))
    return ControlProcess(pi[0].copy() if det else pi, det)


def hamiltonian(t, x, y, z, k, ybar, zbar, kbar, pi, p, q, r, lam,
                wp: WealthParams, uc: UtilityCoefficients, grid, levy
                ) -> float:
    """Pointwise Hamiltonian of the consumption problem.

    Jump integrals are weighted atom sums.  Concave in pi for lam > 0
    (second derivative -lam / pi^2).
    """
    if pi <= 0 or x <= 0:
        raise DomainError("hamiltonian needs pi > 0 and x > 0")
    b0, s0, g0 = wp.on_grid(grid, levy)
    a0, a1, b0u, b1u, e0, e1 = uc.on_grid(grid, levy)
    i = int(round(t / grid.dt))
    w = levy.weights
    k = np.asarray(k, dtype=float)
    kbar = np.asarray(kbar, dtype=float)
    r = np.asarray(r, dtype=float)
    out = (b0[i] - pi) * x * p + s0[i] * x * q
    if levy.n_atoms:
        out += float((g0[i] * x * r * w).sum())
    util = a0[i] * y + a1[i] * ybar + b0u[i] * z + b1u[i] * zbar \
        + math.log(pi) + math.log(x)
    if levy.n_atoms:
        util += float(((e0[i] * k + e1[i] * kbar) * w).sum())
    return float(out + lam * util)


def dh_dpi(pi, p, lam):
    """Derivative of the Hamiltonian in the consumption rate, in the
    reduced form -p + lam / pi whose root is pi = lam / p."""
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0):
        raise DomainError("dh_dpi needs pi > 0")
    return -np.asarray(p) + np.asarray(lam) / pi


def _utility_linear_coeffs(uc: UtilityCoefficients) -> LinearCoefficients:
    """The utility equation in linear-engine notation: pathwise
    coefficients build the propagator, mean coefficients couple."""
    return LinearCoefficients(
        alpha1=uc.alpha0, beta1=uc.beta0, eta1=uc.eta0,
        alpha2=uc.alpha1, beta2=uc.beta1, eta2=uc.eta1,
    )


def evaluate_j(wp: WealthParams, uc: UtilityCoefficients,
               pi: ControlProcess, ens: PathEnsemble,
               route: str = "neumann", return_sample: bool = False):
    """Utility of a consumption rate via the closed-form engine.

    Simulates wealth, builds the propagator from (a0, b0, e0), feeds the
    mean system the pathwise running cost log(pi X) (joint expectations
    with the propagator), and averages the closed formula pathwise.
    Nonzero mean coefficients on Z or K require a deterministic rate.
    Returns (J, standard error, MeanVector), plus the per-path sample
    when `return_sample` is set.
    """
    grid, levy = ens.grid, ens.levy
    if uc.theta is None:
        raise ConfigError("utility coefficients need a terminal theta")
    b0, s0, g0 = wp.on_grid(grid, levy)
    a0, a1, b0u, b1u, e0, e1 = uc.on_grid(grid, levy)
    x = simulate_wealth(wp, pi, ens)
    pv = pi.paths(ens.n_paths)
    if np.any(pv <= 0.0):
        raise DomainError("evaluate_j needs a strictly positive rate")
    gamma_path = np.log(pv * x)

    coeffs = _utility_linear_coeffs(uc)
    tc = wealth_linear(uc.theta, x, s0, g0,
                       pi_is_deterministic=pi.deterministic)
    need_rows23 = np.any(b1u != 0.0) or np.any(e1 != 0.0)
    if need_rows23 and not pi.deterministic:
        raise CapabilityError(
            "mean coupling of Z or K with an adapted consumption rate is "
            "outside the closed-form route; use the Picard solver"
        )
    gamma = simulate_gamma(coeffs, ens)
    gamma_db = s0 if need_rows23 else None
    gamma_dn = np.log1p(g0) if need_rows23 else None
    sys = assemble_system(coeffs, tc, ens, gamma=gamma,
                          gamma_path=gamma_path, gamma_db=gamma_db,
                          gamma_dn=gamma_dn, derivative_rows=need_rows23)
    v = neumann_solve(sys) if route == "neumann" else direct_solve(sys)
    out = y_closed_formula(coeffs, tc, ens, v, gamma=gamma,
                           gamma_path=gamma_path,
                           return_sample=return_sample)
    if return_sample:
        j, se, _, sample = out
        return j, se, v, sample
    j, se, _ = out
    return j, se, v


def picard_utility_y0(wp: WealthParams, uc: UtilityCoefficients,
                      pi: ControlProcess, ens: PathEnsemble,
                      basis: Optional[RegressionBasis] = None,
                      tol: float = 1e-6, max_iter: int = 50):
    """Cross-check route: solve the utility equation with the Picard
    solver (wealth and log-wealth join the regression features).
    Returns (Y(0), standard error, report)."""
    grid, levy = ens.grid, ens.levy
    b0g, s0, g0 = wp.on_grid(grid, levy)
    a0, a1, b0u, b1u, e0, e1 = uc.on_grid(grid, levy)
    x = simulate_wealth(wp, pi, ens)
    pv = pi.paths(ens.n_paths)
    gamma_path = np.log(pv * x)
    tc = wealth_linear(uc.theta, x, s0, g0,
                       pi_is_deterministic=pi.deterministic)

    coeffs = _utility_linear_coeffs(uc)
    driver = coeffs.as_driver(grid, levy)
    driver.source = gamma_path
    phi = mean_yzk(levy.n_atoms)
    if basis is None:
        basis = RegressionBasis(degree=2, jump_features=True)
    basis = replace(basis, extras={**basis.extras, "wealth": x,
                                   "log_wealth": np.log(x)})
    sol, rep = picard_full_freeze(driver, phi, tc, ens, basis, tol=tol,
                                  max_iter=max_iter, check=False)
    f_hat = _frozen_driver(driver, sol, _mean_channel(phi, sol))
    target0 = sol.y[:, 1] + f_hat[:, 0] * grid.dt
    n = ens.n_paths
    y0 = float(sol.y[:, 0].mean())
    se = float(target0.std(ddof=1) / math.sqrt(n))
    return y0, se, rep
