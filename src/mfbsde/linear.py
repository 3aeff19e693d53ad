"""Closed-form engine for the linear mean-field equation.

Pipeline: simulate the exponential propagator on the ensemble, assemble
the deterministic system V = F + AV for the means (Ybar, Zbar, Kbar),
solve it by a windowed Neumann series (with a dense factorisation as the
oracle route), and evaluate Y(0) as a plain Monte Carlo mean of the
propagator-weighted functional.  A measure-change special case solves the
tilted equation by weighted and by shifted simulation.

Derivative conventions: variational derivatives are taken as left limits
in time, so the propagator factors drop out of the rows for Zbar and
Kbar.  Those means are therefore pure source terms, and the system is the
one integral equation for Ybar, with the Zbar and Kbar couplings folded
into its source.  Every closed-form derivative of the terminal is a short
sum of (path factor) x (node profile) terms, so each derivative source row
is one pass over the paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    CoefficientGrid,
    LinearCoefficients,
    TerminalCondition,
    derivative_terms,
    terminal_value,
)
from .errors import CapabilityError, ConfigError, NumericalError
from .levy_paths import (
    PathEnsemble,
    _check_jump_tilt,
    _eval_nodes,
    _log_exponential,
    girsanov_density,
    shift_to_q,
)

__all__ = [
    "GammaEnsemble",
    "VolterraSystem",
    "MeanVector",
    "simulate_gamma",
    "mean_gamma",
    "assemble_system",
    "operator_norm_estimate",
    "neumann_solve",
    "direct_solve",
    "y_closed_formula",
    "q_special_solve",
    "QSpecialResult",
    "solve_linear_y0",
]


# ---------------------------------------------------------------------------
# Propagator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaEnsemble:
    """Exponential propagator stored through one running exponent per path.

    gamma(i, l) = exp(L[:, l] - L[:, i]) for i <= l, which makes the
    diagonal exactly one and the flow property exact by construction.
    """

    ens: PathEnsemble
    log_level: np.ndarray   # (n, M+1), L[:, 0] = 0
    a1_cum: np.ndarray      # (M+1,) cumulative dt-quadrature of a1

    def factor(self, i: int, l: int) -> np.ndarray:
        return np.exp(self.log_level[:, l] - self.log_level[:, i])

    def exp_levels(self) -> np.ndarray:
        return np.exp(self.log_level)


def simulate_gamma(coeffs: LinearCoefficients, ens: PathEnsemble
                   ) -> GammaEnsemble:
    """Pathwise evaluation of the propagator: the stochastic exponential
    of (a1, b1, e1)."""
    cg = coeffs.on_grid(ens.grid, ens.levy)
    return _simulate_gamma_grid(cg, ens)


def _simulate_gamma_grid(cg: CoefficientGrid, ens: PathEnsemble
                         ) -> GammaEnsemble:
    grid, levy = ens.grid, ens.levy
    _check_jump_tilt(cg.e1, grid.nodes, levy.marks, "eta1")
    log_level = _log_exponential(ens, cg.a1[:-1], cg.b1[:-1], cg.e1[:-1])
    a1_cum = np.concatenate([[0.0], np.cumsum(cg.a1[:-1] * grid.dt)])
    return GammaEnsemble(ens=ens, log_level=log_level, a1_cum=a1_cum)


def mean_gamma(coeffs: LinearCoefficients, grid, levy, t: float, s: float
               ) -> float:
    """exp of the grid quadrature of a1 over [t, s]; t, s are grid times."""
    if s < t:
        raise ConfigError("mean_gamma needs t <= s")
    cg = coeffs.on_grid(grid, levy)
    i, l = int(round(t / grid.dt)), int(round(s / grid.dt))
    return float(np.exp(cg.a1[i:l].sum() * grid.dt))


# ---------------------------------------------------------------------------
# Mean system
# ---------------------------------------------------------------------------

@dataclass
class MeanVector:
    """Means of the solution triplet on the grid."""

    grid: object
    v1: np.ndarray          # (M+1,)  E[Y]
    v2: np.ndarray          # (M+1,)  E[Z]
    v3: np.ndarray          # (M+1, J) E[K_j]

    def stack(self) -> np.ndarray:
        return np.concatenate([self.v1, self.v2, self.v3.T.ravel()])


@dataclass
class VolterraSystem:
    """Discretised mean system on the grid.

    The means of Z and K are the sources F2 and F3 themselves, so the one
    integral equation is V1 = source + kernel V1 for E[Y].  `source` is
    F1 plus the couplings b2 F2 and e2_j w_j F3_j integrated with the
    kernel's quadrature.  Kernel entries carry the trapezoid weight and
    vanish below the diagonal in node index (causality).
    """

    grid: object
    kernel: np.ndarray       # (M+1, M+1) kernel of the E[Y] equation
    source: np.ndarray       # (M+1,) source of the E[Y] equation
    f: MeanVector            # sources F1, F2, F3
    f_se: MeanVector         # their Monte Carlo standard errors
    n_nodes: int


def _mc_mean_se(samples: np.ndarray):
    n = samples.shape[0]
    se = samples.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else \
        np.zeros(samples.shape[1:])
    return samples.mean(axis=0), se


def _row_mean_se(terms, expl_inv: np.ndarray, exp_t: np.ndarray):
    """Per-node mean and standard error of sum_k path_k prof_k(t_i)
    Gamma(t_i, T) for separable derivative terms (path_k, prof_k), in one
    pass over an (n, M+1) sample matrix."""
    terms = [(path, prof) for path, prof in terms if prof.any()]
    if not terms:
        return np.zeros(expl_inv.shape[1]), np.zeros(expl_inv.shape[1])
    if len(terms) == 1:
        (path, prof), = terms
        mean, se = _mc_mean_se(expl_inv * (path * exp_t)[:, None])
        return prof * mean, np.abs(prof) * se
    # einsum, not a BLAS product: the result must not depend on threading
    samples = np.einsum("kn,km->nm",
                        np.array([path * exp_t for path, _ in terms]),
                        np.array([prof for _, prof in terms]))
    samples *= expl_inv
    return _mc_mean_se(samples)


def assemble_system(coeffs: LinearCoefficients, tc: TerminalCondition,
                    ens: PathEnsemble,
                    gamma: Optional[GammaEnsemble] = None,
                    gamma_path: Optional[np.ndarray] = None,
                    gamma_db: Optional[np.ndarray] = None,
                    gamma_dn: Optional[np.ndarray] = None,
                    derivative_rows: bool = True) -> VolterraSystem:
    """Assemble kernel and source of the mean system.

    Sources are Monte Carlo means over the ensemble:
        F1(t) = E[xi G(t,T)] + int_t^T E[G(t,s) gamma(s)] ds
        F2(t) = E[D_t xi  G(t,T)] + int_t^T E[G(t,s)] D_t gamma ds
        F3(t,z) = E[D_{t,z} xi G(t,T)] + int_t^T E[G(t,s)] D_{t,z} gamma ds
    with the derivatives of xi from the closed-form catalog, each row in
    one pass over the paths.  gamma is the deterministic coefficient
    unless `gamma_path` (n, M+1) is given, in which case the joint
    pathwise products are averaged and the deterministic derivative
    profiles `gamma_db` (M+1,) and `gamma_dn` (M+1, J) supply the last
    terms (they vanish for deterministic gamma).
    """
    grid, levy = ens.grid, ens.levy
    if tc is None:
        raise CapabilityError("assemble_system needs a terminal condition")
    if tc.kind not in ("constant", "brownian_linear", "jump_linear",
                       "smooth_of_brownian", "poly_of_jump_linear",
                       "wealth_linear"):
        raise CapabilityError(
            f"terminal kind {tc.kind!r} is outside the closed-form "
            "derivative catalog; solve with the Picard route instead"
        )
    cg = coeffs.on_grid(grid, levy)
    if gamma is None:
        gamma = _simulate_gamma_grid(cg, ens)
    m1 = grid.steps + 1
    nj = levy.n_atoms
    dt = grid.dt
    n = ens.n_paths

    # E[Gamma(t_i, t_l)] = exp(int a1) on grid quadrature, upper triangular
    eg = np.exp(gamma.a1_cum[None, :] - gamma.a1_cum[:, None])
    eg[np.tril_indices(m1, k=-1)] = 0.0
    # trapezoid weights for int_{t_i}^T (.) ds, row i over columns i..M
    wq = np.triu(np.full((m1, m1), dt))
    wq[np.arange(m1), np.arange(m1)] = 0.5 * dt
    wq[:, -1] = 0.5 * dt
    wq[-1, -1] = 0.0
    wq[np.tril_indices(m1, k=-1)] = 0.0

    expl = gamma.exp_levels()            # (n, M+1)
    expl_inv = np.exp(-gamma.log_level)
    exp_t = expl[:, -1]
    xi = terminal_value(tc, ens)

    # terminal sources E[. Gamma(t_i, T)]
    f1, f1_se = _mc_mean_se(expl_inv * (xi * exp_t)[:, None])
    f2, f2_se = np.zeros(m1), np.zeros(m1)
    f3, f3_se = np.zeros((m1, nj)), np.zeros((m1, nj))
    if derivative_rows:
        brownian, jumps = derivative_terms(tc, ens)
        f2, f2_se = _row_mean_se(brownian, expl_inv, exp_t)
        for a in range(nj):
            f3[:, a], f3_se[:, a] = _row_mean_se(jumps[a], expl_inv, exp_t)

    # deterministic or pathwise running-cost contribution
    if gamma_path is not None:
        gp = np.asarray(gamma_path, dtype=float)
        if gp.shape != (n, m1):
            raise ConfigError("gamma_path must have shape (n_paths, M+1)")
        joint = expl_inv.T @ (expl * gp) / n           # E[G(t_i,t_l) g_l]
        f1 += (joint * wq).sum(axis=1)
        mc_eg = expl_inv.T @ expl / n
        tail = (mc_eg * wq).sum(axis=1)                # int_t^T E[G] ds
        if derivative_rows and gamma_db is not None:
            f2 += np.asarray(gamma_db, dtype=float) * tail
        if derivative_rows and gamma_dn is not None:
            f3 += np.asarray(gamma_dn, dtype=float) * tail[:, None]
    else:
        f1 += (eg * wq * cg.g[None, :]).sum(axis=1)

    # E[Z] = F2 and E[K] = F3 (left-limit derivative convention): their
    # couplings move into the source of the E[Y] equation
    quad = eg * wq                                     # (M+1, M+1) weights
    coupling = cg.b2 * f2
    if nj:
        coupling = coupling + (cg.e2 * levy.weights * f3).sum(axis=1)
    return VolterraSystem(
        grid=grid, kernel=quad * cg.a2[None, :],
        source=f1 + quad @ coupling,
        f=MeanVector(grid, f1, f2, f3),
        f_se=MeanVector(grid, f1_se, f2_se, f3_se), n_nodes=m1)


def _spectral_norm(mat: np.ndarray, tol: float = 1e-10,
                   max_iter: int = 5000, seed: int = 5) -> float:
    """Largest singular value by power iteration on A'A, with an exact
    SVD fallback if the iteration stalls."""
    if mat.size == 0 or not mat.any():
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = mat.T @ (mat @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_sigma = math.sqrt(nw)
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return new_sigma
        sigma = new_sigma
    return float(np.linalg.norm(mat, 2))


def operator_norm_estimate(sys: VolterraSystem, window: tuple) -> float:
    """Induced 2-norm of the E[Y] kernel restricted to grid nodes in
    [a, b]."""
    a, b = window
    if not a < b:
        raise ConfigError("window must satisfy a < b")
    dt = sys.grid.dt
    lo = max(0, int(math.ceil(a / dt - 1e-9)))
    hi = min(sys.n_nodes, int(math.floor(b / dt + 1e-9)) + 1)
    return _spectral_norm(sys.kernel[lo:hi, lo:hi])


def direct_solve(sys: VolterraSystem) -> MeanVector:
    """Dense factorisation of (I - A) V1 = source over the whole grid."""
    try:
        v1 = np.linalg.solve(np.eye(sys.n_nodes) - sys.kernel, sys.source)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "dense mean system is singular; kernel violates causality"
        ) from exc
    return replace(sys.f, v1=v1)


def _window_starts(m1: int, w_len: int) -> list:
    """Node windows [lo, hi) tiling the grid from the right."""
    out = []
    hi = m1
    while hi > 0:
        lo = max(0, hi - w_len)
        out.append((lo, hi))
        hi = lo
    return out


def neumann_solve(sys: VolterraSystem, target_norm: float = 0.5,
                  series_tol: float = 1e-12,
                  window_len: Optional[int] = None) -> MeanVector:
    """Windowed Neumann-series solution of V1 = source + A V1.

    The window length is the largest multiple of dt for which every
    window's restricted kernel has norm at most target_norm (bisection,
    verified after the fact); `window_len` (in nodes) overrides the
    search.  Windows are solved right to left; already solved nodes feed
    the lower windows as an extra source.
    """
    m1 = sys.n_nodes
    kernel = sys.kernel

    def feasible(w_len: int) -> bool:
        return all(_spectral_norm(kernel[lo:hi, lo:hi]) <= target_norm
                   for lo, hi in _window_starts(m1, w_len))

    if window_len is not None:
        if not 2 <= window_len <= m1:
            raise ConfigError("window_len must be between 2 and M+1 nodes")
        if not feasible(window_len):
            raise ConfigError(
                "requested window does not meet the target kernel norm"
            )
        w_len = window_len
    elif not feasible(2):
        raise ConfigError(
            "no window of at least two steps meets the target kernel norm; "
            "refine the grid or reduce the coefficients"
        )
    elif feasible(m1):
        w_len = m1
    else:
        lo_len, hi_len = 2, m1
        while hi_len - lo_len > 1:
            mid = (lo_len + hi_len) // 2
            if feasible(mid):
                lo_len = mid
            else:
                hi_len = mid
        w_len = lo_len
        if not feasible(w_len):  # guards non-monotone corner cases
            w_len = 2

    x = np.zeros(m1)
    for lo, hi in _window_starts(m1, w_len):
        f_eff = sys.source[lo:hi] + kernel[lo:hi, hi:] @ x[hi:]
        sub = kernel[lo:hi, lo:hi]
        term = f_eff
        acc = f_eff.copy()
        for _ in range(100000):
            term = sub @ term
            acc += term
            if np.abs(term).max() < series_tol:
                break
        else:
            raise NumericalError("Neumann series failed to converge")
        x[lo:hi] = acc
    return replace(sys.f, v1=x)


def y_closed_formula(coeffs: LinearCoefficients, tc: TerminalCondition,
                     ens: PathEnsemble, v: MeanVector,
                     gamma: Optional[GammaEnsemble] = None,
                     gamma_path: Optional[np.ndarray] = None,
                     return_sample: bool = False):
    """Monte Carlo evaluation of the closed formula at t = 0.

    Y(0) = E[xi G(0,T) + sum_i G(0,t_i) {a2 V1 + b2 V2 + sum_j e2 V3 w_j
            + gamma(t_i)} dt], with the pathwise running cost used when
    `gamma_path` is given.  Returns (Y(0), standard error, V1 grid) or,
    with `return_sample`, additionally the per-path sample (useful for
    paired comparisons across controls on common noise).
    """
    grid, levy = ens.grid, ens.levy
    cg = coeffs.on_grid(grid, levy)
    if gamma is None:
        gamma = _simulate_gamma_grid(cg, ens)
    m = grid.steps
    w = levy.weights
    h = cg.a2 * v.v1 + cg.b2 * v.v2
    if levy.n_atoms:
        h = h + (cg.e2 * v.v3 * w).sum(axis=1)
    wq = np.full(m + 1, grid.dt)
    wq[0] = wq[-1] = 0.5 * grid.dt
    expl = gamma.exp_levels()
    if gamma_path is not None:
        integrand = expl * (h[None, :] + gamma_path)
    else:
        integrand = expl * (h + cg.g)[None, :]
    sample = terminal_value(tc, ens) * expl[:, -1] \
        + integrand @ wq
    y0, se = _mc_mean_se(sample[:, None])
    if return_sample:
        return float(y0[0]), float(se[0]), v.v1, sample
    return float(y0[0]), float(se[0]), v.v1


def solve_linear_y0(coeffs: LinearCoefficients, ens: PathEnsemble,
                    route: str = "neumann"):
    """Convenience pipeline: assemble, solve the mean system, evaluate
    Y(0).  Returns (y0, se, MeanVector)."""
    gamma = simulate_gamma(coeffs, ens)
    sys = assemble_system(coeffs, coeffs.terminal, ens, gamma=gamma)
    v = neumann_solve(sys) if route == "neumann" else direct_solve(sys)
    y0, se, _ = y_closed_formula(coeffs, coeffs.terminal, ens, v, gamma=gamma)
    return y0, se, v


# ---------------------------------------------------------------------------
# Measure-change special case
# ---------------------------------------------------------------------------

@dataclass
class QSpecialResult:
    """Weighted-P and shifted-Q estimates of the tilted linear equation."""

    y0_weighted: float
    se_weighted: float
    y0_shifted: float
    se_shifted: float
    mean_y: np.ndarray        # E_Q[Y(t_i)] from the shifted estimate
    xi_weighted: float
    xi_shifted: float


def q_special_solve(alpha1, alpha2, beta1, eta1, gamma,
                    tc: TerminalCondition, ens: PathEnsemble
                    ) -> QSpecialResult:
    """Solve the special linear equation whose mean term is the tilted
    expectation of Y.

    Under the tilted measure the equation loses its Z and K coefficients,
    so E_Q[Y] solves the scalar terminal-value problem
        d/dt m = -(a1 + a2) m - gamma,  m(T) = E_Q[xi],
    stepped with exact exponential factors.  Y(0) combines the
    deterministic propagator exp(int a1) with E_Q[xi], which is estimated
    both by density weighting under P and by shifted simulation; both
    full pipelines are returned.
    """
    if tc.kind == "wealth_linear":
        raise CapabilityError(
            "q_special_solve does not support wealth terminals"
        )
    grid, levy = ens.grid, ens.levy
    nodes = grid.nodes
    dt = grid.dt
    a1 = _eval_nodes(alpha1, nodes)
    a2 = _eval_nodes(alpha2, nodes)
    g = _eval_nodes(gamma, nodes)

    dens = girsanov_density(ens, beta1, eta1)
    ens_q = shift_to_q(ens, beta1, eta1)
    xi_p = terminal_value(tc, ens)
    xi_q = terminal_value(tc, ens_q)
    n = ens.n_paths
    xiw, xiw_se = float((dens[:, -1] * xi_p).mean()), \
        float((dens[:, -1] * xi_p).std(ddof=1) / math.sqrt(n))
    xis, xis_se = float(xi_q.mean()), float(xi_q.std(ddof=1) / math.sqrt(n))

    def backward_mean(xi_mean: float, with_g: bool) -> np.ndarray:
        m = np.empty(grid.steps + 1)
        m[-1] = xi_mean
        for i in reversed(range(grid.steps)):
            c = a1[i] + a2[i]
            f = math.exp(c * dt)
            gi = g[i] if with_g else 0.0
            m[i] = f * m[i + 1] + (gi * (f - 1.0) / c if abs(c) > 1e-14
                                   else gi * dt)
        return m

    gprime = np.exp(np.concatenate([[0.0], np.cumsum(a1[:-1] * dt)]))
    wq = np.full(grid.steps + 1, dt)
    wq[0] = wq[-1] = 0.5 * dt
    quad_coef = gprime[-1] + (
        gprime * a2 * backward_mean(1.0, with_g=False)
    ) @ wq

    def y0_of(xi_mean: float) -> float:
        m = backward_mean(xi_mean, with_g=True)
        return float(gprime[-1] * xi_mean
                     + (gprime * (a2 * m + g)) @ wq)

    return QSpecialResult(
        y0_weighted=y0_of(xiw), se_weighted=abs(quad_coef) * xiw_se,
        y0_shifted=y0_of(xis), se_shifted=abs(quad_coef) * xis_se,
        mean_y=backward_mean(xis, with_g=True),
        xi_weighted=xiw, xi_shifted=xis,
    )
