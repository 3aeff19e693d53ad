"""Least-squares Monte Carlo Picard solver for mean-field backward
equations on a grid.

Conditional expectations are ordinary ridge-regularised least squares on
adapted path features.  The driver is frozen along the previous iterate
(full freeze), or only its mean channel is frozen while an inner solve
converges in (Y, Z, K) (mean freeze).  Driver time integrals use the
trapezoid weights 1/2 (f(t_i) + f(t_{i+1})); the backward recursion and
the regressions of Z and K on the increments are left-endpoint.  The
solvers and the contraction check iterate on the node regression
coefficients (`coefficient_route`) and evaluate custom callables
pathwise; the two solvers are the only entry points, and their
`SolutionGrid` is the only reader of the answers.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    DriverSpec,
    MeanFunctional,
    SolutionGrid,
    TerminalCondition,
    default_beta,
    probe_driver,
    probe_mean_functional,
)
from .errors import ConfigError, NumericalError
from .levy_paths import PathEnsemble

__all__ = [
    "RegressionBasis",
    "PicardReport",
    "picard_full_freeze",
    "picard_mean_freeze",
    "contraction_check",
]

RIDGE_SCALE = 1e-8


@dataclass
class RegressionBasis:
    """Adapted path features used to estimate conditional expectations.

    Columns at node i: the constant, powers of B(t_i) up to `degree`,
    one running compensated jump sum per atom (if `jump_features`), and
    any extra (n, M+1) path arrays such as wealth and log-wealth.
    """

    degree: int = 2
    jump_features: bool = True
    extras: dict = field(default_factory=dict)


class _Regressions:
    """Per-node design matrices and cached normal-equation factors."""

    def __init__(self, ens: PathEnsemble, basis: RegressionBasis):
        self.basis = basis
        self.ens = ens
        # per-node compensator w t_i of the running jump sums
        self.w_t = np.outer(ens.grid.nodes, ens.levy.weights)
        self.n_jump = ens.levy.n_atoms if basis.jump_features else 0
        # per-node shift of the raw increments [dB, dN_j] to the
        # martingale increments under the ensemble measure
        self.shift = -np.column_stack([ens.bm_drift, ens.jump_comp])
        self.extra = list(basis.extras.values())
        self.n_cols = 1 + basis.degree + self.n_jump + len(self.extra)
        if ens.n_paths <= self.n_cols:
            raise ConfigError(
                f"need more paths ({ens.n_paths}) than basis functions "
                f"({self.n_cols})"
            )
        self._chol = [None] * (ens.grid.steps + 1)
        self._gram = [None] * (ens.grid.steps + 1)
        self.ridge_max = 0.0
        self._xbuf = np.empty((ens.n_paths, self.n_cols), order="F")

    def design(self, i: int, out: Optional[np.ndarray] = None
               ) -> np.ndarray:
        """Node-i design matrix, written into `out` (n, n_cols) or else a
        shared buffer (valid until the next call)."""
        x = self._xbuf if out is None else out
        x[:, 0] = 1.0
        b = self.ens.brownian_nodes[:, i]
        x[:, 1] = b
        for p in range(2, self.basis.degree + 1):
            np.multiply(x[:, p - 1], b, out=x[:, p])
        c, nj = 1 + self.basis.degree, self.n_jump
        np.subtract(self.ens.count_nodes[:, i, :nj], self.w_t[i, :nj],
                    out=x[:, c:c + nj])
        c += nj
        for arr in self.extra:
            x[:, c] = arr[:, i]
            c += 1
        return x

    def factor(self, i: int, xtx: np.ndarray) -> np.ndarray:
        """Cholesky factor of the node-i ridge normal matrix
        S = X'X + ridge, cached per node with the Gram X'X.

        The ridge term RIDGE_SCALE * trace(X'X) / n_cols is applied to all
        columns except the constant, so means are reproduced exactly.
        """
        if self._chol[i] is None:
            lam = RIDGE_SCALE * np.trace(xtx) / xtx.shape[0]
            self.ridge_max = max(self.ridge_max, lam)
            reg = np.full(xtx.shape[0], lam)
            reg[0] = 0.0
            try:
                self._chol[i] = np.linalg.cholesky(xtx + np.diag(reg))
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"regression normal matrix not positive definite at "
                    f"node {i}"
                ) from exc
            self._gram[i] = xtx
        return self._chol[i]

    def solve(self, i: int, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Node-i ridge normal equations S c = rhs (see `factor`)."""
        c = self._chol[i]
        if c is None:
            c = self.factor(i, x.T @ x)
        return np.linalg.solve(c.T, np.linalg.solve(c, rhs))

    def cond_max(self) -> float:
        """Largest cond(X_i'X_i) over the factored nodes after node 0, on
        the columns that vary at the node: all features are constant at
        t_0, and an atom's jump column until its first jump on any path."""
        nodes = [i for i, g in enumerate(self._gram) if i and g is not None]
        if not nodes:
            return 0.0
        grams = np.stack([self._gram[i] for i in nodes])
        keep, c = np.ones(grams.shape[:2], dtype=bool), 1 + self.basis.degree
        keep[:, c:c + self.n_jump] = \
            self.ens.count_nodes[:, :, :self.n_jump].any(axis=0)[nodes]
        return float(max(
            np.linalg.cond(grams[np.ix_((keep == k).all(axis=1), k, k)]).max()
            for k in np.unique(keep, axis=0)))

    def fit(self, i: int, targets: np.ndarray) -> np.ndarray:
        """Fitted values of the node-i least-squares projection."""
        x = self.design(i)
        squeeze = targets.ndim == 1
        t = targets[:, None] if squeeze else targets
        fitted = x @ self.solve(i, x, x.T @ t)
        return fitted[:, 0] if squeeze else fitted

    def jump_products(self, i: int, x: np.ndarray, rows: np.ndarray,
                      base: np.ndarray) -> np.ndarray:
        """X' diag(dNtilde_j) R over [t_i, t_{i+1}] for each atom j, shape
        (J, p, w), for the node-i design X, per-path rows R (n, w) and
        base = X'R.  Only the paths that jump read R:
            X' diag(dN_j + s_j) R = sum_{dN_j > 0} dN_j x r' + s_j X'R,
        with s_j = -comp_ij the compensator shift."""
        counts = self.ens.count_nodes
        out = np.empty((self.ens.levy.n_atoms, x.shape[1], rows.shape[1]))
        for j in range(out.shape[0]):
            # forward difference of the counts: cannot wrap
            dn = counts[:, i + 1, j] - counts[:, i, j]
            hit = np.flatnonzero(dn)
            np.matmul((x[hit] * dn[hit, None]).T, rows[hit], out=out[j])
            out[j] += self.shift[i, 1 + j] * base
        return out


@dataclass
class PicardReport:
    """Iteration diagnostics of a Picard solve."""

    deltas: list = field(default_factory=list)       # sup-node E|dY|^2
    integrated: list = field(default_factory=list)   # sum_i E|dY_i|^2 dt
    ratios: list = field(default_factory=list)
    iter_s: list = field(default_factory=list)       # wall time per iteration
    iterations: int = 0
    converged: bool = False
    tol: float = 0.0
    ridge_max: float = 0.0
    cond_max: float = 0.0        # largest cond(X_i'X_i), see _Regressions
    setup_s: float = 0.0         # one-off pass over the paths before the
                                 # first iteration
    scheme: str = "full-freeze"
    inner_unconverged: int = 0   # mean freeze: outer steps whose inner
                                 # solve hit its iteration cap

    def record(self, delta: float, integ: float, seconds: float):
        if self.deltas:
            prev = self.deltas[-1]
            self.ratios.append(delta / prev if prev > 0 else 0.0)
        self.deltas.append(delta)
        self.integrated.append(integ)
        self.iter_s.append(seconds)
        self.iterations += 1


def _route(driver: DriverSpec, phi: Optional[MeanFunctional],
           tc: TerminalCondition, ens: PathEnsemble, basis: RegressionBasis):
    # imported on first use: the closed-form and utility routes import
    # the package without ever taking this route
    from .coefficient_route import CoefficientRoute
    return CoefficientRoute(driver, phi, tc, ens, _Regressions(ens, basis))


def _check_step(driver: DriverSpec, ens: PathEnsemble):
    if driver.lipschitz_c * ens.grid.dt >= 1.0:
        raise ConfigError(
            f"dt * Lipschitz constant = {driver.lipschitz_c * ens.grid.dt:.3g}"
            " >= 1; refine the grid"
        )


def _check_caps(**caps):
    for name, cap in caps.items():
        if cap < 1:
            raise ConfigError(f"{name} must be >= 1, got {cap}")


def _freeze_loop(route, tol: float, max_iter: int, mu: Optional[np.ndarray],
                 scheme: str) -> tuple[object, PicardReport]:
    """Shared driver-freezing iteration on the route's iterates, each
    sweep with the mean channel mu (M+1, d), or without mu phi's means of
    the previous iterate."""
    dt = route.ens.grid.dt
    report = PicardReport(tol=tol, scheme=scheme)
    it = route.initial()
    for _ in range(max_iter):
        started = time.perf_counter()
        new = route.sweep(it, mu)
        dy2 = route.dy2(new, it)
        report.record(float(dy2.max()), float(dy2[:-1].sum() * dt),
                      time.perf_counter() - started)
        it = new
        if report.deltas[-1] < tol:
            report.converged = True
            break
    return it, report


def _finish(report: PicardReport, route):
    report.ridge_max = route.reg.ridge_max
    report.cond_max = route.reg.cond_max()
    report.setup_s = route.setup_s


def picard_full_freeze(driver: DriverSpec, phi: MeanFunctional,
                       tc: TerminalCondition, ens: PathEnsemble,
                       basis: RegressionBasis, tol: float = 1e-6,
                       max_iter: int = 50, check: bool = True
                       ) -> tuple[SolutionGrid, PicardReport]:
    """Picard iteration freezing the whole previous iterate.

    Each iteration evaluates the driver along (y, z, k) and the mean
    channel of the previous iterate and performs one backward sweep.
    Stops when the sup-node mean-square iterate difference drops below
    tol; non-convergence is reported through the flag, never silently.
    The iteration runs on regression coefficients (see coefficient_route)
    and custom callables are evaluated on the paths once per node.  The
    solution is read off the coefficients: its means at no pass over the
    paths, `node(i)` with one design, and y, z and k each written on
    first read, so a caller that reads none of them forms no (n, M+1)
    array.
    """
    _check_step(driver, ens)
    _check_caps(max_iter=max_iter)
    if check:
        probe_driver(driver, ens.grid, ens.levy)
        probe_mean_functional(phi, ens.levy.n_atoms)
    route = _route(driver, phi, tc, ens, basis)
    it, report = _freeze_loop(route, tol, max_iter, None, "full-freeze")
    _finish(report, route)
    if not report.converged:
        warnings.warn(
            f"Picard full freeze did not converge in {report.iterations} "
            f"iterations (last delta {report.deltas[-1]:.3g})", stacklevel=2,
        )
    return route.solution(it), report


def picard_mean_freeze(driver: DriverSpec, tc: TerminalCondition,
                       ens: PathEnsemble, basis: RegressionBasis,
                       tol: float = 1e-6, max_iter: int = 50,
                       inner_max_iter: int = 50, check: bool = True
                       ) -> tuple[SolutionGrid, PicardReport]:
    """Outer iteration freezing only the mean of Y.

    The driver must read the mean channel as the scalar E[Y].  Each outer
    step solves the inner equation in (Y, Z, K) to convergence (to tol,
    within inner_max_iter sweeps) with the frozen mean path, then updates
    the mean.  Outer iterate differences are the quantity whose
    factorial-rate decay the convergence lemma predicts.  All outer steps
    share one route, so the coefficient route's set-up is paid once.  The
    solution is read off the coefficients (see `picard_full_freeze`).
    """
    if driver.mean_dim != 1:
        raise ConfigError(
            "mean-freeze driver must depend on the mean through E[Y] only"
        )
    _check_step(driver, ens)
    _check_caps(max_iter=max_iter, inner_max_iter=inner_max_iter)
    if check:
        probe_driver(driver, ens.grid, ens.levy)
    route = _route(driver, None, tc, ens, basis)

    report = PicardReport(tol=tol, scheme="mean-freeze")
    prev = route.initial()
    frozen = route.ybar(prev)
    dt = ens.grid.dt
    for _ in range(max_iter):
        started = time.perf_counter()
        it, inner_rep = _freeze_loop(route, tol, inner_max_iter,
                                     frozen[:, None], "mean-freeze-inner")
        if not inner_rep.converged:
            report.inner_unconverged += 1
            warnings.warn("mean-freeze inner solve did not converge",
                          stacklevel=2)
        dy2 = route.dy2(it, prev)
        report.record(float(dy2.max()), float(dy2[:-1].sum() * dt),
                      time.perf_counter() - started)
        prev = it
        frozen = route.ybar(it)
        if report.deltas[-1] < tol:
            report.converged = True
            break
    _finish(report, route)
    if not report.converged:
        warnings.warn(
            f"Picard mean freeze did not converge in {report.iterations} "
            f"outer iterations", stacklevel=2,
        )
    return route.solution(prev), report


def contraction_check(driver: DriverSpec, phi: MeanFunctional,
                      tc: TerminalCondition, ens: PathEnsemble,
                      basis: RegressionBasis, beta: Optional[float] = None,
                      n_pairs: int = 10, seed: int = 123) -> list[float]:
    """Observed contraction ratios of the one-step solution map.

    Applies the map (input triplet -> mean channel and driver freeze ->
    one sweep) to random adapted input pairs and returns the ratio of
    weighted squared norms of output and input differences; a pair of
    equal inputs scores zero by convention.  Each input is X_i c at every
    node 0..M, for one standard normal (p, 2+J) coefficient matrix c on
    the solver's basis.  Inputs and outputs are node coefficients on one
    route, so the norm
        sum_{i<M} e^{beta (t_i - T)} dt (d_Y'G_i d_Y + d_Z'G_i d_Z
                                         + sum_j w_j d_Kj'G_i d_Kj) / n
    is a quadratic form in the per-node Grams G_i (left-endpoint rule).
    The weight is the e^{beta t_i} of the paper's norm divided by
    e^{beta T}, a factor that cancels in every ratio, so that no weight
    exceeds one and a large beta (the default is 1 + 12 c^2) cannot
    overflow.
    """
    if beta is None:
        beta = default_beta(driver, phi)
    if beta < 0:
        raise ConfigError("beta must be nonnegative")
    rng = np.random.default_rng(seed)
    route = _route(driver, phi, tc, ens, basis)
    grid = ens.grid
    wt = np.exp(beta * (grid.nodes[:-1] - grid.horizon)) * grid.dt
    wc = np.concatenate([[1.0, 1.0], ens.levy.weights])

    def norm(a, b):
        d = np.concatenate([(a.b - b.b)[:, None], a.zk - b.zk], axis=1)
        return float(np.einsum("i,c,icp,ipq,icq->", wt, wc, d, route.gn, d))

    def draw():
        return route.uniform(rng.normal(size=(2 + ens.levy.n_atoms,
                                              route.p)))

    ratios = []
    for _ in range(n_pairs):
        in1, in2 = draw(), draw()
        din = norm(in1, in2)
        out1, out2 = (route.sweep(it) for it in (in1, in2))
        ratios.append(0.0 if din == 0.0 else norm(out1, out2) / din)
    return ratios
