"""Least-squares Monte Carlo Picard solver for mean-field backward
equations on a grid.

Conditional expectations are ordinary ridge-regularised least squares on
adapted path features.  The driver is frozen along the previous iterate
(full freeze), or only its mean channel is frozen while an inner solve
converges in (Y, Z, K) (mean freeze).  Driver time integrals use the
trapezoid weights 1/2 (f(t_i) + f(t_{i+1})); the backward recursion and
the covariation extractions of Z and K are left-endpoint.  The solvers
iterate on the node regression coefficients (`coefficient_route`) and
evaluate custom callables pathwise; `solve_inner`, `_frozen_driver` and
`_mean_channel` are the same map on the paths (`contraction_check`).
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
    beta_norm,
    default_beta,
    mean_functional_eval,
    probe_driver,
    probe_mean_functional,
    terminal_value,
)
from .errors import ConfigError, NumericalError
from .levy_paths import PathEnsemble

__all__ = [
    "RegressionBasis",
    "PicardReport",
    "condexp",
    "solve_inner",
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
        self._cov = [None] * ens.grid.steps
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

    def covariation(self, i: int, x: np.ndarray) -> np.ndarray:
        """H_c = S^-1 X' diag(dM_c) X for the martingale increments dM_c
        over [t_i, t_{i+1}] (dB, then dNtilde_j), shape (1+J, p, p).

        Built once per node: the projection of (Y - X b) dM_c is then
        S^-1 X'(Y dM_c) - H_c b without a second pass over the paths.
        """
        if self._cov[i] is None:
            if self._chol[i] is None:
                self.factor(i, x.T @ x)
            b = self.ens.brownian_nodes
            db = b[:, i + 1] - b[:, i]
            db += self.shift[i, 0]
            xdx = np.concatenate(
                [(x * db[:, None]).T @ x,
                 *self.jump_products(i, x, x, self._gram[i])], axis=1)
            p = x.shape[1]
            h = self.solve(i, x, xdx).reshape(p, self.shift.shape[1], p)
            self._cov[i] = np.ascontiguousarray(h.transpose(1, 0, 2))
        return self._cov[i]

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


def condexp(targets: np.ndarray, basis: RegressionBasis, ens: PathEnsemble,
            i: int) -> np.ndarray:
    """Least-squares estimate of the node-i conditional expectation of
    per-path targets; returns fitted values per path."""
    return _Regressions(ens, basis).fit(i, np.asarray(targets, dtype=float))


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


def solve_inner(f_hat: np.ndarray, tc: TerminalCondition, ens: PathEnsemble,
                basis: RegressionBasis, _reg: Optional[_Regressions] = None
                ) -> SolutionGrid:
    """One backward sweep with a frozen per-interval driver f_hat (n, M).

    Y(t_M) = terminal pathwise; then for i = M-1 .. 0
        Y_i   = condexp(Y_{i+1} + f_hat_i dt)
        Z_i   = condexp((Y_{i+1} - condexp(Y_{i+1})) dB_i) / dt
        K_i,j = condexp((Y_{i+1} - condexp(Y_{i+1})) dNtilde_j,i) / comp_j,i
    with martingale increments and compensators taken under the
    ensemble's own measure.  Centering Y_{i+1} before the covariation
    regressions changes nothing in the limit (the conditional mean of a
    martingale increment vanishes) but removes the dominant noise term,
    and makes Z and K zero to rounding for deterministic solutions.

    Each node takes one pass over the paths: with b the coefficients of
    condexp(Y_{i+1}), the centred projections follow from the identity
        X'((Y_{i+1} - X b) dM) = X'(Y_{i+1} dM) - (X' diag(dM) X) b,
    so one X' product over [Y_{i+1} + f_hat_i dt, Y_{i+1}, Y_{i+1} dB,
    Y_{i+1} dNtilde_j], one solve with the cached normal factor and the
    cached per-node S^-1 X' diag(dM) X give all the coefficients, and one
    X product writes Y_i, Z_i and K_i.  The raw increments dB and dN_j
    are differences of the node arrays; their compensation s = -(drift,
    compensator) under the ensemble's own measure is applied to the
    coefficients: S^-1 X'(Y_{i+1} (d + s)) = S^-1 X'(Y_{i+1} d) + s b.
    """
    reg = _reg if _reg is not None else _Regressions(ens, basis)
    n, m, j = ens.n_paths, ens.grid.steps, ens.levy.n_atoms
    dt = ens.grid.dt
    if not np.all(np.isfinite(f_hat)):
        raise NumericalError("frozen driver contains non-finite values")

    y = np.empty((n, m + 1), order="F")
    y[:, m] = terminal_value(tc, ens)
    z = np.empty((n, m), order="F")
    k = np.empty((n, m, j), order="F")
    # per-node divisors of the covariation coefficients: dt, then comp_j
    scale = np.column_stack([np.full(m, dt), ens.jump_comp])
    pay = np.empty((n, 3 + j), order="F")
    coef = np.empty((reg.n_cols, 2 + j))
    for i in reversed(range(m)):
        ynext = y[:, i + 1]
        np.multiply(f_hat[:, i], dt, out=pay[:, 0])
        pay[:, 0] += ynext
        pay[:, 1] = ynext
        ens.increments(i, out=pay[:, 2:])
        pay[:, 2:] *= ynext[:, None]
        x = reg.design(i)
        c = reg.solve(i, x, x.T @ pay)
        coef[:, 0] = c[:, 0]
        c[:, 2:] += np.outer(c[:, 1], reg.shift[i])
        np.subtract(c[:, 2:], (reg.covariation(i, x) @ c[:, 1]).T,
                    out=coef[:, 1:])
        coef[:, 1:] /= scale[i]
        fitted = x @ coef
        y[:, i] = fitted[:, 0]
        z[:, i] = fitted[:, 1]
        k[:, i, :] = fitted[:, 2:]
    return SolutionGrid(ens, y, z, k)


def _mean_channel(phi: MeanFunctional, sol: SolutionGrid) -> np.ndarray:
    """Ensemble means of phi at every node, (M+1, d)."""
    return np.stack([mean_functional_eval(phi, sol, i)
                     for i in range(sol.ens.grid.steps + 1)])


def _frozen_driver(driver: DriverSpec, sol: SolutionGrid,
                   mu_by_node: np.ndarray) -> np.ndarray:
    """Driver frozen along sol: per-interval trapezoid averages
    (f(t_i) + f(t_{i+1})) / 2 of the pathwise driver values, (n, M).
    Z and K at the terminal node reuse the last interval's estimates."""
    ens = sol.ens
    m = ens.grid.steps
    nodes = ens.grid.nodes
    fvals = np.empty((ens.n_paths, m + 1), order="F")
    for i in range(m + 1):
        zi = min(i, m - 1)
        fvals[:, i] = driver(nodes[i], sol.y[:, i], sol.z[:, zi],
                             sol.k[:, zi, :], mu_by_node[i])
    if driver.source is not None:
        fvals += driver.source
    f_hat = fvals[:, :-1] + fvals[:, 1:]
    f_hat *= 0.5
    return f_hat


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


def _freeze_loop(route, tol: float, max_iter: int, mu_fn,
                 scheme: str) -> tuple[object, PicardReport]:
    """Shared driver-freezing iteration on the route's iterates.
    mu_fn(iterate) supplies the per-node mean channel (M+1, d) for the
    next freeze."""
    dt = route.ens.grid.dt
    report = PicardReport(tol=tol, scheme=scheme)
    it = route.initial()
    for _ in range(max_iter):
        started = time.perf_counter()
        new = route.sweep(it, mu_fn(it))
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


def _full_freeze(driver: DriverSpec, phi: MeanFunctional,
                 tc: TerminalCondition, ens: PathEnsemble,
                 basis: RegressionBasis, tol: float, max_iter: int,
                 check: bool):
    """The full-freeze solve up to its last iterate: (route, iterate,
    report), so that a caller reads the results off the route."""
    _check_step(driver, ens)
    _check_caps(max_iter=max_iter)
    if check:
        probe_driver(driver, ens.grid, ens.levy)
        probe_mean_functional(phi, ens.levy.n_atoms)
    route = _route(driver, phi, tc, ens, basis)
    it, report = _freeze_loop(route, tol, max_iter, route.mean_channel,
                              "full-freeze")
    _finish(report, route)
    if not report.converged:
        warnings.warn(
            f"Picard full freeze did not converge in {report.iterations} "
            f"iterations (last delta {report.deltas[-1]:.3g})", stacklevel=3,
        )
    return route, it, report


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
    and custom callables are evaluated on the paths once per node.
    """
    route, it, report = _full_freeze(driver, phi, tc, ens, basis, tol,
                                     max_iter, check)
    return route.solution(it), report


def picard_mean_freeze(driver: DriverSpec, tc: TerminalCondition,
                       ens: PathEnsemble, basis: RegressionBasis,
                       tol: float = 1e-6, max_iter: int = 50,
                       inner_tol: Optional[float] = None,
                       inner_max_iter: int = 50, check: bool = True
                       ) -> tuple[SolutionGrid, PicardReport]:
    """Outer iteration freezing only the mean of Y.

    The driver must read the mean channel as the scalar E[Y].  Each outer
    step solves the inner equation in (Y, Z, K) to convergence with the
    frozen mean path, then updates the mean.  Outer iterate differences
    are the quantity whose factorial-rate decay the convergence lemma
    predicts.  All outer steps share one route, so the coefficient
    route's set-up is paid once.
    """
    if driver.mean_dim != 1:
        raise ConfigError(
            "mean-freeze driver must depend on the mean through E[Y] only"
        )
    _check_step(driver, ens)
    _check_caps(max_iter=max_iter, inner_max_iter=inner_max_iter)
    if check:
        probe_driver(driver, ens.grid, ens.levy)
    if inner_tol is None:
        inner_tol = tol
    route = _route(driver, None, tc, ens, basis)

    report = PicardReport(tol=tol, scheme="mean-freeze")
    prev = route.initial()
    frozen = route.ybar(prev)
    dt = ens.grid.dt
    for _ in range(max_iter):
        started = time.perf_counter()
        mu_fixed = frozen[:, None]
        it, inner_rep = _freeze_loop(
            route, inner_tol, inner_max_iter, lambda _it: mu_fixed,
            "mean-freeze-inner",
        )
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


def _random_triplet(ens: PathEnsemble, reg: _Regressions,
                    rng: np.random.Generator) -> SolutionGrid:
    """Adapted triplet built from random combinations of the degree-2
    basis paths: at each node the (n, F) design block times an (F, 2+J)
    coefficient matrix gives Y, Z and K_j."""
    n, m, j = ens.n_paths, ens.grid.steps, ens.levy.n_atoms
    feats = _Regressions(ens, RegressionBasis(2, reg.basis.jump_features))
    coef = rng.normal(size=(2 + j, feats.n_cols)).T
    out = np.empty((n, m + 1, 2 + j), order="F")
    for i in range(m + 1):
        np.matmul(feats.design(i), coef, out=out[:, i])
    return SolutionGrid(ens, out[:, :, 0], out[:, :-1, 1], out[:, :-1, 2:])


def contraction_check(driver: DriverSpec, phi: MeanFunctional,
                      tc: TerminalCondition, ens: PathEnsemble,
                      basis: RegressionBasis, beta: Optional[float] = None,
                      n_pairs: int = 10, seed: int = 123) -> list[float]:
    """Observed contraction ratios of the one-step solution map.

    Applies the map (input triplet -> driver freeze -> one sweep) to
    random adapted input pairs and returns the ratio of weighted squared
    norms of output and input differences; a pair of equal inputs scores
    zero by convention.
    """
    if beta is None:
        beta = default_beta(driver, phi)
    rng = np.random.default_rng(seed)
    reg = _Regressions(ens, basis)

    def apply_map(sol_in: SolutionGrid) -> SolutionGrid:
        f_hat = _frozen_driver(driver, sol_in, _mean_channel(phi, sol_in))
        return solve_inner(f_hat, tc, ens, basis, _reg=reg)

    ratios = []
    for _ in range(n_pairs):
        in1 = _random_triplet(ens, reg, rng)
        in2 = _random_triplet(ens, reg, rng)
        din = beta_norm(
            SolutionGrid(ens, in1.y - in2.y, in1.z - in2.z, in1.k - in2.k),
            beta,
        )
        out1, out2 = apply_map(in1), apply_map(in2)
        dout = beta_norm(
            SolutionGrid(ens, out1.y - out2.y, out1.z - out2.z,
                         out1.k - out2.k),
            beta,
        )
        ratios.append(0.0 if din == 0.0 else dout / din)
    return ratios
