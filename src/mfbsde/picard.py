"""Least-squares Monte Carlo Picard solver for mean-field backward
equations on a grid.

Conditional expectations are ordinary ridge-regularised least squares on
adapted path features.  The driver is frozen along the previous iterate
(full freeze), or only its mean channel is frozen while an inner solve
converges in (Y, Z, K) (mean freeze).  Driver time integrals use the
trapezoid weights 1/2 (f(t_i) + f(t_{i+1})); the backward recursion and
the covariation extractions of Z and K are left-endpoint.
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
        self.bn = ens.brownian_nodes
        self.jnodes = ens.compensated_jump_nodes
        self.jn = (
            self.jnodes if basis.jump_features and ens.levy.n_atoms else None
        )
        # per-node shift of [dB, P-compensated dN_j] to the ensemble measure
        self.shift = np.column_stack([
            -ens.bm_drift, ens.levy.weights * ens.grid.dt - ens.jump_comp,
        ])
        self.extra = list(basis.extras.values())
        self.n_cols = (
            1 + basis.degree + (self.jn.shape[2] if self.jn is not None else 0)
            + len(self.extra)
        )
        if ens.n_paths <= self.n_cols:
            raise ConfigError(
                f"need more paths ({ens.n_paths}) than basis functions "
                f"({self.n_cols})"
            )
        self._chol = [None] * (ens.grid.steps + 1)
        self._cov = [None] * ens.grid.steps
        self.ridge_max = 0.0
        self._xbuf = np.empty((ens.n_paths, self.n_cols), order="F")
        self._xbuf[:, 0] = 1.0

    def design(self, i: int) -> np.ndarray:
        """Node-i design matrix (a shared buffer, valid until next call)."""
        x = self._xbuf
        b = self.bn[:, i]
        x[:, 1] = b
        for p in range(2, self.basis.degree + 1):
            np.multiply(x[:, p - 1], b, out=x[:, p])
        c = 1 + self.basis.degree
        if self.jn is not None:
            nj = self.jn.shape[2]
            x[:, c:c + nj] = self.jn[:, i, :]
            c += nj
        for arr in self.extra:
            x[:, c] = arr[:, i]
            c += 1
        return x

    def solve(self, i: int, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Node-i ridge normal equations S c = rhs, S = X'X + ridge.

        The ridge term RIDGE_SCALE * trace(X'X) / n_cols is applied to all
        columns except the constant, so means are reproduced exactly.
        The Cholesky factor of S is cached per node.
        """
        if self._chol[i] is None:
            xtx = x.T @ x
            lam = RIDGE_SCALE * np.trace(xtx) / x.shape[1]
            self.ridge_max = max(self.ridge_max, lam)
            reg = np.full(x.shape[1], lam)
            reg[0] = 0.0
            try:
                self._chol[i] = np.linalg.cholesky(xtx + np.diag(reg))
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"regression normal matrix not positive definite at "
                    f"node {i}"
                ) from exc
        c = self._chol[i]
        return np.linalg.solve(c.T, np.linalg.solve(c, rhs))

    def fit(self, i: int, targets: np.ndarray) -> np.ndarray:
        """Fitted values of the node-i least-squares projection."""
        x = self.design(i)
        squeeze = targets.ndim == 1
        t = targets[:, None] if squeeze else targets
        fitted = x @ self.solve(i, x, x.T @ t)
        return fitted[:, 0] if squeeze else fitted

    def increments(self, i: int, out: np.ndarray) -> np.ndarray:
        """Raw increments over [t_i, t_{i+1}] into out (n, 1+J): dB, then
        the P-compensated dN_j, as differences of the node arrays; add
        shift[i] for the martingale increments."""
        np.subtract(self.bn[:, i + 1], self.bn[:, i], out=out[:, 0])
        np.subtract(self.jnodes[:, i + 1, :], self.jnodes[:, i, :],
                    out=out[:, 1:])
        return out

    def covariation(self, i: int, x: np.ndarray) -> np.ndarray:
        """H_c = S^-1 X' diag(dM_c) X for the martingale increments dM_c
        over [t_i, t_{i+1}] (dB, then dNtilde_j), shape (1+J, p, p).

        Built once per node: the projection of (Y - X b) dM_c is then
        S^-1 X'(Y dM_c) - H_c b without a second pass over the paths.
        """
        if self._cov[i] is None:
            nc = self.shift.shape[1]
            dms = self.increments(i, np.empty((x.shape[0], nc), order="F"))
            dms += self.shift[i]
            xdx = np.concatenate([(x * dm[:, None]).T @ x for dm in dms.T],
                                 axis=1)
            p = x.shape[1]
            h = self.solve(i, x, xdx).reshape(p, nc, p)
            self._cov[i] = np.ascontiguousarray(h.transpose(1, 0, 2))
        return self._cov[i]


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
    X product writes Y_i, Z_i and K_i.  dB and dNtilde_j are differences
    of the node arrays, compensated as under P; the shift s to the
    ensemble's own measure is applied to the coefficients: for a raw
    increment d, S^-1 X'(Y_{i+1} (d + s)) = S^-1 X'(Y_{i+1} d) + s b.
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
        reg.increments(i, pay[:, 2:])
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


def _initial_iterate(tc: TerminalCondition, ens: PathEnsemble) -> SolutionGrid:
    """Y0 identically the ensemble mean of the terminal value, Z0 = K0 = 0."""
    n, m, j = ens.n_paths, ens.grid.steps, ens.levy.n_atoms
    y0 = np.full((n, m + 1), terminal_value(tc, ens).mean())
    return SolutionGrid(ens, y0, np.zeros((n, m)), np.zeros((n, m, j)))


def _check_step(driver: DriverSpec, ens: PathEnsemble):
    if driver.lipschitz_c * ens.grid.dt >= 1.0:
        raise ConfigError(
            f"dt * Lipschitz constant = {driver.lipschitz_c * ens.grid.dt:.3g}"
            " >= 1; refine the grid"
        )


def _freeze_loop(driver: DriverSpec, tc: TerminalCondition,
                 ens: PathEnsemble, basis: RegressionBasis, tol: float,
                 max_iter: int, mu_fn, reg: _Regressions,
                 scheme: str) -> tuple[SolutionGrid, PicardReport]:
    """Shared driver-freezing iteration.  mu_fn(sol) supplies the per-node
    mean channel (M+1, d) for the next freeze."""
    dt = ens.grid.dt
    report = PicardReport(tol=tol, scheme=scheme)
    sol = _initial_iterate(tc, ens)
    for _ in range(max_iter):
        started = time.perf_counter()
        f_hat = _frozen_driver(driver, sol, mu_fn(sol))
        new = solve_inner(f_hat, tc, ens, basis, _reg=reg)
        dy2 = ((new.y - sol.y) ** 2).mean(axis=0)
        report.record(float(dy2.max()), float(dy2[:-1].sum() * dt),
                      time.perf_counter() - started)
        sol = new
        if report.deltas[-1] < tol:
            report.converged = True
            break
    report.ridge_max = reg.ridge_max
    return sol, report


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
    """
    _check_step(driver, ens)
    if check:
        probe_driver(driver, ens.grid, ens.levy)
        probe_mean_functional(phi, ens.levy.n_atoms)
    reg = _Regressions(ens, basis)
    sol, report = _freeze_loop(driver, tc, ens, basis, tol, max_iter,
                               lambda s: _mean_channel(phi, s), reg,
                               "full-freeze")
    if not report.converged:
        warnings.warn(
            f"Picard full freeze did not converge in {report.iterations} "
            f"iterations (last delta {report.deltas[-1]:.3g})", stacklevel=2,
        )
    return sol, report


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
    predicts.
    """
    if driver.mean_dim != 1:
        raise ConfigError(
            "mean-freeze driver must depend on the mean through E[Y] only"
        )
    _check_step(driver, ens)
    if check:
        probe_driver(driver, ens.grid, ens.levy)
    if inner_tol is None:
        inner_tol = tol
    reg = _Regressions(ens, basis)

    report = PicardReport(tol=tol, scheme="mean-freeze")
    prev = _initial_iterate(tc, ens)
    frozen = prev.ybar.copy()
    dt = ens.grid.dt
    for _ in range(max_iter):
        started = time.perf_counter()
        mu_fixed = frozen[:, None]
        sol, inner_rep = _freeze_loop(
            driver, tc, ens, basis, inner_tol, inner_max_iter,
            lambda _sol: mu_fixed, reg, "mean-freeze-inner",
        )
        if not inner_rep.converged:
            report.inner_unconverged += 1
            warnings.warn("mean-freeze inner solve did not converge",
                          stacklevel=2)
        dy2 = ((sol.y - prev.y) ** 2).mean(axis=0)
        report.record(float(dy2.max()), float(dy2[:-1].sum() * dt),
                      time.perf_counter() - started)
        prev = sol
        frozen = sol.ybar.copy()
        if report.deltas[-1] < tol:
            report.converged = True
            break
    report.ridge_max = reg.ridge_max
    if not report.converged:
        warnings.warn(
            f"Picard mean freeze did not converge in {report.iterations} "
            f"outer iterations", stacklevel=2,
        )
    return prev, report


def _random_triplet(ens: PathEnsemble, reg: _Regressions,
                    rng: np.random.Generator) -> SolutionGrid:
    """Adapted triplet built from random combinations of the basis paths."""
    n, m, j = ens.n_paths, ens.grid.steps, ens.levy.n_atoms
    feats = [np.ones((n, m + 1), order="F"), reg.bn, reg.bn**2]
    if reg.jn is not None:
        feats.extend(reg.jn[:, :, a] for a in range(j))
    y = sum(c * f for c, f in zip(rng.normal(size=len(feats)), feats))
    z = sum(c * f for c, f in zip(rng.normal(size=len(feats)), feats))[:, :-1]
    k = np.stack(
        [sum(c * f for c, f in zip(rng.normal(size=len(feats)), feats))[:, :-1]
         for _ in range(j)], axis=2,
    ) if j else np.zeros((n, m, 0))
    return SolutionGrid(ens, y, z, k)


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
