"""The Picard map on the paths: the oracle of the coefficient route.

A helper module for the tests (no `test_` prefix, so not collected).
Every sweep writes Y, Z and K per path: `solve_inner` is one backward
sweep with a frozen per-interval driver, `_frozen_driver` freezes the
driver along a triplet, `_mean_channel` takes the mean channel of phi
along it, and `beta_norm` is the weighted norm of the contraction
diagnostics.  `_path_freeze` and `path_contraction_check` run the Picard
freezes and the contraction check of `mfbsde.picard` on that map.
"""
from typing import Optional

import numpy as np

from mfbsde.core import (
    DriverSpec,
    MeanFunctional,
    SolutionGrid,
    TerminalCondition,
    default_beta,
    mean_functional_eval,
    terminal_value,
)
from mfbsde.errors import ConfigError, NumericalError
from mfbsde.levy_paths import PathEnsemble
from mfbsde.coefficient_route import _Regressions
from mfbsde.picard import RegressionBasis


class _PathRegressions(_Regressions):
    """The solver's regression set-up plus the path sweep's own
    per-node covariation factors, built from the set-up's Grams and
    ridge factors."""

    def __init__(self, ens: PathEnsemble, basis: RegressionBasis):
        super().__init__(ens, basis)
        self._cov = [None] * ens.grid.steps

    def covariation(self, i: int, x: np.ndarray) -> np.ndarray:
        """H_c = S^-1 X' diag(dM_c) X for the martingale increments dM_c
        over [t_i, t_{i+1}] (dB, then dNtilde_j), shape (1+J, p, p).

        Built once per node: the projection of (Y - X b) dM_c is then
        S^-1 X'(Y dM_c) - H_c b without a second pass over the paths.
        """
        if self._cov[i] is None:
            b = self.ens.brownian_nodes
            db = b[:, i + 1] - b[:, i]
            db += self.shift[i, 0]
            xdx = np.concatenate(
                [(x * db[:, None]).T @ x,
                 *self.jump_products(i, x, x, self.gram[i])], axis=1)
            p = x.shape[1]
            h = self.solve(xdx, i).reshape(p, self.shift.shape[1], p)
            self._cov[i] = np.ascontiguousarray(h.transpose(1, 0, 2))
        return self._cov[i]


def condexp(targets: np.ndarray, basis: RegressionBasis, ens: PathEnsemble,
            i: int) -> np.ndarray:
    """Least-squares estimate of the node-i conditional expectation of
    per-path targets; returns fitted values per path."""
    return _Regressions(ens, basis).fit(i, np.asarray(targets, dtype=float))


def solve_inner(f_hat: np.ndarray, tc: TerminalCondition, ens: PathEnsemble,
                basis: RegressionBasis,
                _reg: Optional[_PathRegressions] = None) -> SolutionGrid:
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

    On a P ensemble with a basis without extras, Z_i and K_i below node
    M-1 take the set-up's exact maps instead, E_i b_{i+1} for the
    coefficients b_{i+1} of the fit that wrote Y_{i+1}; node M-1, where
    Y_M is the terminal, keeps the regressions.
    """
    reg = _reg if _reg is not None else _PathRegressions(ens, basis)
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
    # the exact Z and K maps of a P ensemble and a basis without extras
    exact = ens.measure == "P" and not basis.extras
    for i in reversed(range(m)):
        ynext = y[:, i + 1]
        np.multiply(f_hat[:, i], dt, out=pay[:, 0])
        pay[:, 0] += ynext
        pay[:, 1] = ynext
        ens.increments(i, out=pay[:, 2:])
        pay[:, 2:] *= ynext[:, None]
        x = reg.design(i)
        c = reg.solve(x.T @ pay, i)
        if exact and i < m - 1:
            # Y_{i+1} = X_{i+1} b_{i+1}, b_{i+1} the last node's fit
            coef[:, 1:] = (reg.e[i] @ coef[:, 0]).T
        else:
            c[:, 2:] += np.outer(c[:, 1], reg.shift[i])
            np.subtract(c[:, 2:], (reg.covariation(i, x) @ c[:, 1]).T,
                        out=coef[:, 1:])
            coef[:, 1:] /= scale[i]
        coef[:, 0] = c[:, 0]
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


def beta_norm(sol: SolutionGrid, beta: float) -> float:
    """Discrete weighted squared norm
    E sum_i e^{beta (t_i - T)} (y_i^2 + z_i^2 + sum_j k_ij^2 w_j) dt
    over nodes i = 0..M-1 (left-endpoint rule): the paper's e^{beta t}
    weight divided by e^{beta T}, so that a large beta cannot overflow."""
    if beta < 0:
        raise ConfigError("beta must be nonnegative")
    ens = sol.ens
    w = ens.levy.weights
    t = ens.grid.nodes[:-1] - ens.grid.horizon
    # node-by-node reductions: no squared (n, M[, J]) temporaries
    yl = sol.y[:, :-1]
    dens = np.einsum("ni,ni->i", yl, yl) + np.einsum("ni,ni->i", sol.z,
                                                     sol.z)
    if w.size:
        dens += np.einsum("nij,nij->ij", sol.k, sol.k) @ w
    return float((np.exp(beta * t) * dens).sum() / ens.n_paths
                 * ens.grid.dt)


def _random_triplet(ens: PathEnsemble, reg: _Regressions,
                    rng: np.random.Generator, xi: np.ndarray
                    ) -> SolutionGrid:
    """Adapted triplet built from random combinations of the basis paths
    of `reg`: at each node below M the (n, p) design times one (p, 2+J)
    coefficient matrix gives Y, Z and K_j; Y_M is the terminal xi."""
    n, m, j = ens.n_paths, ens.grid.steps, ens.levy.n_atoms
    coef = rng.normal(size=(2 + j, reg.n_cols)).T
    out = np.empty((n, m + 1, 2 + j), order="F")
    for i in range(m):
        np.matmul(reg.design(i), coef, out=out[:, i])
    out[:, m, 0] = xi
    return SolutionGrid(ens, out[:, :, 0], out[:, :-1, 1], out[:, :-1, 2:])


def path_contraction_check(driver: DriverSpec, phi: MeanFunctional,
                           tc: TerminalCondition, ens: PathEnsemble,
                           basis: RegressionBasis,
                           beta: Optional[float] = None, n_pairs: int = 10,
                           seed: int = 123) -> list[float]:
    """`mfbsde.contraction_check` on the paths: the same random inputs,
    mapped through the driver freeze and one path sweep, and the ratio of
    the weighted squared norms of output and input differences; a pair
    of equal inputs scores zero."""
    if beta is None:
        beta = default_beta(driver, phi)
    rng = np.random.default_rng(seed)
    reg = _PathRegressions(ens, basis)
    xi = terminal_value(tc, ens)

    def apply_map(sol_in: SolutionGrid) -> SolutionGrid:
        f_hat = _frozen_driver(driver, sol_in, _mean_channel(phi, sol_in))
        return solve_inner(f_hat, tc, ens, basis, _reg=reg)

    ratios = []
    for _ in range(n_pairs):
        in1 = _random_triplet(ens, reg, rng, xi)
        in2 = _random_triplet(ens, reg, rng, xi)
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


def _path_freeze(driver, phi, tc, ens, basis, freeze, tol=1e-6,
                 max_iter=50):
    """The oracle of the solvers: the full or mean freeze on the paths.
    Each iteration freezes the driver along the whole previous iterate
    (`_frozen_driver`, with `_mean_channel` in the full freeze) and sweeps
    it with `solve_inner`; the deltas are path means.  Every iteration,
    inner ones included, starts from the terminal's mean below node M,
    xi at node M and Z = K = 0, as the solvers do."""
    reg = _PathRegressions(ens, basis)
    n, m, dt = ens.n_paths, ens.grid.steps, ens.grid.dt
    xi = terminal_value(tc, ens)
    y = np.full((n, m + 1), xi.mean())
    y[:, m] = xi
    start = SolutionGrid(ens, y, np.zeros((n, m)),
                         np.zeros((n, m, ens.levy.n_atoms)))

    def iterate(step):
        it, deltas, integ = start, [], []
        for _ in range(max_iter):
            new = step(it)
            d = ((new.y - it.y) ** 2).mean(axis=0)
            deltas.append(d.max())
            integ.append(d[:-1].sum() * dt)
            it = new
            if deltas[-1] < tol:
                break
        return it, deltas, integ

    def sweep(mu_fn):
        return lambda it: solve_inner(_frozen_driver(driver, it, mu_fn(it)),
                                      tc, ens, basis, _reg=reg)

    if freeze == "full":
        sol, deltas, integ = iterate(sweep(lambda it: _mean_channel(phi, it)))
    else:
        sol, deltas, integ = iterate(lambda outer: iterate(
            sweep(lambda _it: outer.ybar[:, None]))[0])
    return sol, dict(deltas=deltas, integrated=integ,
                     iterations=len(deltas), converged=deltas[-1] < tol,
                     cond_max=reg.cond_max)
